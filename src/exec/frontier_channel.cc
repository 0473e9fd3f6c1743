#include "exec/frontier_channel.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace rsj {

FrontierChannel::FrontierChannel(size_t bound, size_t producers)
    : bound_(bound), open_producers_(producers) {
  RSJ_CHECK_MSG(bound >= 1, "frontier channel needs bound >= 1");
  RSJ_CHECK_MSG(producers >= 1, "frontier channel needs >= 1 producer");
}

void FrontierChannel::Push(FrontierChunk chunk) {
  std::unique_lock<std::mutex> lock(mu_);
  not_full_.wait(lock, [this]() { return queue_.size() < bound_; });
  queue_.push_back(std::move(chunk));
  ++chunks_pushed_;
  peak_size_ = std::max(peak_size_, queue_.size());
  not_empty_.notify_one();
}

bool FrontierChannel::Pop(FrontierChunk* out) {
  std::unique_lock<std::mutex> lock(mu_);
  not_empty_.wait(lock, [this]() {
    return !queue_.empty() || open_producers_ == 0;
  });
  if (queue_.empty()) return false;  // drained, all producers retired
  *out = std::move(queue_.front());
  queue_.pop_front();
  not_full_.notify_one();
  return true;
}

void FrontierChannel::RetireProducer() {
  std::lock_guard<std::mutex> lock(mu_);
  RSJ_CHECK_MSG(open_producers_ > 0, "producer retired twice");
  if (--open_producers_ == 0) not_empty_.notify_all();
}

size_t FrontierChannel::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

size_t FrontierChannel::open_producers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return open_producers_;
}

uint64_t FrontierChannel::chunks_pushed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return chunks_pushed_;
}

size_t FrontierChannel::peak_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_size_;
}

}  // namespace rsj
