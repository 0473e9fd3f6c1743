#include "io/disk_model.h"

#include <algorithm>

#include "common/logging.h"

namespace rsj {

SimulatedDiskArray::SimulatedDiskArray(const DiskModelOptions& options)
    : options_(options) {
  RSJ_CHECK_MSG(options.disk_count >= 1, "disk array needs >= 1 disk");
  disks_.resize(options.disk_count);
}

uint64_t SimulatedDiskArray::TransferMicros(uint32_t page_size_bytes) const {
  // Rounded up so a sub-KByte page still costs something.
  return options_.transfer_micros_per_kbyte *
         ((static_cast<uint64_t>(page_size_bytes) + 1023) / 1024);
}

namespace {
// Gap lists stay small: requests landing at the tail reuse slots as old
// gaps age out, and anything beyond this many open gaps is ancient.
constexpr size_t kMaxIdleGaps = 32;
}  // namespace

uint64_t SimulatedDiskArray::ServiceLocked(const PagedFile& file, PageId id,
                                           uint32_t page_size_bytes,
                                           uint64_t issue_micros) {
  Disk& disk = disks_[DiskFor(id)];

  // Backfill: if the arm was idle at the issue time for long enough to
  // serve this request, serve it inside that gap. The arm is mid-stream
  // elsewhere on the timeline, so the positioning cost is always paid
  // and the tail's sequential-run state is left untouched.
  const uint64_t backfill_cost = RandomReadMicros(page_size_bytes);
  for (size_t i = 0; i < disk.gaps.size(); ++i) {
    IdleGap& gap = disk.gaps[i];
    const uint64_t start = std::max(gap.start_micros, issue_micros);
    if (start + backfill_cost > gap.end_micros) continue;
    const uint64_t done = start + backfill_cost;
    disk.busy_micros += backfill_cost;
    ++backfills_;
    const IdleGap tail{done, gap.end_micros};
    gap.end_micros = start;
    const bool keep_head = gap.end_micros > gap.start_micros;
    if (tail.end_micros > tail.start_micros) {
      if (keep_head) {
        disk.gaps.insert(disk.gaps.begin() + static_cast<ptrdiff_t>(i) + 1,
                         tail);
      } else {
        gap = tail;
      }
    } else if (!keep_head) {
      disk.gaps.erase(disk.gaps.begin() + static_cast<ptrdiff_t>(i));
    }
    return done;
  }

  const bool sequential =
      disk.last_file == &file &&
      (id == disk.last_id ||
       id == disk.last_id + static_cast<PageId>(disks_.size()));
  const uint64_t cost = TransferMicros(page_size_bytes) +
                        (sequential ? 0 : options_.seek_micros);
  const uint64_t start = std::max(issue_micros, disk.busy_until_micros);
  if (start > disk.busy_until_micros) {
    disk.gaps.push_back(IdleGap{disk.busy_until_micros, start});
    if (disk.gaps.size() > kMaxIdleGaps) disk.gaps.erase(disk.gaps.begin());
  }
  disk.busy_until_micros = start + cost;
  disk.busy_micros += cost;
  disk.last_file = &file;
  disk.last_id = id;
  return disk.busy_until_micros;
}

uint64_t SimulatedDiskArray::Service(const PagedFile& file, PageId id,
                                     uint32_t page_size_bytes,
                                     uint64_t issue_micros) {
  std::lock_guard<std::mutex> lock(mu_);
  ++reads_serviced_;
  return ServiceLocked(file, id, page_size_bytes, issue_micros);
}

uint64_t SimulatedDiskArray::ServiceWrite(const PagedFile& file, PageId id,
                                          uint32_t page_size_bytes,
                                          uint64_t issue_micros) {
  std::lock_guard<std::mutex> lock(mu_);
  ++writes_serviced_;
  return ServiceLocked(file, id, page_size_bytes, issue_micros);
}

uint64_t SimulatedDiskArray::reads_serviced() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reads_serviced_;
}

uint64_t SimulatedDiskArray::writes_serviced() const {
  std::lock_guard<std::mutex> lock(mu_);
  return writes_serviced_;
}

uint64_t SimulatedDiskArray::BusyUntil(unsigned disk) const {
  std::lock_guard<std::mutex> lock(mu_);
  RSJ_DCHECK(disk < disks_.size());
  return disks_[disk].busy_until_micros;
}

uint64_t SimulatedDiskArray::busy_micros(unsigned disk) const {
  std::lock_guard<std::mutex> lock(mu_);
  RSJ_DCHECK(disk < disks_.size());
  return disks_[disk].busy_micros;
}

uint64_t SimulatedDiskArray::total_busy_micros() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const Disk& disk : disks_) total += disk.busy_micros;
  return total;
}

uint64_t SimulatedDiskArray::backfills() const {
  std::lock_guard<std::mutex> lock(mu_);
  return backfills_;
}

}  // namespace rsj
