// Deterministic simulated disk array — the storage hardware of the paper's
// experimental setting (§5 stripes both R-trees over a disk array).
//
// The substrate stays in-memory (`PagedFile` hands out bytes instantly);
// this model supplies the *time* dimension on top: every page access is
// converted into modeled service micros with the paper's HP 720 constants
// (1.5e-2 s positioning, 5.0e-3 s per KByte transferred — the same numbers
// as storage/cost_model.h, here per request instead of aggregated).
//
// Pages are striped round-robin over the disks per PagedFile: page id `p`
// lives on disk `p % disk_count`, so consecutive pages of one file spread
// over the whole array and a sorted read schedule keeps every arm busy.
// Each disk keeps a busy-until timeline: a request arriving at modeled
// time t starts at max(t, busy_until) and the disk remembers the last page
// it served — reading the next stripe unit of the same file in sequence
// (id == last_id + disk_count) skips the positioning cost, which is what
// makes a good read schedule (§4.3) cheaper than a random one.
//
// When a request starts later than the previous busy-until, the skipped
// interval is remembered as an idle gap. A later request issued at a
// modeled time that falls inside such a gap is backfilled into it (at
// full positioning cost — the arm is mid-stream elsewhere): the arm was
// physically idle then, so serving the request there is the truthful
// outcome. Without backfill, the wall-clock order in which concurrent
// actors happen to reach the disk would serialize modeled streams that
// genuinely overlapped.
//
// Service times depend only on the per-disk arrival order, which the I/O
// scheduler (io/io_scheduler.h) makes its call order. The array keeps its
// own mutex so metric readers (obs/metrics.h) can snapshot it while a run
// services requests.

#ifndef RSJ_IO_DISK_MODEL_H_
#define RSJ_IO_DISK_MODEL_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "storage/paged_file.h"

namespace rsj {

struct DiskModelOptions {
  // Disks in the array (the bench sweeps 1/2/4/8, the paper's setting).
  unsigned disk_count = 1;

  // Disk-arm positioning cost per non-sequential request (seek +
  // rotational latency). Default: the paper's 1.5e-2 s.
  uint64_t seek_micros = 15000;

  // Transfer cost per KByte moved. Default: the paper's 5.0e-3 s.
  uint64_t transfer_micros_per_kbyte = 5000;
};

class SimulatedDiskArray {
 public:
  explicit SimulatedDiskArray(const DiskModelOptions& options);

  SimulatedDiskArray(const SimulatedDiskArray&) = delete;
  SimulatedDiskArray& operator=(const SimulatedDiskArray&) = delete;

  unsigned disk_count() const { return static_cast<unsigned>(disks_.size()); }

  // Round-robin striping: the disk holding page `id` of any file.
  unsigned DiskFor(PageId id) const {
    return id % static_cast<unsigned>(disks_.size());
  }

  // Pure transfer cost of one page (no positioning, no queueing).
  uint64_t TransferMicros(uint32_t page_size_bytes) const;

  // Positioning + transfer of one page (the cost of an isolated random
  // read; what the synchronous no-prefetch path pays per miss).
  uint64_t RandomReadMicros(uint32_t page_size_bytes) const {
    return options_.seek_micros + TransferMicros(page_size_bytes);
  }

  // Services one read of page `id` of `file` arriving at modeled time
  // `issue_micros` and returns its completion time. The request starts
  // when both the issuer and the disk are ready and occupies the disk for
  // its service time; sequential follow-ups skip the positioning cost.
  uint64_t Service(const PagedFile& file, PageId id, uint32_t page_size_bytes,
                   uint64_t issue_micros);

  // Services one write. The paper's constants do not distinguish reads
  // from writes, so a write costs exactly like a read: the arm moves the
  // same way and the same queueing and sequential-discount rules apply.
  uint64_t ServiceWrite(const PagedFile& file, PageId id,
                        uint32_t page_size_bytes, uint64_t issue_micros);

  // Modeled time until which `disk` is busy (snapshot).
  uint64_t BusyUntil(unsigned disk) const;

  // Accumulated modeled service micros one arm spent on requests
  // (seek + transfer; backfilled requests included) — the busy
  // side of the busy/idle utilization split obs/metrics.h reports.
  uint64_t busy_micros(unsigned disk) const;
  uint64_t total_busy_micros() const;

  // Requests served inside a remembered idle gap instead of at the tail.
  uint64_t backfills() const;

  // Requests serviced so far, by kind.
  uint64_t reads_serviced() const;
  uint64_t writes_serviced() const;

  const DiskModelOptions& options() const { return options_; }

 private:
  // An interval [start, end) during which the arm sat idle; candidates
  // for backfilling requests issued before the current busy-until.
  struct IdleGap {
    uint64_t start_micros = 0;
    uint64_t end_micros = 0;
  };

  struct Disk {
    uint64_t busy_until_micros = 0;
    uint64_t busy_micros = 0;  // accumulated service time (incl. backfills)
    const PagedFile* last_file = nullptr;
    PageId last_id = kInvalidPageId;
    // Disjoint, ascending; bounded (oldest dropped) so bookkeeping stays
    // O(1) amortized per request.
    std::vector<IdleGap> gaps;
  };

  // Shared queueing/discount math of reads and writes.
  uint64_t ServiceLocked(const PagedFile& file, PageId id,
                         uint32_t page_size_bytes, uint64_t issue_micros);

  DiskModelOptions options_;
  mutable std::mutex mu_;
  std::vector<Disk> disks_;
  uint64_t reads_serviced_ = 0;
  uint64_t writes_serviced_ = 0;
  uint64_t backfills_ = 0;
};

}  // namespace rsj

#endif  // RSJ_IO_DISK_MODEL_H_
