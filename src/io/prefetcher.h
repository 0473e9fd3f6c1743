// Schedule-driven prefetcher — the consumer-facing face of the async I/O
// subsystem.
//
// The paper's SJ3–SJ5 exist to compute a good *read schedule* (§4.3): the
// order in which the qualifying child pages of a node pair will be
// fetched, either local plane-sweep order or local z-order. With a
// synchronous substrate that order only changes which requests become
// buffer hits; with the simulated disk array it is exactly the information
// a prefetcher needs: the engine hands each schedule to `PrefetchSchedule`
// *before* executing it, the prefetcher issues non-blocking reads through
// `BufferPool::Prefetch`, and by the time the traversal reaches a page its
// service time has (partly) elapsed in the background of the modeled
// timeline. The exec partitioner's subtree-pair tasks feed the same path:
// their child pages are hinted ahead as the task frontier.
//
// The prefetcher is a stateless policy layer: residency and coalescing
// live in the buffer pool, timing in the IoScheduler. `max_ahead` caps the
// pages *issued* per schedule handoff so a long schedule cannot flush the
// buffer it is trying to warm (prefetched pages are evictable, see
// storage/buffer_pool.h).
//
// Ownership & threading contracts:
//   * The prefetcher borrows its BufferPool (not owned; the pool must
//     outlive it) and holds no mutable state of its own, so, like the
//     pool, one instance may be called from any thread; its hints land
//     (and are accounted) in that pool alone.
//   * Hints are charged to the caller-provided Statistics*, which names
//     the issuing actor's timeline in the attached IoScheduler.

#ifndef RSJ_IO_PREFETCHER_H_
#define RSJ_IO_PREFETCHER_H_

#include <cstddef>
#include <span>

#include "storage/buffer_pool.h"

namespace rsj {

class Prefetcher {
 public:
  struct Options {
    // Maximal async reads issued per schedule handoff. Keep below the
    // buffer's frame count or the tail of a schedule evicts its head.
    size_t max_ahead = 32;
  };

  // `pool` must outlive the prefetcher and is not owned.
  Prefetcher(BufferPool* pool, Options options)
      : pool_(pool), options_(options) {}
  explicit Prefetcher(BufferPool* pool) : Prefetcher(pool, Options{}) {}

  // One read-ahead hint. Returns true when an async read was issued
  // (false: resident — coalesced).
  bool PrefetchPage(const PagedFile& file, PageId id,
                    Statistics* stats) const {
    return pool_->Prefetch(file, id, stats);
  }

  // Issues the pages of one read schedule in order, stopping after
  // `max_ahead` actually-issued reads. Returns the number issued.
  size_t PrefetchSchedule(const PagedFile& file, std::span<const PageId> pages,
                          Statistics* stats) const;

  // Two-sided schedule (a directory-pair schedule touches an R and an S
  // page per scheduled pair): issues a[i], b[i] interleaved so the reads
  // spread over both files' disk stripes from the start. Spans may have
  // different lengths; the budget covers both sides together.
  size_t PrefetchSchedule(const PagedFile& file_a, std::span<const PageId> a,
                          const PagedFile& file_b, std::span<const PageId> b,
                          Statistics* stats) const;

  const Options& options() const { return options_; }

 private:
  BufferPool* pool_;
  Options options_;
};

}  // namespace rsj

#endif  // RSJ_IO_PREFETCHER_H_
