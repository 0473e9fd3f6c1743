#include "geom/simd_kernels.h"

#include <array>
#include <atomic>
#include <cstdlib>
#include <cstring>

// The vector path targets the x86-64 SSE2 baseline: present on every x86-64
// build without extra -march flags, 4 float lanes (2 double lanes for the
// within-distance kernel). Defining RSJ_DISABLE_SIMD (e.g.
// -DCMAKE_CXX_FLAGS=-DRSJ_DISABLE_SIMD) compiles the scalar reference path
// only.
#if !defined(RSJ_DISABLE_SIMD) && \
    (defined(__SSE2__) || defined(__x86_64__) || defined(_M_X64))
#define RSJ_GEOM_SIMD 1
#include <emmintrin.h>
#else
#define RSJ_GEOM_SIMD 0
#endif

namespace rsj {

namespace {

GeomKernelMode InitialMode() {
  const char* env = std::getenv("RSJ_GEOM_KERNELS");
  if (env != nullptr) {
    if (std::strcmp(env, "scalar") == 0) return GeomKernelMode::kScalar;
    if (std::strcmp(env, "simd") == 0) return GeomKernelMode::kSimd;
  }
  return GeomSimdCompiledIn() ? GeomKernelMode::kSimd
                              : GeomKernelMode::kScalar;
}

std::atomic<GeomKernelMode>& ModeSlot() {
  static std::atomic<GeomKernelMode> mode{InitialMode()};
  return mode;
}

#if RSJ_GEOM_SIMD
bool UseSimd() {
  return ModeSlot().load(std::memory_order_relaxed) == GeomKernelMode::kSimd;
}
#endif

// One element of the counted overlap loop: bit-for-bit the early-exit
// sequence of Rect::IntersectsCounted with the chosen subject. Returns the
// executed comparisons; sets *hit. Shared by every counted overlap path:
// the scalar references and the vector paths' tail lanes.
inline uint64_t OverlapCountedOne(const RectColumns& block, size_t i,
                                  const Rect& q, OverlapSubject subject,
                                  bool* hit) {
  const Coord bxl = block.xl[i];
  const Coord byl = block.yl[i];
  const Coord bxu = block.xu[i];
  const Coord byu = block.yu[i];
  *hit = false;
  if (subject == OverlapSubject::kBlock) {
    if (bxl > q.xu) return 1;
    if (q.xl > bxu) return 2;
    if (byl > q.yu) return 3;
    *hit = !(q.yl > byu);
    return 4;
  }
  if (q.xl > bxu) return 1;
  if (bxl > q.xu) return 2;
  if (q.yl > byu) return 3;
  *hit = !(byl > q.yu);
  return 4;
}

// The scalar reference of the counted overlap loop from position `begin`
// (the vector path's tail starts past its last full group): appends the
// hits and returns the executed comparisons.
uint64_t AppendOverlapHitsScalar(const RectColumns& block, const Rect& query,
                                 OverlapSubject subject, size_t begin,
                                 std::vector<uint32_t>* hits) {
  uint64_t count = 0;
  const size_t n = block.size;
  for (size_t i = begin; i < n; ++i) {
    bool hit = false;
    count += OverlapCountedOne(block, i, query, subject, &hit);
    if (hit) hits->push_back(static_cast<uint32_t>(i));
  }
  return count;
}

#if RSJ_GEOM_SIMD
// Vector body of the counted overlap kernels over the block's full groups
// of four. The early-exit order (the subject) is a template parameter so
// the per-group mask shuffle costs nothing, and the survivor counts
// accumulate in an integer register (each alive lane is -1, so subtracting
// adds one per survivor) — one horizontal sum at the end instead of three
// popcounts per group. Calls `group(i, hit)` for the group at position i
// with its hit lanes' bits, sets `*end` past the last full group (where the
// scalar tail starts) and returns the groups' charged comparisons.
template <bool kBlockIsSubject, typename GroupFn>
uint64_t OverlapGroupsSimd(const RectColumns& block, const Rect& query,
                           GroupFn&& group, size_t* end) {
  const size_t n = block.size;
  const __m128 qxl = _mm_set1_ps(query.xl);
  const __m128 qyl = _mm_set1_ps(query.yl);
  const __m128 qxu = _mm_set1_ps(query.xu);
  const __m128 qyu = _mm_set1_ps(query.yu);
  const __m128i all = _mm_set1_epi32(-1);
  __m128i acc = _mm_setzero_si128();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 bxl = _mm_loadu_ps(block.xl + i);
    const __m128 byl = _mm_loadu_ps(block.yl + i);
    const __m128 bxu = _mm_loadu_ps(block.xu + i);
    const __m128 byu = _mm_loadu_ps(block.yu + i);
    //   cA: block.xl > q.xu    cB: q.xl > block.xu
    //   cC: block.yl > q.yu    cD: q.yl > block.yu
    const __m128i cA = _mm_castps_si128(_mm_cmpgt_ps(bxl, qxu));
    const __m128i cB = _mm_castps_si128(_mm_cmpgt_ps(qxl, bxu));
    const __m128i cC = _mm_castps_si128(_mm_cmpgt_ps(byl, qyu));
    const __m128i cD = _mm_castps_si128(_mm_cmpgt_ps(qyl, byu));
    const __m128i c1 = kBlockIsSubject ? cA : cB;
    const __m128i c2 = kBlockIsSubject ? cB : cA;
    const __m128i c3 = kBlockIsSubject ? cC : cD;
    const __m128i c4 = kBlockIsSubject ? cD : cC;
    const __m128i alive1 = _mm_andnot_si128(c1, all);
    const __m128i alive2 = _mm_andnot_si128(c2, alive1);
    const __m128i alive3 = _mm_andnot_si128(c3, alive2);
    acc = _mm_sub_epi32(acc, alive1);
    acc = _mm_sub_epi32(acc, alive2);
    acc = _mm_sub_epi32(acc, alive3);
    group(i, _mm_movemask_ps(_mm_castsi128_ps(_mm_andnot_si128(c4, alive3))));
  }
  *end = i;
  alignas(16) int32_t lanes[4];
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes), acc);
  // The charged count telescopes to lanes + survivors (see header); `i`
  // is the one-comparison-minimum of every vector-processed element.
  return static_cast<uint64_t>(i) +
         static_cast<uint64_t>(lanes[0] + lanes[1]) +
         static_cast<uint64_t>(lanes[2] + lanes[3]);
}

// OverlapGroupsSimd with the subject as a run-time argument.
template <typename GroupFn>
uint64_t OverlapGroupsSimd(const RectColumns& block, const Rect& query,
                           OverlapSubject subject, GroupFn&& group,
                           size_t* end) {
  return subject == OverlapSubject::kBlock
             ? OverlapGroupsSimd<true>(block, query, group, end)
             : OverlapGroupsSimd<false>(block, query, group, end);
}
#endif

using PairBuffer = std::vector<std::pair<uint32_t, uint32_t>>;

// One sweep pair in (r, s) orientation; `kTIsR` says whether the scanning
// rectangle is the R side.
template <bool kTIsR>
inline std::pair<uint32_t, uint32_t> SweepPair(uint32_t t_index,
                                               uint32_t seq_index) {
  if constexpr (kTIsR) {
    return {t_index, seq_index};
  } else {
    return {seq_index, t_index};
  }
}

// One internal scan of the sweep (the paper's InternalLoop, see
// geom/plane_sweep.h), the scalar reference: `t` against `seq` from `first`
// while the x-projections still overlap, each hit appended to `*pairs`.
// Returns the charged comparisons.
template <bool kTIsR>
uint64_t SweepScan(const Rect& t, uint32_t t_index, const RectColumns& seq,
                   size_t first, PairBuffer* pairs) {
  const size_t n = seq.size;
  uint64_t count = 0;
  for (size_t k = first; k < n; ++k) {
    ++count;
    if (seq.xl[k] > t.xu) break;
    ++count;
    if (t.yl > seq.yu[k]) continue;
    ++count;
    if (t.yu < seq.yl[k]) continue;
    pairs->push_back(SweepPair<kTIsR>(t_index, seq.index_at(k)));
  }
  return count;
}

#if RSJ_GEOM_SIMD
// The kSimd sweep's output: a fixed stage in the sweep's own frame. Every
// candidate pair of a scan is stored at the cursor, which then advances by
// the pair's hit bit, so the y tests take no branch; the stage goes to
// `*out` in order whenever a scan or a vector group might not fit, and at
// the end of the sweep.
class SweepStage {
 public:
  explicit SweepStage(PairBuffer* out) : out_(out) {}

  // Flushes unless `n` more candidates fit.
  void MakeRoom(size_t n) {
    if (kSize - fill_ < n) Flush();
  }

  // Stores a candidate at the cursor; keeps it when `hit` is 1.
  void Stage(std::pair<uint32_t, uint32_t> pair, uint32_t hit) {
    slot_[fill_] = StagedPair{pair.first, pair.second};
    fill_ += hit;
  }

  void Flush() {
    for (size_t k = 0; k < fill_; ++k) {
      out_->emplace_back(slot_[k].r, slot_[k].s);
    }
    fill_ = 0;
  }

 private:
  // Trivial, so the stage is not initialized on every sweep.
  struct StagedPair {
    uint32_t r;
    uint32_t s;
  };
  static constexpr size_t kSize = 256;

  std::array<StagedPair, kSize> slot_;
  size_t fill_ = 0;
  PairBuffer* out_;
};

// Stages the candidates seq[j, end) of `t`'s scan, all x survivors, with
// branch-free y tests. Returns the y comparisons: one per element plus one
// for each element passing the first y test.
template <bool kTIsR>
inline uint64_t StageYTests(const Rect& t, uint32_t t_index,
                            const RectColumns& seq, size_t j, size_t end,
                            SweepStage* stage) {
  uint64_t count = 0;
  for (; j < end; ++j) {
    const uint32_t pass1 = !(t.yl > seq.yu[j]);
    count += 1 + pass1;
    stage->Stage(SweepPair<kTIsR>(t_index, seq.index_at(j)),
                 pass1 & static_cast<uint32_t>(!(t.yu < seq.yl[j])));
  }
  return count;
}

// Vector stage of one long sweep scan (see the staged SweepScan). Returns
// the charged comparisons.
template <bool kTIsR>
[[gnu::noinline]] uint64_t SweepScanVector(const Rect& t, uint32_t t_index,
                                           const RectColumns& seq, size_t first,
                                           SweepStage* stage) {
  const size_t n = seq.size;
  // Stage 1 — the sequence-number range: find the break position `end`
  // (first element with xl > t.xu). The scalar loop charges one x
  // comparison per scanned element including the breaking one.
  const __m128 txu = _mm_set1_ps(t.xu);
  size_t end = n;
  size_t k = first;
  for (; k + 4 <= n; k += 4) {
    const int brk =
        _mm_movemask_ps(_mm_cmpgt_ps(_mm_loadu_ps(seq.xl + k), txu));
    if (brk != 0) {
      end = k + static_cast<size_t>(__builtin_ctz(static_cast<unsigned>(brk)));
      break;
    }
  }
  if (end == n) {
    for (; k < n; ++k) {
      if (seq.xl[k] > t.xu) {
        end = k;
        break;
      }
    }
  }
  uint64_t count = (end - first) + (end < n ? 1 : 0);

  // Stage 2 — y-overlap over the surviving range [first, end): one
  // comparison per element plus one more for each element passing the
  // first y test. Pass-1 survivors accumulate in an integer register (each
  // surviving lane is -1) — one horizontal sum, not a popcount per group.
  // Each group stages its four lanes after making room for them.
  const __m128 tyl = _mm_set1_ps(t.yl);
  const __m128 tyu = _mm_set1_ps(t.yu);
  const __m128i all = _mm_set1_epi32(-1);
  __m128i acc = _mm_setzero_si128();
  size_t j = first;
  for (; j + 4 <= end; j += 4) {
    // pass1: !(t.yl > yu[j]) ; hit: pass1 & !(yl[j] > t.yu)
    const __m128i pass1 = _mm_andnot_si128(
        _mm_castps_si128(_mm_cmpgt_ps(tyl, _mm_loadu_ps(seq.yu + j))), all);
    const __m128i fail2 =
        _mm_castps_si128(_mm_cmpgt_ps(_mm_loadu_ps(seq.yl + j), tyu));
    acc = _mm_sub_epi32(acc, pass1);
    const uint32_t hit = static_cast<uint32_t>(
        _mm_movemask_ps(_mm_castsi128_ps(_mm_andnot_si128(fail2, pass1))));
    stage->MakeRoom(4);
    for (uint32_t lane = 0; lane < 4; ++lane) {
      stage->Stage(SweepPair<kTIsR>(t_index, seq.index_at(j + lane)),
                   (hit >> lane) & 1);
    }
  }
  alignas(16) int32_t lanes[4];
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes), acc);
  count += (j - first) +
           static_cast<uint64_t>(lanes[0] + lanes[1] + lanes[2] + lanes[3]);
  stage->MakeRoom(4);
  return count + StageYTests<kTIsR>(t, t_index, seq, j, end, stage);
}

// One internal scan of the kSimd sweep: the scalar reference's scan with
// every candidate staged. Sweep scans are usually short (the x-overlapping
// run of a sorted node) and end at the first xl beyond t.xu — so peeking
// at the sixteenth element's xl bounds the scan length in one comparison.
// A shorter scan runs the x tests in a loop and stages its at most 15
// candidates with branch-free y tests; a longer one goes to the vector
// stage, whose broadcast setup would cost more than it saves on a short
// scan. Both charge the reference's count and keep its pair order, so the
// cutoff is invisible to the parity contract.
template <bool kTIsR>
inline uint64_t SweepScan(const Rect& t, uint32_t t_index,
                          const RectColumns& seq, size_t first,
                          SweepStage* stage) {
  const size_t n = seq.size;
  const Coord* xl = seq.xl;
  if (n - first >= 16 && !(xl[first + 15] > t.xu)) {
    return SweepScanVector<kTIsR>(t, t_index, seq, first, stage);
  }
  size_t end = first;
  while (end < n && !(xl[end] > t.xu)) ++end;
  stage->MakeRoom(16);  // at most 15 candidates: the sixteenth ends the scan
  return (end - first) + (end < n ? 1 : 0) +
         StageYTests<kTIsR>(t, t_index, seq, first, end, stage);
}
#endif

// The §4.2 two-pointer advance over two xl-sorted blocks; `out` is the
// scalar reference's pair buffer or the kSimd stage, which picks the scan.
// Returns the charged comparisons.
template <typename Out>
uint64_t SweepNodePair(const RectColumns& rseq, const RectColumns& sseq,
                       Out* out) {
  const size_t nr = rseq.size;
  const size_t ns = sseq.size;
  uint64_t count = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < nr && j < ns) {
    ++count;
    if (rseq.xl[i] < sseq.xl[j]) {
      count +=
          SweepScan<true>(rseq.RectAt(i), rseq.index_at(i), sseq, j, out);
      ++i;
    } else {
      count +=
          SweepScan<false>(sseq.RectAt(j), sseq.index_at(j), rseq, i, out);
      ++j;
    }
  }
  return count;
}

}  // namespace

const char* GeomKernelModeName(GeomKernelMode mode) {
  return mode == GeomKernelMode::kScalar ? "scalar" : "simd";
}

bool GeomSimdCompiledIn() { return RSJ_GEOM_SIMD != 0; }

GeomKernelMode ActiveGeomKernelMode() {
  return ModeSlot().load(std::memory_order_relaxed);
}

void SetGeomKernelMode(GeomKernelMode mode) {
  ModeSlot().store(mode, std::memory_order_relaxed);
}

size_t CountedOverlapHits(const RectColumns& block, const Rect& query,
                          OverlapSubject subject, ComparisonCounter* counter,
                          std::vector<uint32_t>* hits) {
  hits->clear();
  uint64_t count = 0;
  size_t i = 0;
#if RSJ_GEOM_SIMD
  if (UseSimd()) {
    count = OverlapGroupsSimd(
        block, query, subject,
        [hits](size_t base, int hit) {
          while (hit != 0) {
            const int lane = __builtin_ctz(static_cast<unsigned>(hit));
            hits->push_back(static_cast<uint32_t>(base + lane));
            hit &= hit - 1;
          }
        },
        &i);
  }
#endif
  counter->Add(count +
               AppendOverlapHitsScalar(block, query, subject, i, hits));
  return hits->size();
}

size_t CountedOverlapMark(const RectColumns& block, const Rect& query,
                          OverlapSubject subject, ComparisonCounter* counter,
                          RectBlock* marked) {
  const WritableRectColumns out = marked->Overwrite(block.size);
  size_t kept = 0;
  // Stores position i at the cursor, which advances by its hit bit.
  const auto keep = [&](size_t i, uint32_t hit) {
    out.xl[kept] = block.xl[i];
    out.yl[kept] = block.yl[i];
    out.xu[kept] = block.xu[i];
    out.yu[kept] = block.yu[i];
    out.index[kept] = block.index_at(i);
    kept += hit;
  };
  uint64_t count = 0;
  size_t i = 0;
#if RSJ_GEOM_SIMD
  if (UseSimd()) {
    count = OverlapGroupsSimd(
        block, query, subject,
        [&keep](size_t base, int hit) {
          for (uint32_t lane = 0; lane < 4; ++lane) {
            keep(base + lane, (static_cast<uint32_t>(hit) >> lane) & 1);
          }
        },
        &i);
  }
#endif
  for (; i < block.size; ++i) {
    bool hit = false;
    count += OverlapCountedOne(block, i, query, subject, &hit);
    keep(i, hit ? 1 : 0);
  }
  counter->Add(count);
  marked->Resize(kept);
  return kept;
}

size_t CountedWithinDistanceHits(const RectColumns& block, const Rect& query,
                                 double epsilon, ComparisonCounter* counter,
                                 std::vector<uint32_t>* hits) {
  hits->clear();
  const size_t n = block.size;
  const double eps2 = epsilon * epsilon;
  // The flat charge EvaluatePredicateCounted(kWithinDistance, ...) makes
  // per candidate pair, batch-independent by construction.
  counter->Add(5 * static_cast<uint64_t>(n));
  size_t i = 0;
#if RSJ_GEOM_SIMD
  if (UseSimd()) {
    // Two double lanes: Rect::MinDist2 computes in double precision, and
    // the branchy dx selection rewrites branch-free as
    //   dx = max(0, q.xl - b.xu, b.xl - q.xu)
    // (at most one difference is positive for valid rectangles, and the
    // chosen subtraction is the exact one the scalar code executes).
    const __m128d qxl = _mm_set1_pd(static_cast<double>(query.xl));
    const __m128d qyl = _mm_set1_pd(static_cast<double>(query.yl));
    const __m128d qxu = _mm_set1_pd(static_cast<double>(query.xu));
    const __m128d qyu = _mm_set1_pd(static_cast<double>(query.yu));
    const __m128d zero = _mm_setzero_pd();
    const __m128d bound = _mm_set1_pd(eps2);
    const auto load2 = [](const Coord* p) {
      // Exactly 8 bytes (2 floats) widened to 2 double lanes — no overread
      // on tail-adjacent groups.
      return _mm_cvtps_pd(
          _mm_castsi128_ps(_mm_loadl_epi64(
              reinterpret_cast<const __m128i*>(p))));
    };
    for (; i + 2 <= n; i += 2) {
      const __m128d bxl = load2(block.xl + i);
      const __m128d byl = load2(block.yl + i);
      const __m128d bxu = load2(block.xu + i);
      const __m128d byu = load2(block.yu + i);
      const __m128d dx = _mm_max_pd(
          zero, _mm_max_pd(_mm_sub_pd(qxl, bxu), _mm_sub_pd(bxl, qxu)));
      const __m128d dy = _mm_max_pd(
          zero, _mm_max_pd(_mm_sub_pd(qyl, byu), _mm_sub_pd(byl, qyu)));
      const __m128d dist = _mm_add_pd(_mm_mul_pd(dx, dx),
                                      _mm_mul_pd(dy, dy));
      int hit = _mm_movemask_pd(_mm_cmple_pd(dist, bound));
      while (hit != 0) {
        const int lane = __builtin_ctz(static_cast<unsigned>(hit));
        hits->push_back(static_cast<uint32_t>(i + lane));
        hit &= hit - 1;
      }
    }
  }
#endif
  for (; i < n; ++i) {
    if (block.RectAt(i).MinDist2(query) <= eps2) {
      hits->push_back(static_cast<uint32_t>(i));
    }
  }
  return hits->size();
}

void SortedIntersectionTestBlocks(const RectColumns& rseq,
                                  const RectColumns& sseq,
                                  ComparisonCounter* counter,
                                  PairBuffer* pairs) {
#if RSJ_GEOM_SIMD
  if (UseSimd()) {
    SweepStage stage(pairs);
    counter->Add(SweepNodePair(rseq, sseq, &stage));
    stage.Flush();
    return;
  }
#endif
  counter->Add(SweepNodePair(rseq, sseq, pairs));
}

}  // namespace rsj
