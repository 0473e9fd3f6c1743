// Shared infrastructure for the benchmarks: flag parsing, tree
// construction, and table formatting.
//
// Every bench binary accepts `--scale=<f>` (or env RSJ_BENCH_SCALE) to run
// the paper's workloads at reduced cardinality for quick smoke runs; the
// default is full scale (1.0), matching the paper's 131k/129k/599k relations.
// An argument that is none of the bench's flags stops it with status 2.

#ifndef RSJ_BENCH_BENCH_COMMON_H_
#define RSJ_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "rsj.h"

namespace rsj {
namespace bench {

// The command line of one bench: every argument is --<name>=<value> for
// one of the bench's flags, and the last occurrence of a flag wins.
class Flags {
 public:
  // `names` are the bench's flags besides --scale, which every bench
  // takes. An argument that matches none of them exits the process with
  // status 2 and a message naming the argument.
  Flags(int argc, char** argv, std::initializer_list<const char*> names = {});

  // --scale=<f> or, without the flag, RSJ_BENCH_SCALE from the
  // environment; 1.0 (full paper scale) when neither is set. An
  // unparsable value or one outside (0, 1] exits the process with status
  // 2 and a message naming the value.
  double Scale() const;

  // The value of --<name>=<value>; `def` when the flag is absent. Used
  // for output paths like --trace=<file>.
  std::string String(const std::string& name,
                     const std::string& def = "") const;

 private:
  std::map<std::string, std::string> values_;
};

// An indexed relation pair (R, S) over one page size.
struct TreePair {
  std::unique_ptr<PagedFile> file_r;
  std::unique_ptr<PagedFile> file_s;
  std::unique_ptr<RTree> r;
  std::unique_ptr<RTree> s;
};

// Builds both trees, in parallel, by insertion (the paper's construction).
TreePair BuildTreePair(const Dataset& r, const Dataset& s,
                       uint32_t page_size);

// --- formatting helpers ---

// JSON object fragment (no surrounding braces) with the I/O, prefetch and
// modeled-time counters of `stats`; appended to every bench's JSON lines
// so the async-I/O metrics are scrapeable everywhere.
std::string IoCountersJson(const Statistics& stats);

// JSON object fragment (no surrounding braces) with the refinement view
// of a run: candidate/result cardinalities, the refinement selectivity,
// and the raster-tier (ri_*) counters of `stats` — zeros on exact-only
// runs, so the schema is uniform across tiers.
std::string RefinementJson(uint64_t candidates, uint64_t results,
                           const Statistics& stats);

// 12-char right-aligned integer with thousands separators.
std::string Num(uint64_t value);

// Fixed two-decimal number.
std::string Dbl(double value, int precision = 2);

// Prints the bench banner: experiment name, scale, seed provenance.
void PrintBanner(const char* experiment, const char* paper_ref, double scale);

// Prints one table row: a label followed by cells.
void PrintRow(const std::string& label, const std::vector<std::string>& cells,
              int label_width = 22, int cell_width = 12);

}  // namespace bench
}  // namespace rsj

#endif  // RSJ_BENCH_BENCH_COMMON_H_
