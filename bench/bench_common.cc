#include "bench/bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

namespace rsj {
namespace bench {

Flags::Flags(int argc, char** argv,
             std::initializer_list<const char*> names) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string name =
        arg.rfind("--", 0) == 0 && eq != std::string::npos
            ? arg.substr(2, eq - 2)
            : std::string();
    bool known = name == "scale";
    for (const char* flag : names) known = known || name == flag;
    if (!known) {
      std::fprintf(stderr, "unknown argument '%s': expected --scale=<f>",
                   argv[i]);
      for (const char* flag : names) {
        std::fprintf(stderr, ", --%s=<value>", flag);
      }
      std::fprintf(stderr, "\n");
      std::exit(2);
    }
    values_[name] = arg.substr(eq + 1);
  }
}

double Flags::Scale() const {
  const char* source = "--scale";
  const auto it = values_.find("scale");
  const char* text = it != values_.end() ? it->second.c_str() : nullptr;
  if (text == nullptr) {
    text = std::getenv("RSJ_BENCH_SCALE");
    if (text == nullptr) return 1.0;
    source = "RSJ_BENCH_SCALE";
  }
  char* end = nullptr;
  const double scale = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(scale > 0.0 && scale <= 1.0)) {
    std::fprintf(stderr, "invalid %s '%s': expected a number in (0, 1]\n",
                 source, text);
    std::exit(2);
  }
  return scale;
}

std::string Flags::String(const std::string& name,
                          const std::string& def) const {
  const auto it = values_.find(name);
  return it != values_.end() ? it->second : def;
}

TreePair BuildTreePair(const Dataset& r, const Dataset& s,
                       uint32_t page_size) {
  TreePair pair;
  pair.file_r = std::make_unique<PagedFile>(page_size);
  pair.file_s = std::make_unique<PagedFile>(page_size);
  RTreeOptions options;
  options.page_size = page_size;
  std::thread r_builder([&]() {
    pair.r = std::make_unique<RTree>(
        BuildRTree(pair.file_r.get(), r.Mbrs(), options));
  });
  pair.s = std::make_unique<RTree>(
      BuildRTree(pair.file_s.get(), s.Mbrs(), options));
  r_builder.join();
  return pair;
}

std::string IoCountersJson(const Statistics& stats) {
  char buf[320];
  std::snprintf(
      buf, sizeof(buf),
      "\"disk_reads\":%llu,\"buffer_hits\":%llu,\"prefetch_issued\":%llu,"
      "\"prefetch_hits\":%llu,\"prefetch_wasted\":%llu,"
      "\"modeled_io_micros\":%llu",
      static_cast<unsigned long long>(stats.disk_reads),
      static_cast<unsigned long long>(stats.buffer_hits),
      static_cast<unsigned long long>(stats.prefetch_issued),
      static_cast<unsigned long long>(stats.prefetch_hits),
      static_cast<unsigned long long>(stats.prefetch_wasted),
      static_cast<unsigned long long>(stats.modeled_io_micros));
  return std::string(buf);
}

std::string RefinementJson(uint64_t candidates, uint64_t results,
                           const Statistics& stats) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "\"candidates\":%llu,\"results\":%llu,\"selectivity\":%.6f,"
      "\"ri_signatures_built\":%llu,\"ri_signature_bytes\":%llu,"
      "\"ri_true_hits\":%llu,\"ri_rejects\":%llu,\"ri_inconclusive\":%llu,"
      "\"ri_exact_tests_avoided\":%llu",
      static_cast<unsigned long long>(candidates),
      static_cast<unsigned long long>(results),
      candidates == 0 ? 0.0
                      : static_cast<double>(results) /
                            static_cast<double>(candidates),
      static_cast<unsigned long long>(stats.ri_signatures_built),
      static_cast<unsigned long long>(stats.ri_signature_bytes),
      static_cast<unsigned long long>(stats.ri_true_hits),
      static_cast<unsigned long long>(stats.ri_rejects),
      static_cast<unsigned long long>(stats.ri_inconclusive),
      static_cast<unsigned long long>(stats.ri_exact_tests_avoided));
  return std::string(buf);
}

std::string Num(uint64_t value) {
  char digits[32];
  std::snprintf(digits, sizeof(digits), "%llu",
                static_cast<unsigned long long>(value));
  std::string with_sep;
  const size_t len = std::strlen(digits);
  for (size_t i = 0; i < len; ++i) {
    if (i > 0 && (len - i) % 3 == 0) with_sep.push_back(',');
    with_sep.push_back(digits[i]);
  }
  return with_sep;
}

std::string Dbl(double value, int precision) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return std::string(buf);
}

void PrintBanner(const char* experiment, const char* paper_ref,
                 double scale) {
  std::printf("=================================================================\n");
  std::printf("%s\n", experiment);
  std::printf("reproduces: %s  (Brinkhoff/Kriegel/Seeger, SIGMOD '93)\n",
              paper_ref);
  std::printf("workload scale: %.3f%s\n", scale,
              scale == 1.0 ? " (paper cardinalities)" : "");
  std::printf("=================================================================\n");
}

void PrintRow(const std::string& label, const std::vector<std::string>& cells,
              int label_width, int cell_width) {
  std::printf("%-*s", label_width, label.c_str());
  for (const std::string& cell : cells) {
    std::printf("%*s", cell_width, cell.c_str());
  }
  std::printf("\n");
}

}  // namespace bench
}  // namespace rsj
