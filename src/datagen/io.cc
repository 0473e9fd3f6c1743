#include "datagen/io.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "geom/segment.h"

namespace rsj {

namespace {

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

// The magnitude from which a cast to Coord overflows to infinity: FLT_MAX
// plus half a unit in its last place (2^128 - 2^103). FLT_MAX written
// with %.9g (3.40282347e+38) reads back above FLT_MAX and below this.
constexpr double kCoordOverflow = 0x1.ffffffp127;

// True when `v` is finite and its cast to Coord is a finite float.
bool FitsCoord(double v) { return std::fabs(v) < kCoordOverflow; }

// Reads the next row whole, whatever its length, into `*line` with its
// newline (none on a last row without one). False at the end of the file.
bool ReadRow(std::FILE* in, std::string* line) {
  line->clear();
  char chunk[4096];
  while (std::fgets(chunk, sizeof(chunk), in) != nullptr) {
    line->append(chunk);
    if (!line->empty() && line->back() == '\n') return true;
  }
  return !line->empty();
}

}  // namespace

bool WriteDatasetCsv(const Dataset& dataset, const std::string& path,
                     bool with_geometry) {
  FilePtr out(std::fopen(path.c_str(), "w"));
  if (out == nullptr) return false;
  std::fprintf(out.get(), "# rsj dataset: %s\n", dataset.name.c_str());
  for (const SpatialObject& o : dataset.objects) {
    std::fprintf(out.get(), "%u,%.9g,%.9g,%.9g,%.9g", o.id,
                 static_cast<double>(o.mbr.xl), static_cast<double>(o.mbr.yl),
                 static_cast<double>(o.mbr.xu),
                 static_cast<double>(o.mbr.yu));
    if (with_geometry && !o.chain.empty()) {
      std::fputc(',', out.get());
      for (size_t i = 0; i < o.chain.size(); ++i) {
        std::fprintf(out.get(), "%s%.9g %.9g", i > 0 ? " " : "",
                     static_cast<double>(o.chain[i].x),
                     static_cast<double>(o.chain[i].y));
      }
    }
    std::fputc('\n', out.get());
  }
  return std::fflush(out.get()) == 0;
}

std::optional<Dataset> ReadDatasetCsv(const std::string& path) {
  FilePtr in(std::fopen(path.c_str(), "r"));
  if (in == nullptr) return std::nullopt;

  Dataset dataset;
  dataset.name = "csv";
  Rect universe = Rect::Empty();
  std::string row;
  while (ReadRow(in.get(), &row)) {
    const char* line = row.c_str();
    if (line[0] == '#') {
      // Header comment carries the dataset name.
      const char* colon = std::strchr(line, ':');
      if (colon != nullptr) {
        std::string name(colon + 1);
        while (!name.empty() && (name.back() == '\n' || name.back() == ' ')) {
          name.pop_back();
        }
        size_t start = 0;
        while (start < name.size() && name[start] == ' ') ++start;
        dataset.name = name.substr(start);
      }
      continue;
    }
    if (line[0] == '\n' || line[0] == '\0') continue;

    SpatialObject o;
    double xl = 0.0;
    double yl = 0.0;
    double xu = 0.0;
    double yu = 0.0;
    int consumed = 0;
    if (std::sscanf(line, "%u,%lf,%lf,%lf,%lf%n", &o.id, &xl, &yl, &xu, &yu,
                    &consumed) != 5) {
      return std::nullopt;  // malformed row
    }
    if (!FitsCoord(xl) || !FitsCoord(yl) || !FitsCoord(xu) || !FitsCoord(yu)) {
      return std::nullopt;
    }
    o.mbr = Rect{static_cast<Coord>(xl), static_cast<Coord>(yl),
                 static_cast<Coord>(xu), static_cast<Coord>(yu)};
    if (!o.mbr.IsValid()) return std::nullopt;

    const char* cursor = line + consumed;
    if (*cursor == ',') {
      ++cursor;
      double x = 0.0;
      double y = 0.0;
      int n = 0;
      while (std::sscanf(cursor, "%lf %lf%n", &x, &y, &n) == 2) {
        if (!FitsCoord(x) || !FitsCoord(y)) return std::nullopt;
        o.chain.push_back(
            Point{static_cast<Coord>(x), static_cast<Coord>(y)});
        cursor += n;
      }
      if (o.chain.empty()) return std::nullopt;
      // The stored MBR must be consistent with the geometry.
      if (!(PolylineMbr(o.chain) == o.mbr)) return std::nullopt;
    }
    universe.ExpandToInclude(o.mbr);
    dataset.objects.push_back(std::move(o));
  }
  if (!dataset.objects.empty()) dataset.universe = universe;
  return dataset;
}

}  // namespace rsj
