// Dataset interchange: CSV import/export.
//
// A downstream user will want to run the joins on their own data; the CSV
// schema is one object per line:
//
//     id,xl,yl,xu,yu[,x1 y1 x2 y2 ...]
//
// with the optional trailing field holding the exact polyline vertices
// (space separated coordinate pairs). Every coordinate must be finite and
// within float range, since coordinates are stored as floats: a value
// whose magnitude rounds above FLT_MAX is rejected. Import rejects any
// other, and recomputes and verifies the MBR when geometry is present.

#ifndef RSJ_DATAGEN_IO_H_
#define RSJ_DATAGEN_IO_H_

#include <optional>
#include <string>

#include "datagen/dataset.h"

namespace rsj {

// Writes `dataset` to `path`. `with_geometry` includes the vertex chains.
// Returns false on I/O failure.
bool WriteDatasetCsv(const Dataset& dataset, const std::string& path,
                     bool with_geometry = true);

// Reads a dataset written by WriteDatasetCsv (or hand-made in the same
// schema). Returns std::nullopt on missing file or malformed content: a
// bad row, an inverted MBR, a coordinate that is not finite or exceeds
// float range, or an MBR that does not bound its vertices.
std::optional<Dataset> ReadDatasetCsv(const std::string& path);

}  // namespace rsj

#endif  // RSJ_DATAGEN_IO_H_
