#ifndef AIRINDEX_CORE_NR_INDEX_H_
#define AIRINDEX_CORE_NR_INDEX_H_

#include <cstdint>
#include <utility>
#include <span>
#include <vector>

#include "common/result.h"
#include "graph/types.h"

namespace airindex::core {

/// One local index A^m of the Next Region method (§5.1), broadcast
/// immediately before region R_m's data:
///
///   NrIndexPayload :=
///     num_regions:u16  num_nodes:u32  region_id:u16     -- header
///     { split:f64 }^(R-1)                               -- first component
///     { next_region:u8 }^(R*R)                          -- A^m, row-major:
///         entry [rs][rt] = the next region in the broadcast cycle (at or
///         after R_m, cyclically) needed for a shortest path rs -> rt
///     { cross_start:u32 cross_packets:u16               -- region data
///       local_packets:u16 }^R                              geometry
///
/// Region data follows EB's cross-border/local split (§4.1): each region is
/// broadcast as a cross-border segment at `cross_start` followed by a local
/// segment (`local_packets` may be 0), followed by the next local index.
/// The client receives only the cross segment of intermediate regions.
/// Region ids fit u8, so NR supports up to 256 regions (the paper tunes at
/// most 128).
class NrIndex {
 public:
  struct RegionGeometry {
    uint32_t cross_start = 0;
    uint16_t cross_packets = 0;
    uint16_t local_packets = 0;
  };

  uint32_t num_regions = 0;
  uint32_t num_nodes = 0;
  uint32_t region_id = 0;
  std::vector<double> splits;
  /// Row-major R x R next-region table.
  std::vector<uint8_t> next_region;
  std::vector<RegionGeometry> geometry;

  uint8_t Next(graph::RegionId rs, graph::RegionId rt) const {
    return next_region[static_cast<size_t>(rs) * num_regions + rt];
  }

  std::vector<uint8_t> Encode() const;
  /// Decodes into an existing index, reusing its vector capacity (the
  /// allocation-free client path). `*out` is unspecified on failure.
  static Status Decode(std::span<const uint8_t> payload, NrIndex* out);

  static size_t EncodedBytes(uint32_t num_regions);

  /// Byte range of the header + splits (needed to locate Rs/Rt).
  static std::pair<size_t, size_t> SplitsRange(uint32_t num_regions);
  /// Byte range of the single table cell [rs][rt] (§6.2: NR needs one value
  /// per local index, so a lost packet rarely matters).
  static std::pair<size_t, size_t> CellRange(uint32_t num_regions,
                                             graph::RegionId rs,
                                             graph::RegionId rt);
  /// Byte range of the geometry entry of region `r`.
  static std::pair<size_t, size_t> PositionRange(uint32_t num_regions,
                                                 graph::RegionId r);

 private:
  static size_t HeaderBytes(uint32_t num_regions) {
    return 8 + (static_cast<size_t>(num_regions) - 1) * 8;
  }
};

}  // namespace airindex::core

#endif  // AIRINDEX_CORE_NR_INDEX_H_
