#ifndef AIRINDEX_CORE_EB_INDEX_H_
#define AIRINDEX_CORE_EB_INDEX_H_

#include <cstdint>
#include <utility>
#include <span>
#include <vector>

#include "common/result.h"
#include "graph/types.h"

namespace airindex::core {

/// The global index of the Elliptic Boundary method (§4.1), serialized into
/// every index copy of the EB cycle:
///
///   EbIndexPayload :=
///     num_regions:u16  num_nodes:u32                     -- header
///     { split:f64 }^(R-1)                                -- component 1
///     A matrix, (min:u32 max:u32) per ordered pair,      -- component 2
///       packed in kBlockW x kBlockW squares (§6.2: a square intersects the
///       fewest rows/columns among equal-area rectangles, minimizing the
///       chance a lost packet hits the needed row/column)
///     { cross_start:u32 cross_packets:u32                -- component 3
///       local_start:u32 local_packets:u32 }^R               (the paper's
///       appended "offset column", extended with the cross/local split)
///     copy_count:u16 { copy_start:u32 }^copy_count       -- (1,m) copies
///
/// The copy-start list is how a client that lost index packets re-listens
/// to just those packets at the *next* copy instead of waiting a whole
/// cycle (§6.2). u32 distances saturate at 0xFFFFFFFE; 0xFFFFFFFF encodes
/// "no border pair" (kInfDist).
class EbIndex {
 public:
  /// Side of the square cell blocks A is packed into.
  static constexpr uint32_t kBlockW = 3;
  static constexpr uint32_t kInfU32 = 0xFFFFFFFFu;

  struct RegionDir {
    uint32_t cross_start = 0;
    uint32_t cross_packets = 0;
    uint32_t local_start = 0;
    uint32_t local_packets = 0;
  };

  uint32_t num_regions = 0;
  uint32_t num_nodes = 0;
  std::vector<double> splits;
  /// Row-major decoded matrices (kInfDist where absent).
  std::vector<graph::Dist> min_rr;
  std::vector<graph::Dist> max_rr;
  std::vector<RegionDir> dir;
  /// Cycle positions of every index copy, ascending.
  std::vector<uint32_t> copy_starts;

  graph::Dist MinDist(graph::RegionId i, graph::RegionId j) const {
    return min_rr[static_cast<size_t>(i) * num_regions + j];
  }
  graph::Dist MaxDist(graph::RegionId i, graph::RegionId j) const {
    return max_rr[static_cast<size_t>(i) * num_regions + j];
  }

  std::vector<uint8_t> Encode() const;
  /// Decodes into an existing index, reusing its vector capacity (the
  /// allocation-free client path). `*out` is unspecified on failure.
  static Status Decode(std::span<const uint8_t> payload, EbIndex* out);

  /// The parts of Decode a client reads before every byte it needs has
  /// arrived: the header and kd splits (to map its endpoints to regions),
  /// and the copy-start list (to repair from the nearest copy). Each
  /// returns false where Decode fails, and fills only its own fields of
  /// `*out`. They allocate nothing once `*out` has held an index, the
  /// failure included: a client calls them on payloads with holes.
  static bool DecodeSplits(std::span<const uint8_t> payload, EbIndex* out);
  static bool DecodeCopyStarts(std::span<const uint8_t> payload,
                               EbIndex* out);

  /// Serialized size for a given region and copy count (fixed-width
  /// layout).
  static size_t EncodedBytes(uint32_t num_regions, uint32_t num_copies);

  /// Byte offset of cell (i, j) inside the serialized matrix area,
  /// relative to the payload start.
  static size_t CellByteOffset(uint32_t num_regions, graph::RegionId i,
                               graph::RegionId j);

  /// Byte ranges of the payload a client with source region `rs` and
  /// destination region `rt` must have intact: header + splits, the
  /// directory, row `rs` and column `rt` of the matrix (§6.2). Overwrites
  /// `*out`, reusing its capacity.
  static void NeededByteRanges(uint32_t num_regions, graph::RegionId rs,
                               graph::RegionId rt,
                               std::vector<std::pair<size_t, size_t>>* out);

 private:
  static size_t HeaderBytes(uint32_t num_regions) {
    return 6 + (static_cast<size_t>(num_regions) - 1) * 8;
  }
  static size_t MatrixBytes(uint32_t num_regions) {
    return static_cast<size_t>(num_regions) * num_regions * 8;
  }
  /// The region count the payload's header names, or 0 when it names
  /// fewer than two or more than the payload holds the header, matrix and
  /// directory of (every decode fails there).
  static uint32_t CheckedRegions(std::span<const uint8_t> payload);
};

}  // namespace airindex::core

#endif  // AIRINDEX_CORE_EB_INDEX_H_
