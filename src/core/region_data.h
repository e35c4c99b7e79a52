#ifndef AIRINDEX_CORE_REGION_DATA_H_
#define AIRINDEX_CORE_REGION_DATA_H_

#include <cstdint>
#include <span>
#include <vector>

#include "broadcast/serialization.h"
#include "common/result.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace airindex::core {

/// Wire format of one region's data segment (EB cross-border / local
/// segments, NR region segments):
///
///   RegionPayload := border_count:u16 { border_id:u32 }^border_count
///                    NodeRecord*
///
/// The border list lets clients identify the region's border nodes exactly
/// (needed by the §6.1 super-edge processing) without guessing from
/// adjacency; local segments carry border_count = 0.
struct RegionData {
  std::vector<graph::NodeId> border;
  std::vector<broadcast::NodeRecord> records;
};

/// Encodes `nodes`' records (ascending as given) preceded by the border
/// list. The border header is always fixed-width; `encoding` selects the
/// record-area format (a kCompact record area carries its version byte).
std::vector<uint8_t> EncodeRegionData(
    const graph::Graph& g, const std::vector<graph::NodeId>& border,
    const std::vector<graph::NodeId>& nodes,
    broadcast::CycleEncoding encoding = broadcast::CycleEncoding::kLegacy);

/// Decodes a region payload. Fails on truncation.
Result<RegionData> DecodeRegionData(
    std::span<const uint8_t> payload,
    broadcast::CycleEncoding encoding = broadcast::CycleEncoding::kLegacy);

/// Checks a region payload is well-formed (the exact checks
/// DecodeRegionData applies) without materializing it.
Status ValidateRegionData(
    std::span<const uint8_t> payload,
    broadcast::CycleEncoding encoding = broadcast::CycleEncoding::kLegacy);

/// Zero-copy view over a *validated* region payload: the border list read
/// in place and a streaming cursor over the node records. The allocation-
/// free ingest path of the EB/NR clients validates first, then streams
/// records straight into the pooled PartialGraph.
class RegionDataView {
 public:
  /// `payload` must outlive the view and have passed ValidateRegionData
  /// with the same `encoding`.
  explicit RegionDataView(
      std::span<const uint8_t> payload,
      broadcast::CycleEncoding encoding = broadcast::CycleEncoding::kLegacy);

  size_t border_count() const { return border_count_; }
  graph::NodeId BorderAt(size_t i) const;

  /// Cursor over the record area (fresh cursor per call).
  broadcast::NodeRecordCursor records() const;

 private:
  const uint8_t* data_;
  size_t size_;
  broadcast::CycleEncoding encoding_;
  size_t border_count_;
};

}  // namespace airindex::core

#endif  // AIRINDEX_CORE_REGION_DATA_H_
