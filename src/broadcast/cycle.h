#ifndef AIRINDEX_BROADCAST_CYCLE_H_
#define AIRINDEX_BROADCAST_CYCLE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "broadcast/packet.h"
#include "common/result.h"

namespace airindex::broadcast {

/// One contiguous block of the broadcast cycle with a single payload,
/// occupying ceil(payload / kPayloadSize) packets.
struct Segment {
  SegmentType type = SegmentType::kNetworkData;
  uint32_t id = 0;
  /// Index segments are what packet headers point to ("next index").
  bool is_index = false;
  std::vector<uint8_t> payload;

  uint32_t PacketCount() const { return PayloadPackets(payload.size()); }
};

/// What a cycle's kNetworkData segments carry: bare node-record blobs (the
/// full-cycle methods) or §4.1 region payloads, a border list ahead of the
/// records (EB, NR; core/region_data.h).
enum class DataLayout : uint8_t { kRecords, kRegion };

/// An immutable, fully laid-out broadcast cycle: the server's program that
/// repeats forever on the channel (Fig. 1). Built once by a method's server
/// via CycleBuilder; the channel serves PacketView's out of it. The cycle
/// states its own data format, fixed by the server that built it: every
/// reader of its network data (clients, the schedule planner) asks the
/// cycle instead of being told.
class BroadcastCycle {
 public:
  /// Wire encoding of every record the cycle carries.
  CycleEncoding encoding() const { return encoding_; }
  /// What the kNetworkData segments hold.
  DataLayout data_layout() const { return data_layout_; }

  uint32_t total_packets() const { return total_packets_; }
  size_t num_segments() const { return segments_.size(); }

  const Segment& segment(size_t i) const { return segments_[i]; }

  /// First packet position of segment `i`.
  uint32_t SegmentStart(size_t i) const { return starts_[i]; }

  /// Segment ordinal covering cycle position `pos`.
  uint32_t SegmentAt(uint32_t pos) const;

  /// Materializes the packet at `pos` (no copying; chunk points into the
  /// segment payload).
  PacketView PacketAt(uint32_t pos) const;

  /// Position of the first packet of the next index segment at or after
  /// `pos` (cyclic). Returns `pos` itself if an index segment starts there;
  /// from inside an index segment it points at the next copy (the same
  /// segment's start when it is the only one). A cycle with no index
  /// segment returns `pos`. O(1) past the SegmentAt lookup.
  uint32_t NextIndexStart(uint32_t pos) const;

  /// Total serialized bytes (for reporting).
  size_t TotalPayloadBytes() const;

 private:
  friend class CycleBuilder;

  /// next_index_[i] value of a cycle without index segments.
  static constexpr uint32_t kNoIndex = UINT32_MAX;

  /// NextIndexStart for a `pos` already known to lie in segment `si`.
  uint32_t NextIndexStartIn(uint32_t si, uint32_t pos) const;

  std::vector<Segment> segments_;
  std::vector<uint32_t> starts_;  // per segment, plus sentinel
  /// Per segment: start of the first index segment after it in cyclic
  /// order (an only index segment's own start, reached by wrapping round);
  /// kNoIndex when the cycle has none. Filled by CycleBuilder::Finalize.
  std::vector<uint32_t> next_index_;
  uint32_t total_packets_ = 0;
  CycleEncoding encoding_ = CycleEncoding::kLegacy;
  DataLayout data_layout_ = DataLayout::kRecords;
};

/// Accumulates segments and lays the cycle out, stamped with the data
/// format the segments were encoded in.
class CycleBuilder {
 public:
  explicit CycleBuilder(CycleEncoding encoding = CycleEncoding::kLegacy,
                        DataLayout data_layout = DataLayout::kRecords)
      : encoding_(encoding), data_layout_(data_layout) {}

  CycleEncoding encoding() const { return encoding_; }

  /// Appends a segment.
  void Add(Segment segment) { segments_.push_back(std::move(segment)); }

  /// Lays out the cycle. Fails if empty or if no index segment exists while
  /// `require_index` (headers could not be populated).
  Result<BroadcastCycle> Finalize(bool require_index = true) &&;

 private:
  std::vector<Segment> segments_;
  CycleEncoding encoding_;
  DataLayout data_layout_;
};

}  // namespace airindex::broadcast

#endif  // AIRINDEX_BROADCAST_CYCLE_H_
