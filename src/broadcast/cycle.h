#ifndef AIRINDEX_BROADCAST_CYCLE_H_
#define AIRINDEX_BROADCAST_CYCLE_H_

#include <cstdint>
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

/// An immutable, fully laid-out broadcast cycle: the server's program that
/// repeats forever on the channel (Fig. 1). Built once by a method's server
/// via CycleBuilder; the channel serves PacketView's out of it.
class BroadcastCycle {
 public:
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
};

/// Accumulates segments and lays the cycle out.
class CycleBuilder {
 public:
  /// Appends a segment; returns its ordinal.
  uint32_t Add(Segment segment);

  /// Number of packets the segments added so far will occupy.
  uint32_t PacketsSoFar() const { return packets_; }
  size_t num_segments() const { return segments_.size(); }

  /// Lays out the cycle. Fails if empty or if no index segment exists while
  /// `require_index` (headers could not be populated).
  Result<BroadcastCycle> Finalize(bool require_index = true) &&;

 private:
  std::vector<Segment> segments_;
  uint32_t packets_ = 0;
};

}  // namespace airindex::broadcast

#endif  // AIRINDEX_BROADCAST_CYCLE_H_
