#ifndef AIRINDEX_BROADCAST_PACKET_H_
#define AIRINDEX_BROADCAST_PACKET_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace airindex::broadcast {

/// Fixed packet size used throughout the paper's evaluation (§7).
inline constexpr size_t kPacketSize = 128;
/// Every packet carries an 8-byte header: a 4-byte pointer (offset in
/// packets) to the next index segment in the cycle — the paper requires
/// "every packet, regardless of its contents, includes a pointer to the next
/// copy of the index" — plus type and intra-segment sequence fields.
inline constexpr size_t kHeaderSize = 8;
inline constexpr size_t kPayloadSize = kPacketSize - kHeaderSize;

/// Packets a segment of `bytes` payload bytes occupies: ceil(bytes /
/// kPayloadSize), and one for an empty payload.
inline constexpr uint32_t PayloadPackets(size_t bytes) {
  return bytes == 0 ? 1
                    : static_cast<uint32_t>((bytes + kPayloadSize - 1) /
                                            kPayloadSize);
}

/// Version of the cycle wire format: packet framing, segment layout and
/// every payload encoding. Bump it with any change that alters the bytes a
/// system broadcasts for the same network and knobs, so the change shows
/// up as a named version step (the golden corpus in tests/golden/ stamps
/// every file with it) rather than as an unexplained diff.
inline constexpr uint32_t kCycleFormatVersion = 1;

/// Which wire format a broadcast cycle's payloads use (the layouts are
/// documented in broadcast/serialization.h).
enum class CycleEncoding : uint8_t {
  kLegacy = 0,
  kCompact = 1,
};

/// What a packet's payload belongs to. The broadcast cycle is a sequence of
/// *segments*, each packetized separately (a packet never mixes segments —
/// this is also how the paper separates adjacency data from pre-computed
/// data for loss resilience, §6.2).
enum class SegmentType : uint8_t {
  /// Adjacency records (network data). `segment_id` = region id for
  /// region-ordered cycles, 0 for monolithic ones.
  kNetworkData = 0,
  /// A global index copy (EB; also the kd splits of the first component).
  kGlobalIndex = 1,
  /// A per-region local index A^m (NR). `segment_id` = region id m.
  kLocalIndex = 2,
  /// Pre-computed per-node/per-arc payload of a baseline (LD vectors, AF
  /// flags, SPQ quadtrees, HiTi tables).
  kAuxData = 3,
};

/// A received packet as seen by the client: which segment it belongs to,
/// which chunk of that segment's payload it carries, and the header fields.
struct PacketView {
  /// Absolute position within the cycle, [0, cycle packets).
  uint32_t cycle_pos = 0;
  SegmentType type = SegmentType::kNetworkData;
  /// Meaning depends on type (region id, index copy ordinal, ...).
  uint32_t segment_id = 0;
  /// Ordinal of this segment in the cycle's segment list.
  uint32_t segment_index = 0;
  /// This packet is the `seq`-th of `segment_packets` packets of the
  /// segment.
  uint32_t seq = 0;
  uint32_t segment_packets = 0;
  /// Payload chunk carried by this packet.
  std::span<const uint8_t> chunk;
  /// Header pointer: packets from this one to the start of the next index
  /// segment (cyclic; 0 = this packet starts an index segment). In a cycle
  /// with no index segment (the full-cycle methods) it is 0 on every packet.
  uint32_t next_index_offset = 0;
};

}  // namespace airindex::broadcast

#endif  // AIRINDEX_BROADCAST_PACKET_H_
