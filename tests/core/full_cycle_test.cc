#include "core/full_cycle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/systems.h"
#include "graph/catalog.h"

namespace airindex::core {
namespace {

using broadcast::BroadcastChannel;
using broadcast::BroadcastCycle;
using broadcast::ClientSession;
using broadcast::CycleBuilder;
using broadcast::ReceivedSegment;
using broadcast::Segment;
using broadcast::SegmentType;

BroadcastCycle MakeCycle() {
  CycleBuilder b;
  for (uint32_t i = 0; i < 4; ++i) {
    Segment s;
    s.type = i < 2 ? SegmentType::kNetworkData : SegmentType::kAuxData;
    s.id = i;
    s.payload.assign(700 + i * 100, static_cast<uint8_t>(i + 1));
    b.Add(std::move(s));
  }
  return std::move(b).Finalize(false).value();
}

TEST(FullCycleTest, DeliversEverySegmentOnce) {
  BroadcastCycle cycle = MakeCycle();
  BroadcastChannel channel(&cycle, 0.0);
  ClientSession session(&channel, 3);  // tune in mid-cycle
  device::MemoryTracker mem;
  FullCycleScratch scratch;
  std::map<uint32_t, ReceivedSegment> got;
  Status st = ReceiveFullCycle(
      session, mem, [](const broadcast::ReceivedSegment&) { return true; },
      [&](const ReceivedSegment& seg) {
        EXPECT_TRUE(got.emplace(seg.segment_index, seg).second);
      },
      4, scratch);
  ASSERT_TRUE(st.ok());
  ASSERT_EQ(got.size(), 4u);
  for (auto& [si, seg] : got) {
    EXPECT_TRUE(seg.complete);
    for (uint8_t byte : seg.payload) {
      EXPECT_EQ(byte, static_cast<uint8_t>(seg.segment_id + 1));
    }
  }
  EXPECT_EQ(session.tuned_packets(), cycle.total_packets());
}

TEST(FullCycleTest, RepairsLostDataSegments) {
  BroadcastCycle cycle = MakeCycle();
  BroadcastChannel channel(&cycle, 0.2, 77);
  ClientSession session(&channel, 0);
  device::MemoryTracker mem;
  FullCycleScratch scratch;
  std::map<uint32_t, ReceivedSegment> got;
  Status st = ReceiveFullCycle(
      session, mem, [](const broadcast::ReceivedSegment& s) { return s.type == SegmentType::kNetworkData; },
      [&](const ReceivedSegment& seg) {
        got.emplace(seg.segment_index, seg);
      },
      16, scratch);
  ASSERT_TRUE(st.ok());
  for (auto& [si, seg] : got) {
    if (seg.type == SegmentType::kNetworkData) {
      EXPECT_TRUE(seg.complete) << si;
    }
  }
  // Loss forces extra listening beyond one cycle.
  EXPECT_GT(session.tuned_packets(), cycle.total_packets());
}

TEST(FullCycleTest, NonRepairableSegmentsDeliveredIncomplete) {
  BroadcastCycle cycle = MakeCycle();
  BroadcastChannel channel(&cycle, 0.35, 13);
  ClientSession session(&channel, 0);
  device::MemoryTracker mem;
  FullCycleScratch scratch;
  bool any_incomplete_aux = false;
  Status st = ReceiveFullCycle(
      session, mem, [](const broadcast::ReceivedSegment& s) { return s.type == SegmentType::kNetworkData; },
      [&](const ReceivedSegment& seg) {
        if (seg.type == SegmentType::kAuxData && !seg.complete) {
          any_incomplete_aux = true;
        }
      },
      16, scratch);
  ASSERT_TRUE(st.ok());
  // 35% loss over ~12 aux packets: holes are near-certain.
  EXPECT_TRUE(any_incomplete_aux);
}

TEST(FullCycleTest, ChargesRawBytesToMemory) {
  BroadcastCycle cycle = MakeCycle();
  BroadcastChannel channel(&cycle, 0.0);
  ClientSession session(&channel, 0);
  device::MemoryTracker mem;
  FullCycleScratch scratch;
  ReceiveFullCycle(
      session, mem, [](const broadcast::ReceivedSegment&) { return true; },
      [](const ReceivedSegment&) {}, 2, scratch);
  EXPECT_GE(mem.peak(), cycle.TotalPayloadBytes());
}

/// The full-cycle methods' systems at Germany 0.1, built once per binary.
const std::vector<std::unique_ptr<AirSystem>>& FullCycleSystems() {
  static constexpr std::array<std::string_view, 5> kMethods = {
      "DJ", "LD", "AF", "SPQ", "HiTi"};
  static const auto& g = *new graph::Graph(
      graph::MakeNetwork(graph::FindNetwork("Germany").value(), 0.1)
          .value());
  static const auto& systems = *new std::vector<std::unique_ptr<AirSystem>>(
      BuildSystems(g, kMethods, {}).value());
  return systems;
}

/// Receives one cycle of `channel` from each of a few tune-in positions
/// and checks every delivered segment against the station's bytes: a
/// complete one equals `cycle.segment(si).payload`; an incomplete one holds
/// the station's bytes at received packets and zeros at holes. Returns the
/// delivered segments that were incomplete.
size_t CheckDeliveredBytes(const BroadcastChannel& channel, bool repair_all,
                           int max_repair_cycles, const std::string& label) {
  const BroadcastCycle& cycle = channel.cycle();
  FullCycleScratch scratch;
  size_t incomplete = 0;
  for (uint64_t start : {uint64_t{0}, uint64_t{cycle.total_packets() / 3},
                         uint64_t{cycle.total_packets() - 1}}) {
    ClientSession session(&channel, start);
    device::MemoryTracker mem;
    size_t delivered = 0;
    (void)ReceiveFullCycle(
        session, mem,
        [&](const ReceivedSegment& seg) {
          return repair_all || seg.type == SegmentType::kNetworkData;
        },
        [&](const ReceivedSegment& seg) {
          ++delivered;
          const broadcast::Segment& src = cycle.segment(seg.segment_index);
          const std::vector<uint8_t>& want = src.payload;
          ASSERT_EQ(seg.payload.size(), want.size()) << label;
          ASSERT_EQ(seg.packet_ok.size(), src.PacketCount()) << label;
          if (seg.complete) {
            EXPECT_TRUE(std::equal(seg.payload.begin(), seg.payload.end(),
                                   want.begin(), want.end()))
                << label << " segment " << seg.segment_index;
            return;
          }
          ++incomplete;
          for (size_t b = 0; b < want.size(); ++b) {
            const uint8_t expected =
                seg.packet_ok[b / broadcast::kPayloadSize] ? want[b] : 0;
            if (seg.payload[b] != expected) {
              ADD_FAILURE() << label << " segment " << seg.segment_index
                            << " byte " << b;
              return;
            }
          }
        },
        max_repair_cycles, scratch);
    EXPECT_EQ(delivered, cycle.num_segments()) << label;
  }
  return incomplete;
}

// A complete segment's bytes are the station's own (both receive steps
// and the FEC fill copy chunks of the same cycle, and a corrupted packet
// that passes its CRC is the station's view), on every full-cycle cycle,
// lossless, at bursty loss with FEC, and under bit corruption.
TEST(FullCycleTest, CompleteSegmentsHoldTheStationsBytes) {
  for (const auto& sys : FullCycleSystems()) {
    const BroadcastCycle& cycle = sys->cycle();
    const std::string name(sys->name());
    BroadcastChannel lossless(&cycle, 0.0);
    EXPECT_EQ(CheckDeliveredBytes(lossless, true, 4, name + " lossless"), 0u);
    BroadcastChannel fec(&cycle, broadcast::LossModel::Of(0.02, 4), 91,
                         broadcast::FecScheme{16, 2});
    CheckDeliveredBytes(fec, true, 8, name + " loss+fec");
    BroadcastChannel corrupt(&cycle, broadcast::LossModel::Of(0.0, 1, 1e-4),
                             92);
    CheckDeliveredBytes(corrupt, true, 8, name + " corruption");
  }
}

// With no repair cycle, a segment that missed packets is delivered as is:
// the station's bytes where packets arrived, zeros at the holes.
TEST(FullCycleTest, ForceDeliveredSegmentsHoldZerosAtHoles) {
  for (const auto& sys : FullCycleSystems()) {
    const BroadcastCycle& cycle = sys->cycle();
    const std::string name(sys->name());
    BroadcastChannel lossy(&cycle, broadcast::LossModel::Of(0.02, 4), 93);
    EXPECT_GT(CheckDeliveredBytes(lossy, false, 0, name + " no repair"), 0u)
        << name;
    BroadcastChannel fec(&cycle, broadcast::LossModel::Of(0.05, 4, 1e-4), 94,
                         broadcast::FecScheme{16, 2});
    CheckDeliveredBytes(fec, false, 0, name + " no repair, fec");
  }
}

}  // namespace
}  // namespace airindex::core
