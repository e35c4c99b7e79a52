#include "core/full_cycle.h"

#include <gtest/gtest.h>

#include <map>

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
      [&](ReceivedSegment& seg) {
        EXPECT_TRUE(got.emplace(seg.segment_index, std::move(seg)).second);
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
      [&](ReceivedSegment& seg) {
        got.emplace(seg.segment_index, std::move(seg));
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
      [&](ReceivedSegment& seg) {
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
      [](ReceivedSegment&) {}, 2, scratch);
  EXPECT_GE(mem.peak(), cycle.TotalPayloadBytes());
}

}  // namespace
}  // namespace airindex::core
