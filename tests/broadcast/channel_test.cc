#include "broadcast/channel.h"

#include <gtest/gtest.h>

#include <limits>
#include <utility>
#include <vector>

namespace airindex::broadcast {
namespace {

BroadcastCycle MakeCycle(size_t segments, size_t bytes_each) {
  CycleBuilder b;
  for (size_t i = 0; i < segments; ++i) {
    Segment s;
    s.type = i == 0 ? SegmentType::kGlobalIndex : SegmentType::kNetworkData;
    s.is_index = i == 0;
    s.id = static_cast<uint32_t>(i);
    s.payload.assign(bytes_each, static_cast<uint8_t>(i + 1));
    b.Add(std::move(s));
  }
  return std::move(b).Finalize().value();
}

TEST(ChannelTest, LosslessChannelDeliversEverything) {
  BroadcastCycle cycle = MakeCycle(3, 400);
  BroadcastChannel channel(&cycle, 0.0);
  ClientSession session(&channel, 0);
  for (uint32_t i = 0; i < cycle.total_packets(); ++i) {
    EXPECT_TRUE(session.ReceiveNext().has_value());
  }
  EXPECT_EQ(session.tuned_packets(), cycle.total_packets());
}

// The historical IsLost converted the 53-bit SplitMix64 draw to a double
// and compared against the rate per packet; the channel now precomputes an
// integer threshold at construction. This replicates the old formula
// verbatim and asserts every loss decision is bit-identical across rates
// (including degenerate and subnormal-adjacent ones) and burst lengths.
TEST(ChannelTest, IntegerThresholdMatchesLegacyDoubleFormula) {
  BroadcastCycle cycle = MakeCycle(2, 300);
  const double rates[] = {0.0,  1e-18, 1e-9, 0.001, 0.02, 0.1,
                          1.0 / 3.0,   0.5,  0.9,   0.999, 1.0, 1.5};
  const uint32_t bursts[] = {1, 4, 16};
  const uint64_t seeds[] = {0x10552, 99, 0xDEADBEEF};
  for (double rate : rates) {
    for (uint32_t burst : bursts) {
      for (uint64_t seed : seeds) {
        BroadcastChannel channel(&cycle, LossModel::Of(rate, burst), seed);
        auto legacy_is_lost = [&](uint64_t abs_pos) {
          if (rate <= 0.0) return false;
          const uint64_t unit = burst > 1 ? abs_pos / burst : abs_pos;
          uint64_t z = seed ^ (unit + 0x9E3779B97f4A7C15ULL);
          z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
          z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
          z ^= z >> 31;
          return static_cast<double>(z >> 11) * 0x1.0p-53 < rate;
        };
        for (uint64_t pos = 0; pos < 5000; ++pos) {
          ASSERT_EQ(channel.IsLost(pos), legacy_is_lost(pos))
              << "rate " << rate << " burst " << burst << " seed " << seed
              << " pos " << pos;
        }
      }
    }
  }
}

TEST(ChannelTest, LossThresholdEdgeCases) {
  // rate <= 0 (and NaN) never lose; rate >= 1 loses every draw.
  EXPECT_EQ(BroadcastChannel::LossThreshold(0.0), 0u);
  EXPECT_EQ(BroadcastChannel::LossThreshold(-0.5), 0u);
  EXPECT_EQ(BroadcastChannel::LossThreshold(
                std::numeric_limits<double>::quiet_NaN()),
            0u);
  EXPECT_EQ(BroadcastChannel::LossThreshold(1.0), 1ULL << 53);
  EXPECT_EQ(BroadcastChannel::LossThreshold(2.0), 1ULL << 53);
  // The smallest positive rate still loses the draw x == 0.
  EXPECT_EQ(BroadcastChannel::LossThreshold(1e-300), 1u);
  // An exactly representable rate maps to an exact (non-rounded-up) bound.
  EXPECT_EQ(BroadcastChannel::LossThreshold(0.5), 1ULL << 52);
}

TEST(ChannelTest, LossIsDeterministicPerPosition) {
  BroadcastCycle cycle = MakeCycle(2, 300);
  BroadcastChannel a(&cycle, 0.3, 99);
  BroadcastChannel b(&cycle, 0.3, 99);
  for (uint64_t pos = 0; pos < 1000; ++pos) {
    EXPECT_EQ(a.IsLost(pos), b.IsLost(pos));
  }
}

TEST(ChannelTest, LossRateRoughlyHolds) {
  BroadcastCycle cycle = MakeCycle(2, 300);
  BroadcastChannel channel(&cycle, 0.1, 7);
  int lost = 0;
  const int trials = 50000;
  for (uint64_t pos = 0; pos < trials; ++pos) {
    if (channel.IsLost(pos)) ++lost;
  }
  EXPECT_NEAR(static_cast<double>(lost) / trials, 0.1, 0.01);
}

TEST(ChannelTest, BurstLossKeepsLongRunRate) {
  BroadcastCycle cycle = MakeCycle(2, 300);
  BroadcastChannel channel(&cycle, LossModel::Bursty(0.1, 8), 21);
  int lost = 0;
  const int trials = 80000;
  for (uint64_t pos = 0; pos < trials; ++pos) {
    if (channel.IsLost(pos)) ++lost;
  }
  EXPECT_NEAR(static_cast<double>(lost) / trials, 0.1, 0.015);
}

TEST(ChannelTest, BurstLossArrivesInRuns) {
  BroadcastCycle cycle = MakeCycle(2, 300);
  BroadcastChannel channel(&cycle, LossModel::Bursty(0.1, 8), 22);
  // Within an aligned 8-packet block, loss is all-or-nothing.
  for (uint64_t block = 0; block < 2000; ++block) {
    const bool first = channel.IsLost(block * 8);
    for (uint64_t i = 1; i < 8; ++i) {
      EXPECT_EQ(channel.IsLost(block * 8 + i), first) << block;
    }
  }
}

TEST(ChannelTest, SleepIsFree) {
  BroadcastCycle cycle = MakeCycle(3, 400);
  BroadcastChannel channel(&cycle, 0.0);
  ClientSession session(&channel, 5);
  session.SleepPackets(100);
  EXPECT_EQ(session.tuned_packets(), 0u);
  EXPECT_EQ(session.position(), 105u);
}

TEST(ChannelTest, SleepUntilCyclePosWrapsForward) {
  BroadcastCycle cycle = MakeCycle(3, 400);  // 12 packets
  ASSERT_EQ(cycle.total_packets(), 12u);
  BroadcastChannel channel(&cycle, 0.0);
  ClientSession session(&channel, 10);
  session.SleepUntilCyclePos(2);  // 10 -> 14 (pos 2 of next cycle)
  EXPECT_EQ(session.position(), 14u);
  EXPECT_EQ(session.cycle_pos(), 2u);
  session.SleepUntilCyclePos(2);  // already there: no movement
  EXPECT_EQ(session.position(), 14u);
}

TEST(ChannelTest, LatencyCountsFromTuneIn) {
  BroadcastCycle cycle = MakeCycle(3, 400);
  BroadcastChannel channel(&cycle, 0.0);
  ClientSession session(&channel, 7);
  session.ReceiveNext();           // packet 7
  session.SleepPackets(3);
  session.ReceiveNext();           // packet 11
  EXPECT_EQ(session.tuned_packets(), 2u);
  EXPECT_EQ(session.latency_packets(), 11u - 7u + 1u);
}

TEST(ReceiveSegmentTest, AssemblesWholePayload) {
  BroadcastCycle cycle = MakeCycle(3, 400);
  BroadcastChannel channel(&cycle, 0.0);
  ClientSession session(&channel, 0);
  const uint32_t start = cycle.SegmentStart(1);
  ReceivedSegment seg;
  ReceiveSegmentAt(session, start, &seg);
  EXPECT_TRUE(seg.complete);
  EXPECT_EQ(seg.segment_id, 1u);
  ASSERT_EQ(seg.payload.size(), 400u);
  for (uint8_t byte : seg.payload) EXPECT_EQ(byte, 2);
}

TEST(ReceiveSegmentTest, LossLeavesHolesAndMask) {
  BroadcastCycle cycle = MakeCycle(2, 2000);
  BroadcastChannel channel(&cycle, 0.4, 3);
  ClientSession session(&channel, 0);
  ReceivedSegment seg;
  ReceiveSegmentAt(session, cycle.SegmentStart(1), &seg);
  // With 40% loss over ~17 packets a hole is near-certain.
  ASSERT_FALSE(seg.complete);
  bool any_missing = false;
  for (size_t p = 0; p < seg.packet_ok.size(); ++p) {
    if (!seg.packet_ok[p]) {
      any_missing = true;
      EXPECT_FALSE(seg.RangeOk(p * kPayloadSize, p * kPayloadSize + 1));
    }
  }
  EXPECT_TRUE(any_missing);
}

TEST(ReceiveSegmentTest, RepairCompletesOverNextCycles) {
  BroadcastCycle cycle = MakeCycle(2, 2000);
  BroadcastChannel channel(&cycle, 0.3, 5);
  ClientSession session(&channel, 0);
  const uint32_t start = cycle.SegmentStart(1);
  ReceivedSegment seg;
  ReceiveSegmentAt(session, start, &seg);
  EXPECT_TRUE(RepairSegment(session, start, &seg, 32));
  EXPECT_TRUE(seg.complete);
  for (uint8_t byte : seg.payload) EXPECT_EQ(byte, 2);
}

// A start in the middle of a segment: the receive listens for as many
// packets as the segment has, so its tail reaches into the next segment.
// Those packets are the next segment's and count as lost; they must not
// land in (and complete) the segment being assembled.
TEST(ReceiveSegmentTest, MidSegmentStartKeepsOnlyItsOwnPackets) {
  BroadcastCycle cycle = MakeCycle(3, 400);
  BroadcastChannel channel(&cycle, 0.0);
  ClientSession session(&channel, 0);
  ReceivedSegment seg;
  ReceiveSegmentAt(session, cycle.SegmentStart(1) + 1, &seg);
  EXPECT_EQ(seg.segment_id, 1u);
  EXPECT_FALSE(seg.complete);
  ASSERT_EQ(seg.payload.size(), 400u);
  ASSERT_GT(seg.packet_ok.size(), 1u);
  EXPECT_FALSE(seg.packet_ok[0]);
  for (size_t p = 1; p < seg.packet_ok.size(); ++p) {
    EXPECT_TRUE(seg.packet_ok[p]) << p;
  }
  for (size_t b = 0; b < seg.payload.size(); ++b) {
    EXPECT_EQ(seg.payload[b], b < kPayloadSize ? 0 : 2) << b;
  }
  // The repair fetches the missing head from the segment's real start.
  EXPECT_TRUE(RepairSegment(session, cycle.SegmentStart(1), &seg, 2));
  for (uint8_t byte : seg.payload) EXPECT_EQ(byte, 2);
}

// A start at or past the cycle's end names no segment, so there is no
// segment table entry to size the buffer from: the receive hands back an
// incomplete segment that no repair completes.
TEST(ReceiveSegmentTest, StartPastTheCycleYieldsAnIncompleteSegment) {
  BroadcastCycle cycle = MakeCycle(3, 400);
  BroadcastChannel channel(&cycle, 0.0);
  for (uint32_t start : {cycle.total_packets(), cycle.total_packets() + 7}) {
    ClientSession session(&channel, 0);
    ReceivedSegment seg;
    ReceiveSegmentAt(session, start, &seg);
    EXPECT_FALSE(seg.complete) << start;
    EXPECT_TRUE(seg.payload.empty()) << start;
    EXPECT_FALSE(RepairSegment(session, start, &seg, 2)) << start;
    EXPECT_FALSE(seg.complete) << start;
  }
}

TEST(ReceivedSegmentTest, RangeOkBoundaries) {
  ReceivedSegment seg;
  seg.storage.assign(3 * kPayloadSize, 0);
  seg.payload = seg.storage;
  seg.packet_ok = {true, false, true};
  EXPECT_TRUE(seg.RangeOk(0, kPayloadSize));
  EXPECT_FALSE(seg.RangeOk(0, kPayloadSize + 1));
  EXPECT_FALSE(seg.RangeOk(kPayloadSize, 2 * kPayloadSize));
  EXPECT_TRUE(seg.RangeOk(2 * kPayloadSize, 3 * kPayloadSize));
  EXPECT_TRUE(seg.RangeOk(5, 5));  // empty range
}

// ArcFlag decodes each arc's flag vector only if RangeOk clears its byte
// range in the flag segment's own packet mask (§6.2 all-ones otherwise).
TEST(ReceivedSegmentTest, RangeOkEdgeCases) {
  constexpr size_t P = kPayloadSize;
  auto range_ok = [](std::vector<bool> mask, size_t begin, size_t end) {
    ReceivedSegment seg;
    seg.packet_ok = std::move(mask);
    return seg.RangeOk(begin, end);
  };
  // An empty (or inverted) range is ok, even against an empty mask.
  EXPECT_TRUE(range_ok({}, 0, 0));
  EXPECT_TRUE(range_ok({false}, 3, 3));
  EXPECT_TRUE(range_ok({false}, 7, 2));

  // Crossing a packet boundary: both packets must have arrived.
  EXPECT_FALSE(range_ok({true, false}, P - 2, P + 2));
  EXPECT_FALSE(range_ok({false, true}, P - 2, P + 2));
  EXPECT_TRUE(range_ok({true, true}, P - 2, P + 2));
  EXPECT_TRUE(range_ok({true, false}, P - 2, P));  // ends on the boundary

  // Inside the last, partial packet of a 2P + 10 byte payload: judged by
  // that packet alone.
  EXPECT_TRUE(range_ok({false, false, true}, 2 * P + 1, 2 * P + 10));
  EXPECT_FALSE(range_ok({true, true, false}, 2 * P + 1, 2 * P + 10));

  // Past the end of the mask: never ok, even if every packet arrived.
  EXPECT_FALSE(range_ok({true, true}, 2 * P, 2 * P + 1));
  EXPECT_FALSE(range_ok({true, true}, P, 2 * P + 1));
  EXPECT_FALSE(range_ok({}, 0, 1));
}

}  // namespace
}  // namespace airindex::broadcast
