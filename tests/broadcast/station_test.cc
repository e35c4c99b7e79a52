#include "broadcast/station.h"

#include <gtest/gtest.h>

#include <vector>

#include "broadcast/channel.h"
#include "broadcast/cycle.h"

namespace airindex::broadcast {
namespace {

BroadcastCycle MakeCycle(std::vector<size_t> segment_bytes,
                         size_t index_segment = SIZE_MAX) {
  CycleBuilder builder;
  for (size_t i = 0; i < segment_bytes.size(); ++i) {
    Segment seg;
    seg.type = i == index_segment ? SegmentType::kGlobalIndex
                                  : SegmentType::kNetworkData;
    seg.id = static_cast<uint32_t>(i);
    seg.is_index = i == index_segment;
    seg.payload.assign(segment_bytes[i], static_cast<uint8_t>(i));
    builder.Add(std::move(seg));
  }
  return std::move(builder)
      .Finalize(/*require_index=*/index_segment != SIZE_MAX)
      .value();
}

TEST(BroadcastChannelStrideTest, DefaultStrideMatchesHistoricalDecisions) {
  // The sub-channel constructor with stride 1 / offset 0 must make the
  // exact decision of the historical two-argument form for every position
  // and loss model — the batch engine's replays depend on it.
  BroadcastCycle cycle = MakeCycle({400, 200, 700});
  const uint64_t seed = 0xFEEDFACEu;
  for (LossModel loss : {LossModel::Independent(0.02),
                         LossModel::Bursty(0.05, 8), LossModel::None()}) {
    BroadcastChannel legacy(&cycle, loss, seed);
    BroadcastChannel strided(&cycle, loss, seed, /*slot_stride=*/1,
                             /*slot_offset=*/0);
    for (uint64_t pos = 0; pos < 4096; ++pos) {
      ASSERT_EQ(legacy.IsLost(pos), strided.IsLost(pos)) << pos;
    }
  }
}

TEST(BroadcastChannelStrideTest, SubchannelsShareThePhysicalRealization) {
  // Sub-channel c's logical position p occupies physical slot p*K + c, and
  // all sub-channels share one seed: the fade a full-rate observer sees at
  // a slot is exactly what the sub-channel client sees at the mapped
  // logical position.
  BroadcastCycle cycle = MakeCycle({400, 200, 700});
  const uint64_t seed = 77;
  const LossModel loss = LossModel::Bursty(0.10, 6);
  const uint32_t K = 4;
  BroadcastChannel physical(&cycle, loss, seed);
  for (uint32_t c = 0; c < K; ++c) {
    BroadcastChannel sub(&cycle, loss, seed, K, c);
    for (uint64_t p = 0; p < 1024; ++p) {
      ASSERT_EQ(sub.PhysicalSlot(p), p * K + c);
      ASSERT_EQ(sub.IsLost(p), physical.IsLost(p * K + c)) << c << " " << p;
    }
  }
}

TEST(BroadcastChannelStrideTest, InterleavingSpreadsBursts) {
  // Classic interleaving on a burst-error channel: a physical fade of B
  // consecutive slots spans only ~B/K consecutive packets of each
  // K-way-interleaved logical stream, so the longest hole any sub-channel
  // client sees is a fraction of the longest physical fade.
  BroadcastCycle cycle = MakeCycle({4000});
  const LossModel loss = LossModel::Bursty(0.08, 12);
  const uint32_t K = 4;
  const uint64_t kLogicalSpan = 20000;

  BroadcastChannel physical(&cycle, loss, 99);
  uint64_t run = 0, physical_max = 0;
  for (uint64_t s = 0; s < kLogicalSpan * K; ++s) {
    run = physical.IsLost(s) ? run + 1 : 0;
    physical_max = std::max(physical_max, run);
  }
  ASSERT_GE(physical_max, 12u);  // at least one full fade block observed

  for (uint32_t c = 0; c < K; ++c) {
    BroadcastChannel sub(&cycle, loss, 99, K, c);
    uint64_t sub_run = 0, sub_max = 0;
    for (uint64_t p = 0; p < kLogicalSpan; ++p) {
      sub_run = sub.IsLost(p) ? sub_run + 1 : 0;
      sub_max = std::max(sub_max, sub_run);
    }
    EXPECT_GT(sub_max, 0u) << c;  // losses do reach every sub-channel
    EXPECT_LT(sub_max, physical_max) << c;
  }
}

TEST(StationTest, ClockMapsTimesToPositionsAndBack) {
  BroadcastCycle cycle = MakeCycle({400, 200, 700});
  StationOptions so;
  so.bits_per_second = 1'024'000.0;  // one 128-byte packet per ms
  so.subchannels = 1;
  Station station(&cycle, so);
  EXPECT_DOUBLE_EQ(station.SlotMs(), 1.0);
  EXPECT_DOUBLE_EQ(station.PacketMs(), 1.0);
  EXPECT_DOUBLE_EQ(station.CycleMs(),
                   static_cast<double>(cycle.total_packets()));

  // An arrival mid-packet waits for the next boundary; an arrival exactly
  // on a boundary joins that packet.
  EXPECT_EQ(station.PositionAt(0.0, 0), 0u);
  EXPECT_EQ(station.PositionAt(0.5, 0), 1u);
  EXPECT_EQ(station.PositionAt(7.0, 0), 7u);
  EXPECT_EQ(station.PositionAt(7.25, 0), 8u);
  for (uint64_t p : {0ull, 1ull, 17ull, 1000ull}) {
    EXPECT_EQ(station.PositionAt(station.TimeAtMs(p, 0), 0), p);
  }
}

TEST(StationTest, ShardedClockStretchesLogicalPackets) {
  BroadcastCycle cycle = MakeCycle({400, 200, 700});
  StationOptions so;
  so.bits_per_second = 1'024'000.0;
  so.subchannels = 4;
  Station station(&cycle, so);
  EXPECT_DOUBLE_EQ(station.SlotMs(), 1.0);
  EXPECT_DOUBLE_EQ(station.PacketMs(), 4.0);

  // Sub-channel 2's position p starts at physical slot 4p + 2.
  EXPECT_DOUBLE_EQ(station.TimeAtMs(0, 2), 2.0);
  EXPECT_DOUBLE_EQ(station.TimeAtMs(3, 2), 14.0);
  // Arriving at t=2.0 catches position 0 of sub-channel 2 exactly;
  // arriving any later waits for position 1.
  EXPECT_EQ(station.PositionAt(2.0, 2), 0u);
  EXPECT_EQ(station.PositionAt(2.1, 2), 1u);
  // Clients are assigned to sub-channels round-robin by ordinal.
  EXPECT_EQ(station.SubchannelOf(0), 0u);
  EXPECT_EQ(station.SubchannelOf(5), 1u);
  EXPECT_EQ(station.SubchannelOf(7), 3u);
}

TEST(ClientSessionWaitTest, SegmentDemandMarksContentStart) {
  // Tune in at position 0 of a cycle whose demanded segment starts at
  // packet 5: the doze to the segment is wait, the retrieval is not.
  BroadcastCycle cycle = MakeCycle({500, 300, 700});  // 5 + 3 + 6 packets
  ASSERT_EQ(cycle.SegmentStart(1), 5u);
  BroadcastChannel channel(&cycle, 0.0);
  ClientSession session(&channel, 0);
  ReceivedSegment seg;
  ReceiveSegmentAt(session, 5, &seg);
  ASSERT_TRUE(seg.complete);
  EXPECT_EQ(session.wait_packets(), 5u);
  EXPECT_EQ(session.latency_packets(), 5u + 3u);
  EXPECT_EQ(session.tuned_packets(), 3u);
}

TEST(ClientSessionWaitTest, CompleteFromProbeHasZeroWait) {
  // A client that tunes in right at its demanded segment's first packet
  // and consumes it from there waited for nothing.
  BroadcastCycle cycle = MakeCycle({500, 300, 700});
  BroadcastChannel channel(&cycle, 0.0);
  ClientSession session(&channel, 5);
  auto probe = session.ReceiveNext();
  ASSERT_TRUE(probe.has_value());
  ReceivedSegment seg;
  CompleteSegmentFrom(session, *probe, &seg);
  ASSERT_TRUE(seg.complete);
  EXPECT_EQ(session.wait_packets(), 0u);
  EXPECT_EQ(session.latency_packets(), 3u);
}

TEST(ClientSessionWaitTest, FirstMarkWins) {
  BroadcastCycle cycle = MakeCycle({500, 300, 700});
  BroadcastChannel channel(&cycle, 0.0);
  ClientSession session(&channel, 0);
  ReceivedSegment seg;
  ReceiveSegmentAt(session, 5, &seg);  // marks content at 5
  ReceiveSegmentAt(session, 8, &seg);  // later demand must not move the mark
  EXPECT_EQ(session.wait_packets(), 5u);
}

TEST(ClientSessionWaitTest, UnmarkedSessionWaitedItsWholeLatency) {
  BroadcastCycle cycle = MakeCycle({500, 300, 700});
  BroadcastChannel channel(&cycle, 0.0);
  ClientSession session(&channel, 0);
  EXPECT_EQ(session.wait_packets(), 0u);  // nothing listened, nothing waited
  session.ReceiveNext();                  // raw probe, never any content
  session.ReceiveNext();
  EXPECT_EQ(session.wait_packets(), session.latency_packets());
}

}  // namespace
}  // namespace airindex::broadcast
