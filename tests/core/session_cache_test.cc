#include "core/session_cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "broadcast/channel.h"
#include "broadcast/cycle.h"
#include "broadcast/packet.h"

namespace airindex::core {
namespace {

// A five-segment cycle: one index segment followed by four data segments
// of two packets each, enough structure to exercise segment identities.
broadcast::BroadcastCycle MakeCycle() {
  broadcast::CycleBuilder builder;
  broadcast::Segment index;
  index.type = broadcast::SegmentType::kGlobalIndex;
  index.is_index = true;
  index.payload.assign(broadcast::kPayloadSize, 0x11);
  builder.Add(index);
  for (uint32_t i = 0; i < 4; ++i) {
    broadcast::Segment data;
    data.type = broadcast::SegmentType::kNetworkData;
    data.id = i;
    data.payload.assign(2 * broadcast::kPayloadSize,
                        static_cast<uint8_t>(0x20 + i));
    builder.Add(data);
  }
  return std::move(builder).Finalize().value();
}

broadcast::BroadcastChannel MakeChannel(const broadcast::BroadcastCycle& cycle,
                                        uint64_t cycle_version) {
  return broadcast::BroadcastChannel(
      &cycle, broadcast::LossModel::Independent(0.0), /*seed=*/7,
      /*slot_stride=*/1, /*slot_offset=*/0, /*fec=*/{}, /*schedule=*/nullptr,
      cycle_version);
}

broadcast::ReceivedSegment MakeSeg(uint32_t segment_index, size_t bytes,
                                   uint8_t fill, bool complete = true) {
  broadcast::ReceivedSegment seg;
  seg.segment_index = segment_index;
  seg.type = broadcast::SegmentType::kNetworkData;
  seg.segment_id = segment_index;
  seg.storage.assign(bytes, fill);
  seg.payload = seg.storage;
  seg.packet_ok.assign((bytes + broadcast::kPayloadSize - 1) /
                           broadcast::kPayloadSize,
                       complete);
  seg.complete = complete;
  return seg;
}

constexpr size_t kSegBytes = 2 * broadcast::kPayloadSize;

TEST(SessionCacheTest, DisabledByDefaultAndWithZeroBudget) {
  broadcast::BroadcastCycle cycle = MakeCycle();
  broadcast::BroadcastChannel chan = MakeChannel(cycle, 0);

  SessionCache cache;
  EXPECT_FALSE(cache.enabled());
  EXPECT_FALSE(cache.Ready(chan));

  cache.BeginSession(0);
  EXPECT_FALSE(cache.enabled());
  EXPECT_FALSE(cache.Ready(chan));
  EXPECT_EQ(cache.entry_count(), 0u);
}

TEST(SessionCacheTest, StoreThenLoadRoundTrips) {
  broadcast::BroadcastCycle cycle = MakeCycle();
  broadcast::BroadcastChannel chan = MakeChannel(cycle, 0);

  SessionCache cache;
  cache.BeginSession(64u << 10);
  ASSERT_TRUE(cache.Ready(chan));

  const uint32_t start = cycle.SegmentStart(1);
  cache.Store(start, MakeSeg(1, kSegBytes, 0xAB));
  EXPECT_TRUE(cache.Has(start));
  EXPECT_EQ(cache.entry_count(), 1u);
  EXPECT_EQ(cache.used_bytes(), kSegBytes);

  broadcast::ReceivedSegment out;
  ASSERT_TRUE(cache.Load(start, &out));
  EXPECT_TRUE(out.complete);
  ASSERT_EQ(out.payload.size(), kSegBytes);
  EXPECT_EQ(out.payload.front(), 0xAB);
  EXPECT_FALSE(cache.Load(cycle.SegmentStart(2), &out));
}

TEST(SessionCacheTest, OneSegmentBudgetEvictsThePreviousSegment) {
  broadcast::BroadcastCycle cycle = MakeCycle();
  broadcast::BroadcastChannel chan = MakeChannel(cycle, 0);

  SessionCache cache;
  // Budget holds exactly one data segment: every Store must evict the
  // previous tenant, and the cache still answers for the survivor.
  cache.BeginSession(kSegBytes);
  ASSERT_TRUE(cache.Ready(chan));

  const uint32_t a = cycle.SegmentStart(1);
  const uint32_t b = cycle.SegmentStart(2);
  cache.Store(a, MakeSeg(1, kSegBytes, 0xA1));
  EXPECT_TRUE(cache.Has(a));
  cache.Store(b, MakeSeg(2, kSegBytes, 0xB2));
  EXPECT_FALSE(cache.Has(a));
  EXPECT_TRUE(cache.Has(b));
  EXPECT_EQ(cache.entry_count(), 1u);
  EXPECT_EQ(cache.used_bytes(), kSegBytes);

  broadcast::ReceivedSegment out;
  ASSERT_TRUE(cache.Load(b, &out));
  EXPECT_EQ(out.payload.front(), 0xB2);
}

TEST(SessionCacheTest, FindRefreshesRecencySoTheHitSurvivesEviction) {
  broadcast::BroadcastCycle cycle = MakeCycle();
  broadcast::BroadcastChannel chan = MakeChannel(cycle, 0);

  SessionCache cache;
  cache.BeginSession(2 * kSegBytes);
  ASSERT_TRUE(cache.Ready(chan));

  const uint32_t a = cycle.SegmentStart(1);
  const uint32_t b = cycle.SegmentStart(2);
  const uint32_t c = cycle.SegmentStart(3);
  cache.Store(a, MakeSeg(1, kSegBytes, 0xA1));
  cache.Store(b, MakeSeg(2, kSegBytes, 0xB2));
  // Touch `a` so `b` is now the least recently used, then overflow.
  ASSERT_NE(cache.Find(a), nullptr);
  cache.Store(c, MakeSeg(3, kSegBytes, 0xC3));
  EXPECT_TRUE(cache.Has(a));
  EXPECT_FALSE(cache.Has(b));
  EXPECT_TRUE(cache.Has(c));
}

TEST(SessionCacheTest, IncompleteAndOverBudgetSegmentsAreNotCached) {
  broadcast::BroadcastCycle cycle = MakeCycle();
  broadcast::BroadcastChannel chan = MakeChannel(cycle, 0);

  SessionCache cache;
  cache.BeginSession(kSegBytes);
  ASSERT_TRUE(cache.Ready(chan));

  const uint32_t a = cycle.SegmentStart(1);
  cache.Store(a, MakeSeg(1, kSegBytes, 0xA1, /*complete=*/false));
  EXPECT_FALSE(cache.Has(a));
  EXPECT_EQ(cache.used_bytes(), 0u);

  // Larger than the whole budget: ignored, and nothing already cached is
  // evicted to make room for it.
  cache.Store(a, MakeSeg(1, kSegBytes, 0xA1));
  cache.Store(cycle.SegmentStart(2), MakeSeg(2, 2 * kSegBytes, 0xB2));
  EXPECT_TRUE(cache.Has(a));
  EXPECT_EQ(cache.entry_count(), 1u);
}

TEST(SessionCacheTest, StaleCycleVersionIsNeverServed) {
  broadcast::BroadcastCycle cycle = MakeCycle();
  broadcast::BroadcastChannel v0 = MakeChannel(cycle, 0);
  broadcast::BroadcastChannel v1 = MakeChannel(cycle, 1);

  SessionCache cache;
  cache.BeginSession(64u << 10);
  ASSERT_TRUE(cache.Ready(v0));

  const uint32_t start = cycle.SegmentStart(1);
  cache.Store(start, MakeSeg(1, kSegBytes, 0xA1));
  cache.StoreIndex(cycle.SegmentStart(0),
                   MakeSeg(0, broadcast::kPayloadSize, 0x11));
  ASSERT_TRUE(cache.Has(start));
  ASSERT_TRUE(cache.has_index());

  // Same cycle object, bumped version: the station republished the world,
  // so everything decoded under version 0 must vanish before first use.
  ASSERT_TRUE(cache.Ready(v1));
  EXPECT_FALSE(cache.Has(start));
  EXPECT_FALSE(cache.has_index());
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(cache.used_bytes(), 0u);

  // Entries stored under version 1 survive a re-consult against version 1.
  cache.Store(start, MakeSeg(1, kSegBytes, 0xB2));
  ASSERT_TRUE(cache.Ready(v1));
  EXPECT_TRUE(cache.Has(start));
}

TEST(SessionCacheTest, RebindingToADifferentCycleClearsContent) {
  broadcast::BroadcastCycle first = MakeCycle();
  broadcast::BroadcastCycle second = MakeCycle();
  broadcast::BroadcastChannel on_first = MakeChannel(first, 0);
  broadcast::BroadcastChannel on_second = MakeChannel(second, 0);

  SessionCache cache;
  cache.BeginSession(64u << 10);
  ASSERT_TRUE(cache.Ready(on_first));
  cache.Store(first.SegmentStart(1), MakeSeg(1, kSegBytes, 0xA1));
  ASSERT_TRUE(cache.Has(first.SegmentStart(1)));

  ASSERT_TRUE(cache.Ready(on_second));
  EXPECT_FALSE(cache.Has(second.SegmentStart(1)));
  EXPECT_EQ(cache.entry_count(), 0u);
}

TEST(SessionCacheTest, IndexSlotKeepsIncompleteSegmentsForRepair) {
  broadcast::BroadcastCycle cycle = MakeCycle();
  broadcast::BroadcastChannel chan = MakeChannel(cycle, 0);

  SessionCache cache;
  cache.BeginSession(64u << 10);
  ASSERT_TRUE(cache.Ready(chan));
  EXPECT_FALSE(cache.has_index());

  // An index heard with holes is still worth keeping: the mask rides
  // along so the next query can repair on air instead of restarting.
  broadcast::ReceivedSegment holey =
      MakeSeg(0, 2 * broadcast::kPayloadSize, 0x11, /*complete=*/false);
  holey.packet_ok[0] = true;
  const uint32_t start = cycle.SegmentStart(0);
  cache.StoreIndex(start, holey);
  ASSERT_TRUE(cache.has_index());
  EXPECT_EQ(cache.index_start(), start);

  broadcast::ReceivedSegment out;
  ASSERT_TRUE(cache.LoadIndex(&out));
  EXPECT_FALSE(out.complete);
  ASSERT_EQ(out.packet_ok.size(), 2u);
  EXPECT_TRUE(out.packet_ok[0]);
  EXPECT_FALSE(out.packet_ok[1]);

  // A repaired copy written back through UpdateIndex replaces the slot.
  out.packet_ok[1] = true;
  out.complete = true;
  cache.UpdateIndex(out);
  broadcast::ReceivedSegment repaired;
  ASSERT_TRUE(cache.LoadIndex(&repaired));
  EXPECT_TRUE(repaired.complete);

  cache.BeginSession(64u << 10);
  EXPECT_FALSE(cache.has_index());
}

TEST(SessionCacheTest, UpdateIndexWithoutAStoredIndexIsANoOp) {
  SessionCache cache;
  cache.BeginSession(64u << 10);
  cache.UpdateIndex(MakeSeg(0, broadcast::kPayloadSize, 0x11));
  EXPECT_FALSE(cache.has_index());
}

TEST(SessionCacheTest, PerQueryHitCounterResetsAtQueryStart) {
  SessionCache cache;
  cache.BeginSession(64u << 10);
  cache.BeginQueryStats();
  cache.CountHit();
  cache.CountHit(3);
  EXPECT_EQ(cache.query_hits(), 4u);
  cache.BeginQueryStats();
  EXPECT_EQ(cache.query_hits(), 0u);
}

}  // namespace
}  // namespace airindex::core
