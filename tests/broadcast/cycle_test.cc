#include "broadcast/cycle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <iterator>
#include <string_view>

#include "core/systems.h"
#include "testing/test_graphs.h"

namespace airindex::broadcast {
namespace {

Segment MakeSegment(SegmentType type, uint32_t id, size_t bytes,
                    bool is_index = false) {
  Segment s;
  s.type = type;
  s.id = id;
  s.is_index = is_index;
  s.payload.assign(bytes, static_cast<uint8_t>(id));
  return s;
}

TEST(CycleTest, PacketCountRoundsUp) {
  EXPECT_EQ(MakeSegment(SegmentType::kNetworkData, 0, 0).PacketCount(), 1u);
  EXPECT_EQ(MakeSegment(SegmentType::kNetworkData, 0, 1).PacketCount(), 1u);
  EXPECT_EQ(
      MakeSegment(SegmentType::kNetworkData, 0, kPayloadSize).PacketCount(),
      1u);
  EXPECT_EQ(MakeSegment(SegmentType::kNetworkData, 0, kPayloadSize + 1)
                .PacketCount(),
            2u);
}

TEST(CycleTest, EmptyBuilderFails) {
  CycleBuilder b;
  EXPECT_FALSE(std::move(b).Finalize(false).ok());
}

TEST(CycleTest, RequireIndexEnforced) {
  CycleBuilder b;
  b.Add(MakeSegment(SegmentType::kNetworkData, 0, 100));
  EXPECT_FALSE(std::move(b).Finalize(true).ok());
}

BroadcastCycle ThreeSegmentCycle() {
  CycleBuilder b;
  b.Add(MakeSegment(SegmentType::kGlobalIndex, 0, 200, /*is_index=*/true));
  b.Add(MakeSegment(SegmentType::kNetworkData, 1, 500));
  b.Add(MakeSegment(SegmentType::kNetworkData, 2, 50));
  return std::move(b).Finalize().value();
}

TEST(CycleTest, LayoutPositionsAreCumulative) {
  BroadcastCycle c = ThreeSegmentCycle();
  EXPECT_EQ(c.num_segments(), 3u);
  EXPECT_EQ(c.SegmentStart(0), 0u);
  EXPECT_EQ(c.SegmentStart(1), 2u);  // 200 bytes -> 2 packets
  EXPECT_EQ(c.SegmentStart(2), 7u);  // 500 bytes -> 5 packets
  EXPECT_EQ(c.total_packets(), 8u);
}

TEST(CycleTest, SegmentAtCoversEveryPosition) {
  BroadcastCycle c = ThreeSegmentCycle();
  EXPECT_EQ(c.SegmentAt(0), 0u);
  EXPECT_EQ(c.SegmentAt(1), 0u);
  EXPECT_EQ(c.SegmentAt(2), 1u);
  EXPECT_EQ(c.SegmentAt(6), 1u);
  EXPECT_EQ(c.SegmentAt(7), 2u);
}

TEST(CycleTest, PacketViewChunks) {
  BroadcastCycle c = ThreeSegmentCycle();
  PacketView first = c.PacketAt(2);
  EXPECT_EQ(first.segment_index, 1u);
  EXPECT_EQ(first.seq, 0u);
  EXPECT_EQ(first.segment_packets, 5u);
  EXPECT_EQ(first.chunk.size(), kPayloadSize);

  PacketView last = c.PacketAt(6);
  EXPECT_EQ(last.seq, 4u);
  EXPECT_EQ(last.chunk.size(), 500u - 4 * kPayloadSize);
}

TEST(CycleTest, NextIndexWrapsAround) {
  BroadcastCycle c = ThreeSegmentCycle();
  EXPECT_EQ(c.NextIndexStart(0), 0u);  // at the index start
  EXPECT_EQ(c.NextIndexStart(1), 0u);  // inside index -> wraps to next copy
  EXPECT_EQ(c.NextIndexStart(3), 0u);
  // Header offsets are relative and cyclic.
  PacketView view = c.PacketAt(5);
  EXPECT_EQ(view.next_index_offset, 3u);  // 5 -> 8 == 0 (mod 8)
}

TEST(CycleTest, MultipleIndexCopies) {
  CycleBuilder b;
  b.Add(MakeSegment(SegmentType::kGlobalIndex, 0, 100, true));
  b.Add(MakeSegment(SegmentType::kNetworkData, 1, 300));
  b.Add(MakeSegment(SegmentType::kGlobalIndex, 2, 100, true));
  b.Add(MakeSegment(SegmentType::kNetworkData, 3, 300));
  BroadcastCycle c = std::move(b).Finalize().value();
  // Positions: idx@0 (1 pkt), data@1..3, idx@4, data@5..7.
  EXPECT_EQ(c.NextIndexStart(1), 4u);
  EXPECT_EQ(c.NextIndexStart(4), 4u);
  EXPECT_EQ(c.NextIndexStart(5), 0u);
}

// --- Oracle: the historical linear scans, kept as the reference for the
// --- per-segment next-index table and for every PacketView field.

uint32_t ReferenceSegmentAt(const BroadcastCycle& c, uint32_t pos) {
  uint32_t si = 0;
  while (si + 1 < c.num_segments() && c.SegmentStart(si + 1) <= pos) ++si;
  return si;
}

uint32_t ReferenceNextIndexStart(const BroadcastCycle& c, uint32_t pos) {
  const size_t n = c.num_segments();
  const size_t si = ReferenceSegmentAt(c, pos);
  if (c.segment(si).is_index && c.SegmentStart(si) == pos) return pos;
  for (size_t step = 1; step <= n; ++step) {
    const size_t i = (si + step) % n;
    if (c.segment(i).is_index) return c.SegmentStart(i);
  }
  return pos;  // no index segment in the cycle
}

PacketView ReferencePacketAt(const BroadcastCycle& c, uint32_t pos) {
  const uint32_t si = ReferenceSegmentAt(c, pos);
  const Segment& seg = c.segment(si);
  PacketView view;
  view.cycle_pos = pos;
  view.type = seg.type;
  view.segment_id = seg.id;
  view.segment_index = si;
  view.seq = pos - c.SegmentStart(si);
  view.segment_packets = seg.PacketCount();
  const size_t chunk_begin = static_cast<size_t>(view.seq) * kPayloadSize;
  if (chunk_begin < seg.payload.size()) {
    const size_t chunk_end =
        std::min(chunk_begin + kPayloadSize, seg.payload.size());
    view.chunk = {seg.payload.data() + chunk_begin, chunk_end - chunk_begin};
  }
  const uint32_t next = ReferenceNextIndexStart(c, pos);
  view.next_index_offset =
      next >= pos ? next - pos : next + c.total_packets() - pos;
  return view;
}

bool HasIndex(const BroadcastCycle& c) {
  for (size_t i = 0; i < c.num_segments(); ++i) {
    if (c.segment(i).is_index) return true;
  }
  return false;
}

void ExpectMatchesReference(const BroadcastCycle& c) {
  const bool has_index = HasIndex(c);
  for (uint32_t pos = 0; pos < c.total_packets(); ++pos) {
    SCOPED_TRACE(pos);
    ASSERT_EQ(c.NextIndexStart(pos), ReferenceNextIndexStart(c, pos));
    const PacketView got = c.PacketAt(pos);
    const PacketView want = ReferencePacketAt(c, pos);
    EXPECT_EQ(got.cycle_pos, want.cycle_pos);
    EXPECT_EQ(got.type, want.type);
    EXPECT_EQ(got.segment_id, want.segment_id);
    EXPECT_EQ(got.segment_index, want.segment_index);
    EXPECT_EQ(got.seq, want.seq);
    EXPECT_EQ(got.segment_packets, want.segment_packets);
    EXPECT_EQ(got.chunk.data(), want.chunk.data());
    EXPECT_EQ(got.chunk.size(), want.chunk.size());
    ASSERT_EQ(got.next_index_offset, want.next_index_offset);
    if (!has_index) {
      EXPECT_EQ(got.next_index_offset, 0u);
    }
  }
}

/// A cycle of the given segments: 'I' an index segment, 'D' a data one,
/// with payload sizes cycling through a few packet counts (incl. a
/// zero-byte, one-packet segment).
BroadcastCycle CycleOf(std::string_view layout) {
  constexpr size_t kSizes[] = {200, 0, 500, 130, 50, 3 * kPayloadSize};
  CycleBuilder b;
  for (size_t i = 0; i < layout.size(); ++i) {
    const bool index = layout[i] == 'I';
    b.Add(MakeSegment(index ? SegmentType::kGlobalIndex
                            : SegmentType::kNetworkData,
                      static_cast<uint32_t>(i), kSizes[i % std::size(kSizes)],
                      index));
  }
  return std::move(b).Finalize(/*require_index=*/false).value();
}

TEST(CycleTest, NextIndexTableMatchesLinearScan) {
  for (std::string_view layout :
       {"DDD", "IDD", "DID", "DDI", "DIID", "IDID", "DIDDDIDD", "IIII", "I",
        "D", "DDDDDDI", "IDDDDDD"}) {
    SCOPED_TRACE(layout);
    ExpectMatchesReference(CycleOf(layout));
  }
}

TEST(CycleTest, SingleIndexPointsBackToItself) {
  // Positions: data@0..1, data@2, idx@3..7.
  BroadcastCycle c = CycleOf("DDI");
  const uint32_t idx = c.SegmentStart(2);
  ASSERT_EQ(idx, 3u);
  EXPECT_EQ(c.NextIndexStart(idx), idx);
  EXPECT_EQ(c.NextIndexStart(idx + 1), idx);  // next copy is itself
  EXPECT_EQ(c.PacketAt(idx + 1).next_index_offset, c.total_packets() - 1);
}

TEST(CycleTest, SystemCyclesMatchLinearScan) {
  const graph::Graph g = testing_support::SmallNetwork(300, 480, 77);
  core::SystemParams params;
  params.arcflag_regions = 8;
  params.eb_regions = 8;
  params.nr_regions = 8;
  params.landmarks = 3;
  params.hiti_regions = 8;
  for (std::string_view method :
       {"DJ", "NR", "EB", "LD", "AF", "SPQ", "HiTi"}) {
    SCOPED_TRACE(method);
    auto sys = core::BuildSystem(g, method, params);
    ASSERT_TRUE(sys.ok()) << sys.status().ToString();
    const BroadcastCycle& c = (*sys)->cycle();
    // NR and EB interleave index copies; the full-cycle methods have none.
    EXPECT_EQ(HasIndex(c), method == "NR" || method == "EB");
    ExpectMatchesReference(c);
  }
}

TEST(CycleTest, TotalPayloadBytes) {
  BroadcastCycle c = ThreeSegmentCycle();
  EXPECT_EQ(c.TotalPayloadBytes(), 750u);
}

}  // namespace
}  // namespace airindex::broadcast
