// FEC layout arithmetic, CRC-32, and the corrupting channel. The load-
// bearing invariants: the slot mapping is the identity when the code is
// off (byte-identity of every pre-FEC metric), data+parity slots tile the
// physical cycle exactly once, and LogicalAtOrAfterSlot inverts DataSlot.

#include "broadcast/fec.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <span>
#include <vector>

#include "broadcast/channel.h"
#include "broadcast/cycle.h"
#include "broadcast/station.h"
#include "common/rng.h"

namespace airindex::broadcast {
namespace {

TEST(FecSchemeTest, OfRateMapsOverheadToParityCount) {
  EXPECT_FALSE(FecScheme::OfRate(0.0).enabled());
  EXPECT_FALSE(FecScheme::OfRate(-0.5).enabled());
  EXPECT_FALSE(FecScheme::OfRate(std::nan("")).enabled());
  EXPECT_EQ(FecScheme::OfRate(1.0 / 16.0).parity_per_group, 1u);
  EXPECT_EQ(FecScheme::OfRate(0.125).parity_per_group, 2u);
  EXPECT_EQ(FecScheme::OfRate(0.25).parity_per_group, 4u);
  EXPECT_EQ(FecScheme::OfRate(1.0).parity_per_group, 16u);
  // Overheads beyond 1 clamp to one parity symbol per data symbol.
  EXPECT_EQ(FecScheme::OfRate(3.0).parity_per_group, 16u);
  EXPECT_EQ(FecScheme::OfRate(0.25, 8).parity_per_group, 2u);
}

TEST(FecSchemeTest, ValidBounds) {
  EXPECT_TRUE((FecScheme{16, 0}.Valid()));
  EXPECT_TRUE((FecScheme{2, 2}.Valid()));
  EXPECT_TRUE((FecScheme{64, 64}.Valid()));
  EXPECT_FALSE((FecScheme{1, 0}.Valid()));
  EXPECT_FALSE((FecScheme{65, 1}.Valid()));
  EXPECT_FALSE((FecScheme{16, 17}.Valid()));
}

TEST(FecLayoutTest, DisabledLayoutIsTheIdentity) {
  const FecLayout layout(1000, FecScheme::None());
  EXPECT_EQ(layout.phys_cycle_packets(), 1000u);
  for (uint64_t pos : {0ull, 1ull, 999ull, 1000ull, 54321ull}) {
    EXPECT_EQ(layout.DataSlot(pos), pos);
    EXPECT_EQ(layout.LogicalAtOrAfterSlot(pos), pos);
  }
}

TEST(FecLayoutTest, DataAndParitySlotsTileThePhysicalCycle) {
  // L=37, k=16, p=2: groups of 16/16/5 data packets, each followed by its
  // 2 parity packets; P = 37 + 3*2 = 43 slots, every slot hit exactly once.
  const FecLayout layout(37, FecScheme{16, 2});
  EXPECT_EQ(layout.groups_per_cycle(), 3u);
  EXPECT_EQ(layout.phys_cycle_packets(), 43u);
  EXPECT_EQ(layout.GroupDataSize(0), 16u);
  EXPECT_EQ(layout.GroupDataSize(2), 5u);

  for (uint64_t inst = 0; inst < 3; ++inst) {
    std::set<uint64_t> slots;
    for (uint64_t cpos = 0; cpos < 37; ++cpos) {
      slots.insert(layout.DataSlot(inst * 37 + cpos));
    }
    for (uint64_t cpos = 0; cpos < 37; cpos += 16) {  // one member per group
      for (uint32_t j = 0; j < 2; ++j) {
        slots.insert(layout.ParitySlot(inst * 37 + cpos, j));
      }
    }
    ASSERT_EQ(slots.size(), 43u) << "cycle instance " << inst;
    EXPECT_EQ(*slots.begin(), inst * 43);
    EXPECT_EQ(*slots.rbegin(), inst * 43 + 42);
  }
}

TEST(FecLayoutTest, LogicalAtOrAfterSlotInvertsDataSlot) {
  const FecLayout layout(37, FecScheme{16, 2});
  for (uint64_t pos = 0; pos < 3 * 37; ++pos) {
    EXPECT_EQ(layout.LogicalAtOrAfterSlot(layout.DataSlot(pos)), pos) << pos;
  }
  // A parity slot resolves to the next data packet on air.
  const uint64_t parity0 = layout.ParitySlot(0, 0);  // after group 0's data
  EXPECT_EQ(layout.LogicalAtOrAfterSlot(parity0), 16u);
  const uint64_t tail_parity = layout.ParitySlot(36, 1);  // cycle's last slot
  EXPECT_EQ(layout.LogicalAtOrAfterSlot(tail_parity), 37u);  // next cycle
}

TEST(FecLayoutTest, GroupKeySeparatesCycleInstances) {
  const FecLayout layout(37, FecScheme{16, 2});
  // Positions 32..36 (group 2 of instance 0) and 37..52 (group 0 of
  // instance 1) are adjacent on air but belong to different groups.
  EXPECT_NE(layout.GroupKey(36), layout.GroupKey(37));
  EXPECT_EQ(layout.GroupKey(32), layout.GroupKey(36));
  EXPECT_EQ(layout.GroupKey(37), layout.GroupKey(52));
}

TEST(Crc32Test, CheckVectorAndSingleBitSensitivity) {
  // The canonical IEEE 802.3 check value.
  const uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(Crc32(check), 0xCBF43926u);

  uint8_t buf[120];
  for (size_t i = 0; i < sizeof(buf); ++i) {
    buf[i] = static_cast<uint8_t>(i * 37 + 11);
  }
  const uint32_t clean = Crc32(buf);
  for (size_t bit : {0u, 7u, 191u, 700u, 959u}) {
    uint8_t flipped[120];
    std::memcpy(flipped, buf, sizeof(buf));
    flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    EXPECT_NE(Crc32(flipped), clean) << "bit " << bit;
  }
}

/// The bytewise CRC-32 (reflected polynomial 0xEDB88320), one table
/// lookup per byte: the reference the table-sliced Crc32 must match.
uint32_t BytewiseCrc32(const std::vector<uint8_t>& bytes) {
  uint32_t table[256];
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  uint32_t crc = 0xFFFFFFFFu;
  for (uint8_t b : bytes) crc = table[(crc ^ b) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, MatchesBytewiseReferenceOnRandomBuffers) {
  Rng rng(2024);
  for (size_t len = 0; len <= 300; ++len) {
    for (int rep = 0; rep < 3; ++rep) {
      std::vector<uint8_t> buf(len);
      for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.NextBounded(256));
      EXPECT_EQ(Crc32(buf), BytewiseCrc32(buf)) << "length " << len;
      // Every alignment of the eight-byte steps, too.
      if (len > 3) {
        const std::vector<uint8_t> tail(buf.begin() + 3, buf.end());
        EXPECT_EQ(Crc32(std::span<const uint8_t>(buf).subspan(3)),
                  BytewiseCrc32(tail))
            << "length " << len << " from 3";
      }
    }
  }
}

BroadcastCycle MakeCycle(std::vector<size_t> segment_bytes) {
  CycleBuilder builder;
  for (size_t i = 0; i < segment_bytes.size(); ++i) {
    Segment seg;
    seg.type = SegmentType::kNetworkData;
    seg.id = static_cast<uint32_t>(i);
    seg.payload.assign(segment_bytes[i], static_cast<uint8_t>(i + 1));
    builder.Add(std::move(seg));
  }
  return std::move(builder).Finalize(/*require_index=*/false).value();
}

TEST(CorruptingChannelTest, CrcDetectionCountsSeparatelyFromLoss) {
  BroadcastCycle cycle = MakeCycle({4000, 2000});
  LossModel loss = LossModel::Of(0.0, 1, /*corrupt_bit=*/1e-4);
  BroadcastChannel channel(&cycle, loss, /*seed=*/99);
  ASSERT_TRUE(channel.corruption_enabled());

  ClientSession session(&channel, 0);
  uint64_t dropped = 0;
  const uint64_t listened = 4 * cycle.total_packets();
  for (uint64_t i = 0; i < listened; ++i) {
    if (!session.ReceiveNext().has_value()) ++dropped;
  }
  // No erasures configured: every discarded packet is a CRC failure.
  EXPECT_GT(session.corrupted_packets(), 0u);
  EXPECT_EQ(session.corrupted_packets(), dropped);
  // ~1e-4 * 1024 bits ~ 9.7% of packets; allow a wide deterministic band.
  EXPECT_LT(session.corrupted_packets(), listened / 2);

  // The corruption stream is salted independently of the loss stream:
  // enabling it must not change which packets are *lost*.
  BroadcastChannel lossy_clean(&cycle, LossModel::Independent(0.05), 7);
  BroadcastChannel lossy_dirty(&cycle, LossModel::Of(0.05, 1, 1e-4), 7);
  for (uint64_t pos = 0; pos < 4096; ++pos) {
    ASSERT_EQ(lossy_clean.IsLost(pos), lossy_dirty.IsLost(pos)) << pos;
  }
}

TEST(CorruptingChannelTest, CleanChannelNeverCorrupts) {
  BroadcastCycle cycle = MakeCycle({4000});
  BroadcastChannel channel(&cycle, LossModel::None(), 5);
  EXPECT_FALSE(channel.corruption_enabled());
  ClientSession session(&channel, 0);
  for (uint64_t i = 0; i < 2 * cycle.total_packets(); ++i) {
    ASSERT_TRUE(session.ReceiveNext().has_value());
  }
  EXPECT_EQ(session.corrupted_packets(), 0u);
}

TEST(FecStationTest, PositionAtInvertsTimeAtMsThroughParity) {
  BroadcastCycle cycle = MakeCycle({4000, 2000, 1000});
  StationOptions so;
  so.fec = FecScheme{16, 2};
  Station station(&cycle, so);
  const FecLayout& layout = station.channel(0).fec();

  // CycleMs stretches by the parity overhead.
  StationOptions plain;
  Station uncoded(&cycle, plain);
  EXPECT_DOUBLE_EQ(
      station.CycleMs() / uncoded.CycleMs(),
      static_cast<double>(layout.phys_cycle_packets()) /
          static_cast<double>(cycle.total_packets()));

  // A client arriving exactly when a data packet starts joins at it.
  for (uint64_t pos : {0ull, 1ull, 15ull, 16ull, 17ull, 100ull, 1000ull}) {
    EXPECT_EQ(station.PositionAt(station.TimeAtMs(pos, 0), 0), pos) << pos;
  }
  // Arriving inside a parity run joins at the next group's first packet.
  const double parity_ms =
      static_cast<double>(layout.ParitySlot(0, 0)) * station.SlotMs();
  EXPECT_EQ(station.PositionAt(parity_ms, 0), 16u);
}

}  // namespace
}  // namespace airindex::broadcast
