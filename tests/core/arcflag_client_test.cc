// The ArcFlag client's wire decoding: the packed flag decode against the
// per-region loop it replaced, and a header whose region count does not
// match the system.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "algo/arc_flags.h"
#include "broadcast/channel.h"
#include "broadcast/cycle.h"
#include "broadcast/packet.h"
#include "common/byte_io.h"
#include "common/rng.h"
#include "core/arcflag_on_air.h"
#include "core/query_scratch.h"
#include "graph/catalog.h"
#include "workload/workload.h"

namespace airindex::core {
namespace {

/// Random flag vector bytes for `arcs` arcs of `regions` u16 lanes. Each
/// lane is zero, low-byte-only, high-byte-only or both, a quarter each.
std::vector<uint8_t> RandomWire(Rng& rng, size_t arcs, uint32_t regions) {
  std::vector<uint8_t> wire(arcs * 2 * regions);
  for (size_t lane = 0; lane < arcs * regions; ++lane) {
    const uint64_t kind = rng.NextBounded(4);
    auto byte = [&](bool nonzero) {
      return nonzero ? static_cast<uint8_t>(1 + rng.NextBounded(255)) : 0;
    };
    wire[2 * lane] = byte(kind & 1);
    wire[2 * lane + 1] = byte(kind & 2);
  }
  return wire;
}

TEST(ArcFlagClientTest, PackArcFlagsMatchesPerRegionLoop) {
  Rng rng(41);
  for (uint32_t regions = 1; regions <= 64; ++regions) {
    const std::vector<uint8_t> wire = RandomWire(rng, 64, regions);
    for (size_t arc = 0; arc < 64; ++arc) {
      const uint8_t* bytes = wire.data() + arc * 2 * regions;
      uint64_t want = 0;
      for (uint32_t r = 0; r < regions; ++r) {
        if (GetU16(bytes + 2 * r) != 0) want |= uint64_t{1} << r;
      }
      uint64_t got = 0xDEADBEEF;  // overwritten, not or-ed into
      algo::PackArcFlags(bytes, regions, &got);
      EXPECT_EQ(got, want) << "regions=" << regions << " arc=" << arc;
    }
  }
}

TEST(ArcFlagClientTest, PackArcFlagsSeesHighByteOnlyLanes) {
  // 0x0100 per lane: the low byte is zero, the lane is not.
  const std::vector<uint8_t> wire = {0, 1, 0, 0, 0, 0x80, 0, 0, 0, 1};
  uint64_t got = 0;
  algo::PackArcFlags(wire.data(), 5, &got);
  EXPECT_EQ(got, 0b10101u);
}

/// The decode the packed path replaced: per arc, the §6.2 all-ones
/// fallback for bytes a lost packet touched, else one flag per nonzero
/// lane, into an ArcFlagIndex.
algo::ArcFlagIndex ScalarDecode(const broadcast::ReceivedSegment& seg,
                                size_t num_arcs, uint32_t regions) {
  algo::ArcFlagIndex idx =
      algo::ArcFlagIndex::MakeEmpty(num_arcs, regions, {});
  const size_t stride = 2 * static_cast<size_t>(regions);
  for (size_t arc = 0; arc < seg.payload.size() / stride; ++arc) {
    const size_t off = arc * stride;
    if (!seg.RangeOk(off, off + stride)) {
      idx.SetAllFlags(arc);
      continue;
    }
    for (uint32_t r = 0; r < regions; ++r) {
      if (GetU16(seg.payload.data() + off + 2 * r) != 0) {
        idx.SetArcFlag(arc, r);
      }
    }
  }
  return idx;
}

TEST(ArcFlagClientTest, SegmentDecodeMatchesScalarDecodeWithLostPackets) {
  Rng rng(43);
  for (uint32_t regions = 1; regions <= 64; ++regions) {
    const size_t arcs = 300;
    broadcast::ReceivedSegment seg;
    seg.type = broadcast::SegmentType::kAuxData;
    seg.segment_id = 1;  // arcs from 0
    seg.storage = RandomWire(rng, arcs, regions);
    seg.payload = seg.storage;
    const size_t packets =
        (seg.payload.size() + broadcast::kPayloadSize - 1) /
        broadcast::kPayloadSize;
    seg.packet_ok.assign(packets, true);
    for (size_t p = 0; p < packets; ++p) {
      if (rng.NextBounded(5) == 0) {
        seg.packet_ok[p] = false;
        // A lost packet's bytes are zero, as the receive leaves them.
        for (size_t b = p * broadcast::kPayloadSize;
             b < std::min(seg.payload.size(),
                          (p + 1) * broadcast::kPayloadSize);
             ++b) {
          seg.storage[b] = 0;
        }
      }
    }
    seg.complete = false;

    const algo::ArcFlagIndex want = ScalarDecode(seg, arcs, regions);
    const size_t words = algo::ArcFlagWords(regions);
    std::vector<uint64_t> got(arcs * words, 0);
    DecodeArcFlagSegment(seg, regions, got);
    for (size_t arc = 0; arc < arcs; ++arc) {
      for (size_t w = 0; w < words; ++w) {
        EXPECT_EQ(got[arc * words + w], want.ArcWords(arc)[w])
            << "regions=" << regions << " arc=" << arc;
      }
    }
  }
}

/// AF's cycle with its header's region count rewritten to `regions`.
broadcast::BroadcastCycle WithHeaderRegions(
    const broadcast::BroadcastCycle& cycle, uint16_t regions) {
  broadcast::CycleBuilder builder;
  for (size_t i = 0; i < cycle.num_segments(); ++i) {
    broadcast::Segment seg = cycle.segment(i);
    if (seg.type == broadcast::SegmentType::kAuxData && seg.id == 0) {
      seg.payload[0] = static_cast<uint8_t>(regions);
      seg.payload[1] = static_cast<uint8_t>(regions >> 8);
    }
    builder.Add(std::move(seg));
  }
  return std::move(builder).Finalize(/*require_index=*/false).value();
}

TEST(ArcFlagClientTest, HeaderWithForeignRegionCountFailsTheQuery) {
  const graph::Graph g =
      graph::MakeNetwork(graph::FindNetwork("Germany").value(), 0.1)
          .value();
  auto sys = ArcFlagOnAir::Build(g, 16);
  ASSERT_TRUE(sys.ok()) << sys.status().ToString();
  auto w = workload::GenerateWorkload(g, 4, 5);
  ASSERT_TRUE(w.ok());
  QueryScratch scratch;
  // 16 is the system's own count: the rebuilt cycle still answers.
  for (uint16_t regions : {16, 0, 3}) {
    const broadcast::BroadcastCycle cycle =
        WithHeaderRegions((*sys)->cycle(), regions);
    broadcast::BroadcastChannel channel(&cycle, 0.0);
    for (const auto& q : w->queries) {
      const device::QueryMetrics m =
          (*sys)->RunQuery(channel, MakeAirQuery(g, q), {}, &scratch);
      EXPECT_EQ(m.ok, regions == 16) << "regions=" << regions;
      if (regions == 16) {
        EXPECT_EQ(m.distance, q.true_dist);
      }
    }
  }
}

}  // namespace
}  // namespace airindex::core
