// Golden determinism test for the FEC-coded, corrupting channel: all seven
// systems at 2% loss with bit corruption, FEC on and off, must report
// byte-identical QueryMetrics across thread counts and scratch reuse
// patterns — the coded channel keeps every determinism contract the clean
// channel has. Plus the analytic pin of what FEC buys: a single lost
// packet inside a parity group is reconstructed in the same cycle pass,
// costing zero extra cycles.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "broadcast/channel.h"
#include "broadcast/cycle.h"
#include "broadcast/fec.h"
#include "core/query_scratch.h"
#include "core/systems.h"
#include "device/metrics.h"
#include "sim/simulator.h"
#include "testing/test_graphs.h"
#include "workload/workload.h"

namespace airindex::sim {
namespace {

using testing_support::SmallNetwork;

constexpr uint64_t kLossSeed = 0x60551;
constexpr broadcast::FecScheme kFec{16, 2};

broadcast::LossModel DirtyChannel() {
  return broadcast::LossModel::Of(0.02, 1, /*corrupt_bit=*/5e-5);
}

struct Fixture {
  graph::Graph g;
  std::vector<std::unique_ptr<core::AirSystem>> systems;
  workload::Workload w;
};

const Fixture& SharedFixture() {
  static const Fixture& f = *[] {
    auto* fx = new Fixture();
    fx->g = SmallNetwork(300, 480, 77);
    core::SystemParams params;
    params.arcflag_regions = 8;
    params.eb_regions = 8;
    params.nr_regions = 8;
    params.landmarks = 3;
    params.hiti_regions = 8;
    fx->systems = core::BuildSystems(fx->g, core::kAllSystems, params).value();
    fx->w = workload::GenerateWorkload(fx->g, 12, 78).value();
    return fx;
  }();
  return f;
}

device::QueryMetrics RunOne(const Fixture& f, const core::AirSystem& sys,
                            size_t i, broadcast::FecScheme fec,
                            core::QueryScratch* scratch) {
  broadcast::BroadcastChannel channel(&sys.cycle(), DirtyChannel(),
                                      QueryLossSeed(kLossSeed, i), fec);
  device::QueryMetrics m = sys.RunQuery(
      channel, core::MakeAirQuery(f.g, f.w.queries[i]), {}, scratch);
  m.cpu_ms = 0.0;  // the one wall-clock field
  return m;
}

TEST(FecDeterminismTest, ScratchReuseIsCleanOnTheCodedChannel) {
  const Fixture& f = SharedFixture();
  ASSERT_EQ(f.systems.size(), 7u);
  for (broadcast::FecScheme fec : {broadcast::FecScheme::None(), kFec}) {
    for (const auto& sys : f.systems) {
      core::QueryScratch reused;
      for (size_t i = 0; i < f.w.queries.size(); ++i) {
        core::QueryScratch fresh;
        const auto with_fresh = RunOne(f, *sys, i, fec, &fresh);
        const auto with_reused = RunOne(f, *sys, i, fec, &reused);
        EXPECT_EQ(with_fresh, with_reused) << sys->name() << " query " << i;
      }
    }
  }
}

TEST(FecDeterminismTest, EngineThreads1And4BitIdenticalFecOnAndOff) {
  const Fixture& f = SharedFixture();
  std::vector<const core::AirSystem*> ptrs;
  for (const auto& sys : f.systems) ptrs.push_back(sys.get());

  for (broadcast::FecScheme fec : {broadcast::FecScheme::None(), kFec}) {
    SimOptions so;
    so.loss = DirtyChannel();
    so.loss_seed = kLossSeed;
    so.fec = fec;
    so.deterministic = true;

    so.threads = 1;
    BatchResult serial = Simulator(f.g, so).Run(ptrs, f.w);
    so.threads = 4;
    BatchResult parallel = Simulator(f.g, so).Run(ptrs, f.w);

    ASSERT_EQ(serial.systems.size(), parallel.systems.size());
    uint64_t corrupted = 0;
    uint64_t recovered = 0;
    for (size_t sidx = 0; sidx < serial.systems.size(); ++sidx) {
      const auto& a = serial.systems[sidx];
      const auto& b = parallel.systems[sidx];
      ASSERT_EQ(a.per_query.size(), b.per_query.size());
      for (size_t i = 0; i < a.per_query.size(); ++i) {
        EXPECT_EQ(a.per_query[i], b.per_query[i])
            << a.system << " query " << i << " parity "
            << fec.parity_per_group;
        corrupted += a.per_query[i].corrupted_packets;
        recovered += a.per_query[i].fec_recovered;
      }
    }
    // The dirty channel must actually exercise the new machinery.
    EXPECT_GT(corrupted, 0u) << "parity " << fec.parity_per_group;
    if (fec.enabled()) {
      EXPECT_GT(recovered, 0u);
    }
  }
}

TEST(FecDeterminismTest, FecOffAndCleanBitsMatchTheLegacyChannel) {
  // LossModel::Of(rate, 1, 0.0) with FecScheme::None() must be the
  // historical channel bit for bit — this is the no-flags byte-identity
  // contract at the metrics level.
  core::QueryScratch scratch;
  const Fixture& f = SharedFixture();
  for (const auto& sys : f.systems) {
    for (size_t i = 0; i < f.w.queries.size(); ++i) {
      broadcast::BroadcastChannel legacy(
          &sys->cycle(), broadcast::LossModel::Independent(0.02),
          QueryLossSeed(kLossSeed, i));
      broadcast::BroadcastChannel gated(
          &sys->cycle(), broadcast::LossModel::Of(0.02, 1, 0.0),
          QueryLossSeed(kLossSeed, i), broadcast::FecScheme::None());
      auto qa = core::MakeAirQuery(f.g, f.w.queries[i]);
      auto qb = core::MakeAirQuery(f.g, f.w.queries[i]);
      device::QueryMetrics a = sys->RunQuery(legacy, qa, {}, &scratch);
      device::QueryMetrics b = sys->RunQuery(gated, qb, {}, &scratch);
      a.cpu_ms = b.cpu_ms = 0.0;
      EXPECT_EQ(a, b) << sys->name() << " query " << i;
    }
  }
}

broadcast::BroadcastCycle OneSegmentCycle(size_t packets) {
  broadcast::CycleBuilder builder;
  broadcast::Segment seg;
  seg.type = broadcast::SegmentType::kNetworkData;
  seg.id = 0;
  seg.payload.assign(packets * broadcast::kPayloadSize, 0xAB);
  builder.Add(std::move(seg));
  return std::move(builder).Finalize(/*require_index=*/false).value();
}

TEST(FecDeterminismTest, SingleLossInParityGroupCostsZeroExtraCycles) {
  // Find a loss realization with exactly one lost data packet in the
  // segment and that packet's parity intact; the coded client must finish
  // the segment within one cycle pass (no repair rebroadcast), while the
  // uncoded client cannot.
  const auto cycle = OneSegmentCycle(30);
  const uint64_t len = cycle.total_packets();
  ASSERT_EQ(len, 30u);
  const auto loss = broadcast::LossModel::Independent(0.02);

  bool pinned = false;
  for (uint64_t seed = 1; seed < 400 && !pinned; ++seed) {
    broadcast::BroadcastChannel coded(&cycle, loss, seed, kFec);
    uint64_t lost = 0;
    uint64_t lost_pos = 0;
    for (uint64_t pos = 0; pos < len; ++pos) {
      if (coded.SlotLost(coded.PhysicalSlot(pos))) {
        ++lost;
        lost_pos = pos;
      }
    }
    if (lost != 1) continue;
    bool parity_ok = true;
    for (uint32_t j = 0; j < kFec.parity_per_group; ++j) {
      const uint64_t ps =
          coded.PhysicalOfFecSlot(coded.fec().ParitySlot(lost_pos, j));
      if (coded.SlotLost(ps)) parity_ok = false;
    }
    if (!parity_ok) continue;
    pinned = true;

    broadcast::ClientSession session(&coded, 0);
    broadcast::ReceivedSegment seg;
    broadcast::ReceiveSegmentAt(session, 0, &seg);
    EXPECT_TRUE(seg.complete) << "seed " << seed;
    EXPECT_EQ(session.fec_recovered(), 1u);
    // Zero extra cycles: the client never advanced past the first pass.
    EXPECT_LE(session.position(), len);
    EXPECT_LE(session.latency_packets(), len);

    // Control: the uncoded client is left with a hole after one pass.
    broadcast::BroadcastChannel plain(&cycle, loss, seed);
    broadcast::ClientSession control(&plain, 0);
    broadcast::ReceivedSegment hole;
    broadcast::ReceiveSegmentAt(control, 0, &hole);
    EXPECT_FALSE(hole.complete) << "seed " << seed;
  }
  ASSERT_TRUE(pinned) << "no seed with a lone recoverable loss found";
}

}  // namespace
}  // namespace airindex::sim
