// Determinism and cold-path-equality suite for persistent-client sessions:
// sessions of one query with the cache disarmed must take the historical
// engine path bit-for-bit, and warm runs (sessions > 1, cache armed) must
// stay bit-identical across thread counts and repeated runs while actually
// cutting the selective-tuning systems' listening.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/systems.h"
#include "device/metrics.h"
#include "sim/event_engine.h"
#include "sim/simulator.h"
#include "testing/test_graphs.h"
#include "workload/workload.h"

namespace airindex::sim {
namespace {

using testing_support::SmallNetwork;

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
    workload::WorkloadSpec spec;
    spec.count = 12;
    spec.seed = 78;
    spec.arrival.kind = workload::ArrivalSpec::Kind::kPoisson;
    spec.arrival.rate_per_second = 30.0;
    fx->w = workload::GenerateWorkload(fx->g, spec).value();
    return fx;
  }();
  return f;
}

std::vector<const core::AirSystem*> AllSystems(const Fixture& f) {
  std::vector<const core::AirSystem*> ptrs;
  for (const auto& sys : f.systems) ptrs.push_back(sys.get());
  return ptrs;
}

EventOptions BaseOptions(broadcast::LossModel loss) {
  EventOptions eo;
  eo.loss = loss;
  eo.station_seed = 0x60551;
  eo.client.max_repair_cycles = 64;
  eo.client.repair_header = true;
  eo.deterministic = true;
  return eo;
}

void ExpectBatchesBitIdentical(const BatchResult& a, const BatchResult& b,
                               const char* what) {
  ASSERT_EQ(a.systems.size(), b.systems.size()) << what;
  for (size_t sidx = 0; sidx < a.systems.size(); ++sidx) {
    const auto& sa = a.systems[sidx];
    const auto& sb = b.systems[sidx];
    ASSERT_EQ(sa.per_query.size(), sb.per_query.size())
        << what << " " << sa.system;
    for (size_t i = 0; i < sa.per_query.size(); ++i) {
      EXPECT_EQ(sa.per_query[i], sb.per_query[i])
          << what << " " << sa.system << " query " << i;
    }
    EXPECT_EQ(sa.aggregate, sb.aggregate) << what << " " << sa.system;
  }
}

// Sessions of one query with a zero cache budget are the contract's "cold"
// configuration: the engine must take the historical one-shot path, so a
// run with the session fields spelled out explicitly is bit-identical to a
// run with defaulted options — at zero loss, independent loss, and bursty
// loss alike.
TEST(SessionDeterminismTest, ColdConfigurationMatchesHistoricalPath) {
  const Fixture& f = SharedFixture();
  auto ptrs = AllSystems(f);
  ASSERT_EQ(ptrs.size(), 7u);

  const broadcast::LossModel losses[3] = {
      broadcast::LossModel::None(),
      broadcast::LossModel::Independent(0.02),
      broadcast::LossModel::Bursty(0.02, 4),
  };
  for (const auto& loss : losses) {
    EventOptions historical = BaseOptions(loss);
    BatchResult before = EventEngine(f.g, historical).Run(ptrs, f.w);

    EventOptions cold = BaseOptions(loss);
    cold.session.queries = 1;
    cold.session.think_ms = 0.0;
    cold.cache_bytes = 0;
    BatchResult after = EventEngine(f.g, cold).Run(ptrs, f.w);

    ExpectBatchesBitIdentical(before, after, "cold equality");
    // Cold runs must not report session artifacts.
    EXPECT_EQ(after.session_queries, 1u);
    EXPECT_EQ(after.cache_bytes, 0u);
    for (const auto& s : after.systems) {
      EXPECT_EQ(s.aggregate.warm_queries, 0u) << s.system;
      for (const auto& m : s.per_query) {
        EXPECT_FALSE(m.warm);
        EXPECT_EQ(m.cache_hits, 0u);
      }
    }
  }
}

// Warm sessions keep the engine's cross-thread determinism contract: the
// same fleet at threads 1 and threads 4 is bit-identical, per query and
// in aggregate, for every system.
TEST(SessionDeterminismTest, WarmThreads1And4BitIdentical) {
  const Fixture& f = SharedFixture();
  auto ptrs = AllSystems(f);

  EventOptions eo = BaseOptions(broadcast::LossModel::Independent(0.02));
  eo.session.queries = 4;
  eo.session.think_ms = 100.0;
  eo.cache_bytes = 256u << 10;

  eo.threads = 1;
  BatchResult serial = EventEngine(f.g, eo).Run(ptrs, f.w);
  eo.threads = 4;
  BatchResult parallel = EventEngine(f.g, eo).Run(ptrs, f.w);

  EXPECT_EQ(serial.session_queries, 4u);
  EXPECT_EQ(serial.cache_bytes, 256u << 10);
  ExpectBatchesBitIdentical(serial, parallel, "warm threads 1 vs 4");
}

TEST(SessionDeterminismTest, RepeatedWarmRunsBitIdentical) {
  const Fixture& f = SharedFixture();
  std::vector<const core::AirSystem*> ptrs = {f.systems[1].get(),
                                              f.systems[2].get()};  // NR, EB
  EventOptions eo = BaseOptions(broadcast::LossModel::Independent(0.02));
  eo.session.queries = 4;
  eo.cache_bytes = 256u << 10;
  eo.threads = 2;
  BatchResult first = EventEngine(f.g, eo).Run(ptrs, f.w);
  BatchResult second = EventEngine(f.g, eo).Run(ptrs, f.w);
  ExpectBatchesBitIdentical(first, second, "repeat");
}

// The point of the cache: a warm EB/NR client skips the index tune-in, so
// sessions of 4 queries must strictly cut total tuning versus the one-shot
// fleet on the same workload, and the warm queries must say so in their
// metrics (warm flag, cache hits, warm_queries aggregate).
TEST(SessionDeterminismTest, WarmSessionsCutSelectiveTuning) {
  const Fixture& f = SharedFixture();
  for (size_t sidx : {1u, 2u}) {  // NR, EB
    const core::AirSystem& sys = *f.systems[sidx];

    EventOptions cold = BaseOptions(broadcast::LossModel::None());
    SystemResult cold_r = EventEngine(f.g, cold).RunSystem(sys, f.w);

    EventOptions warm = BaseOptions(broadcast::LossModel::None());
    warm.session.queries = 4;
    warm.cache_bytes = 256u << 10;
    SystemResult warm_r = EventEngine(f.g, warm).RunSystem(sys, f.w);

    uint64_t cold_tuning = 0;
    uint64_t warm_tuning = 0;
    for (const auto& m : cold_r.per_query) cold_tuning += m.tuning_packets;
    for (const auto& m : warm_r.per_query) warm_tuning += m.tuning_packets;
    EXPECT_LT(warm_tuning, cold_tuning) << sys.name();

    // 12 queries in sessions of 4 => 3 sessions; every non-first query of
    // a session is warm, and each warm query served something from cache.
    EXPECT_EQ(warm_r.aggregate.warm_queries, 9u) << sys.name();
    EXPECT_GT(warm_r.aggregate.cache_hits.max, 0.0) << sys.name();
    for (size_t i = 0; i < warm_r.per_query.size(); ++i) {
      const device::QueryMetrics& m = warm_r.per_query[i];
      EXPECT_EQ(m.warm, m.cache_hits > 0) << sys.name() << " query " << i;
      // Warm or cold, the session engine never drops a query.
      EXPECT_TRUE(m.ok) << sys.name() << " query " << i;
    }
  }
}

// Warm answers are still the right answers: path lengths from a warm
// session match the cold run query-for-query (the cache changes what the
// client listens to, never what it computes).
TEST(SessionDeterminismTest, WarmSessionsPreserveAnswers) {
  const Fixture& f = SharedFixture();
  auto ptrs = AllSystems(f);

  EventOptions cold = BaseOptions(broadcast::LossModel::Independent(0.02));
  BatchResult cold_b = EventEngine(f.g, cold).Run(ptrs, f.w);

  EventOptions warm = BaseOptions(broadcast::LossModel::Independent(0.02));
  warm.session.queries = 4;
  warm.cache_bytes = 256u << 10;
  BatchResult warm_b = EventEngine(f.g, warm).Run(ptrs, f.w);

  ASSERT_EQ(cold_b.systems.size(), warm_b.systems.size());
  for (size_t sidx = 0; sidx < cold_b.systems.size(); ++sidx) {
    const auto& c = cold_b.systems[sidx];
    const auto& w = warm_b.systems[sidx];
    ASSERT_EQ(c.per_query.size(), w.per_query.size());
    for (size_t i = 0; i < c.per_query.size(); ++i) {
      EXPECT_EQ(c.per_query[i].ok, w.per_query[i].ok)
          << c.system << " query " << i;
      EXPECT_EQ(c.per_query[i].distance, w.per_query[i].distance)
          << c.system << " query " << i;
    }
  }
}

}  // namespace
}  // namespace airindex::sim
