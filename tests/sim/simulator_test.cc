#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/systems.h"
#include "testing/test_graphs.h"
#include "workload/workload.h"

namespace airindex::sim {
namespace {

using testing_support::SmallNetwork;

/// The engine's headline guarantee: fanning clients across threads changes
/// nothing about the simulation. Every per-query metric and every
/// aggregate must be identical between a serial and a parallel run, for
/// all seven systems, with packet loss on.
class SimulatorDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    g_ = SmallNetwork(400, 640, 77);
    core::SystemParams params;
    params.arcflag_regions = 8;
    params.eb_regions = 8;
    params.nr_regions = 8;
    params.landmarks = 3;
    params.hiti_regions = 8;
    systems_ = core::BuildSystems(g_, core::kAllSystems, params).value();
    workload_ = workload::GenerateWorkload(g_, 16, 99).value();
  }

  SimOptions Options(unsigned threads) const {
    SimOptions so;
    so.threads = threads;
    so.loss = broadcast::LossModel::Independent(0.02);
    so.loss_seed = 4242;
    so.client.max_repair_cycles = 64;
    so.deterministic = true;  // cpu_ms is wall-clock; zero it for equality
    return so;
  }

  graph::Graph g_;
  std::vector<std::unique_ptr<core::AirSystem>> systems_;
  workload::Workload workload_;
};

TEST_F(SimulatorDeterminismTest, ParallelRunsBitIdenticalToSerial) {
  Simulator serial(g_, Options(1));
  Simulator parallel(g_, Options(4));
  for (const auto& sys : systems_) {
    SystemResult a = serial.RunSystem(*sys, workload_);
    SystemResult b = parallel.RunSystem(*sys, workload_);
    ASSERT_EQ(a.per_query.size(), b.per_query.size());
    for (size_t i = 0; i < a.per_query.size(); ++i) {
      EXPECT_EQ(a.per_query[i], b.per_query[i])
          << sys->name() << " query " << i;
    }
    EXPECT_EQ(a.aggregate, b.aggregate) << sys->name();
  }
}

TEST_F(SimulatorDeterminismTest, RerunsAreIdentical) {
  Simulator simulator(g_, Options(4));
  const auto& sys = *systems_.front();
  SystemResult a = simulator.RunSystem(sys, workload_);
  SystemResult b = simulator.RunSystem(sys, workload_);
  EXPECT_EQ(a.aggregate, b.aggregate);
}

TEST_F(SimulatorDeterminismTest, LossSeedSelectsDistinctStreams) {
  // Different batch seeds must produce different loss patterns (else every
  // "run" of the experiment would sample the same channel).
  SimOptions a = Options(2);
  SimOptions b = Options(2);
  b.loss_seed = a.loss_seed + 1;
  const auto& dj = *systems_.front();
  SystemResult ra = Simulator(g_, a).RunSystem(dj, workload_);
  SystemResult rb = Simulator(g_, b).RunSystem(dj, workload_);
  EXPECT_NE(ra.aggregate.tuning_packets.mean,
            rb.aggregate.tuning_packets.mean);
}

TEST(QueryLossSeedTest, DerivedStreamsAreStableAndDistinct) {
  EXPECT_EQ(QueryLossSeed(123, 0), QueryLossSeed(123, 0));
  EXPECT_NE(QueryLossSeed(123, 0), QueryLossSeed(123, 1));
  EXPECT_NE(QueryLossSeed(123, 0), QueryLossSeed(124, 0));
}

TEST(SimulatorBatchTest, RunCoversEverySystemInOrder) {
  graph::Graph g = SmallNetwork(300, 480, 5);
  auto systems = core::BuildSystems(g, core::kMainSystems, {}).value();
  auto w = workload::GenerateWorkload(g, 8, 11).value();

  std::vector<const core::AirSystem*> ptrs;
  for (const auto& s : systems) ptrs.push_back(s.get());

  SimOptions so;
  so.threads = 0;  // one per available CPU
  so.deterministic = true;
  BatchResult batch = Simulator(g, so).Run(ptrs, w);

  ASSERT_EQ(batch.systems.size(), systems.size());
  EXPECT_EQ(batch.num_queries, w.queries.size());
  for (size_t i = 0; i < systems.size(); ++i) {
    EXPECT_EQ(batch.systems[i].system, systems[i]->name());
    EXPECT_EQ(batch.systems[i].aggregate.failures, 0u)
        << batch.systems[i].system;
    EXPECT_GT(batch.systems[i].queries_per_second, 0.0);
  }
}

}  // namespace
}  // namespace airindex::sim
