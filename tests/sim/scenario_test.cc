#include "sim/scenario.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "device/energy.h"
#include "device/profile_catalog.h"
#include "sim/scenario_catalog.h"

namespace airindex::sim {
namespace {

/// A two-group heterogeneous scenario small enough for unit tests: tiny
/// catalog network, two systems, different device/bitrate/loss per group.
Scenario SmallScenario() {
  Scenario s;
  s.name = "test-fleet";
  s.network = "Milan";
  s.scale = 0.02;
  s.seed = 7;
  s.total_queries = 12;
  s.systems = {"DJ", "NR"};
  s.params.nr_regions = 8;

  ClientGroupSpec phones;
  phones.name = "phones";
  phones.weight = 2.0;
  s.groups.push_back(phones);

  ClientGroupSpec sensors;
  sensors.name = "sensors";
  sensors.weight = 1.0;
  sensors.profile = "iot-sensor";
  sensors.bits_per_second = device::kBitrateMoving3G;
  sensors.loss = broadcast::LossModel::Bursty(0.02, 4);
  sensors.client.max_repair_cycles = 64;
  s.groups.push_back(sensors);
  return s;
}

TEST(ResolveGroupCountsTest, WeightsSplitTheBudget) {
  Scenario s = SmallScenario();
  auto counts = ResolveGroupCounts(s);
  ASSERT_TRUE(counts.ok()) << counts.status().ToString();
  EXPECT_EQ((*counts)[0], 8u);
  EXPECT_EQ((*counts)[1], 4u);
}

TEST(ResolveGroupCountsTest, ExplicitCountsWinOverWeights) {
  Scenario s = SmallScenario();
  s.groups[0].queries = 5;
  auto counts = ResolveGroupCounts(s);
  ASSERT_TRUE(counts.ok());
  EXPECT_EQ((*counts)[0], 5u);
  EXPECT_EQ((*counts)[1], 7u);  // the rest of the 12-query budget
}

TEST(ResolveGroupCountsTest, RejectsZeroAllocations) {
  Scenario s = SmallScenario();
  s.total_queries = 1;
  s.groups[0].queries = 1;
  EXPECT_FALSE(ResolveGroupCounts(s).ok());
}

TEST(ResolveGroupCountsTest, RejectsNonPositiveAndNonFiniteWeights) {
  // Regression: a NaN weight compares false against <= 0, so the old
  // guard waved it into the largest-remainder division where it poisoned
  // every group's share (counts of 0 everywhere, then an infinite
  // remainder loop on some libcs). All-zero weights divided 0/0 the same
  // way. Both must be rejected with the offending group named.
  Scenario nan_weight = SmallScenario();
  nan_weight.groups[1].weight = std::nan("");
  auto r = ResolveGroupCounts(nan_weight);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("sensors"), std::string::npos);

  Scenario zero_weights = SmallScenario();
  for (auto& g : zero_weights.groups) g.weight = 0.0;
  EXPECT_FALSE(ResolveGroupCounts(zero_weights).ok());

  Scenario inf_weight = SmallScenario();
  inf_weight.groups[0].weight = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(ResolveGroupCounts(inf_weight).ok());
}

class ScenarioRunnerTest : public ::testing::Test {
 protected:
  static ScenarioResult RunDeterministic(const Scenario& s,
                                         unsigned threads) {
    ScenarioRunner::RunOptions ro;
    ro.threads = threads;
    ro.deterministic = true;
    auto result = ScenarioRunner(ro).Run(s);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).value();
  }
};

TEST_F(ScenarioRunnerTest, FleetAggregateEqualsMergeOfGroups) {
  const ScenarioResult r = RunDeterministic(SmallScenario(), 1);
  ASSERT_EQ(r.groups.size(), 2u);
  ASSERT_EQ(r.fleet.size(), 2u);
  EXPECT_EQ(r.num_queries, 12u);

  for (size_t si = 0; si < r.fleet.size(); ++si) {
    // Independent re-merge: concatenate every group's per-query metrics
    // and price each group's energy under its own device/bitrate.
    std::vector<device::QueryMetrics> metrics;
    std::vector<double> joules;
    for (const GroupResult& gr : r.groups) {
      const device::EnergyModel energy(
          device::FindProfile(gr.spec.profile).value(),
          gr.spec.bits_per_second);
      for (const auto& m : gr.systems[si].per_query) {
        metrics.push_back(m);
        joules.push_back(energy.QueryJoules(m));
      }
    }
    const Aggregate expected =
        Aggregate::Of(r.fleet[si].system, metrics, joules);
    EXPECT_EQ(r.fleet[si].aggregate, expected) << r.fleet[si].system;
    EXPECT_EQ(r.fleet[si].aggregate.queries, r.num_queries);
  }
}

TEST_F(ScenarioRunnerTest, EventScenarioGroupsShareOneStation) {
  // The shared-station contract at the scenario level: every group of an
  // event scenario derives the *same* station seed, so twin groups with
  // identical loss model, bitrate, workload, and arrivals observe the
  // exact same channel realization — byte-identical per-query metrics.
  // (The batch engine deliberately keeps per-group streams instead.)
  Scenario s;
  s.name = "twin-stations";
  s.network = "Milan";
  s.scale = 0.02;
  s.seed = 7;
  s.engine = "event";
  s.total_queries = 8;
  s.systems = {"DJ"};

  ClientGroupSpec twin;
  twin.name = "a";
  twin.weight = 1.0;
  twin.loss = broadcast::LossModel::Independent(0.02);
  twin.client.max_repair_cycles = 64;
  twin.workload.seed = 4242;  // pin: identical queries in both groups
  twin.workload.arrival.kind = workload::ArrivalSpec::Kind::kPoisson;
  twin.workload.arrival.rate_per_second = 10.0;
  twin.workload.arrival.seed = 77;  // pin: identical arrival instants
  s.groups.push_back(twin);
  twin.name = "b";
  s.groups.push_back(twin);

  const ScenarioResult r = RunDeterministic(s, 1);
  ASSERT_EQ(r.groups.size(), 2u);
  EXPECT_EQ(r.engine, "event");
  EXPECT_EQ(r.groups[0].loss_seed, r.groups[1].loss_seed);
  ASSERT_EQ(r.groups[0].systems.size(), 1u);
  EXPECT_EQ(r.groups[0].systems[0].per_query,
            r.groups[1].systems[0].per_query);
}

TEST_F(ScenarioRunnerTest, GroupsDifferingOnlyInLossAreThreadInvariant) {
  // The acceptance shape: two groups identical except for the loss model
  // must produce bit-identical aggregates at 1 and 4 threads.
  Scenario s = SmallScenario();
  s.groups[1] = s.groups[0];
  s.groups[1].name = "bursty";
  s.groups[1].loss = broadcast::LossModel::Bursty(0.02, 8);
  s.groups[1].client.max_repair_cycles = 64;
  s.groups[0].loss = broadcast::LossModel::Independent(0.02);
  s.groups[0].client.max_repair_cycles = 64;

  const ScenarioResult serial = RunDeterministic(s, 1);
  const ScenarioResult parallel = RunDeterministic(s, 4);
  ASSERT_EQ(serial.groups.size(), parallel.groups.size());
  for (size_t gi = 0; gi < serial.groups.size(); ++gi) {
    ASSERT_EQ(serial.groups[gi].systems.size(),
              parallel.groups[gi].systems.size());
    for (size_t si = 0; si < serial.groups[gi].systems.size(); ++si) {
      EXPECT_EQ(serial.groups[gi].systems[si].per_query,
                parallel.groups[gi].systems[si].per_query);
      EXPECT_EQ(serial.groups[gi].systems[si].aggregate,
                parallel.groups[gi].systems[si].aggregate);
    }
  }
  for (size_t si = 0; si < serial.fleet.size(); ++si) {
    EXPECT_EQ(serial.fleet[si].aggregate, parallel.fleet[si].aggregate);
  }
  // The two loss models genuinely differ in effect.
  EXPECT_NE(serial.groups[0].systems[0].aggregate.latency_packets,
            serial.groups[1].systems[0].aggregate.latency_packets);
}

TEST_F(ScenarioRunnerTest, ReportJsonRoundTrips) {
  const ScenarioResult r = RunDeterministic(SmallScenario(), 1);
  const std::string json = ScenarioReportToJson(r);
  EXPECT_NE(json.find(kScenarioSchema), std::string::npos);

  auto parsed = ScenarioReportFromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->scenario, r.scenario);
  EXPECT_EQ(parsed->network, r.network);
  EXPECT_EQ(parsed->num_queries, r.num_queries);
  ASSERT_EQ(parsed->groups.size(), r.groups.size());
  for (size_t gi = 0; gi < r.groups.size(); ++gi) {
    EXPECT_EQ(parsed->groups[gi].spec.name, r.groups[gi].spec.name);
    EXPECT_EQ(parsed->groups[gi].spec.loss.burst_len,
              r.groups[gi].spec.loss.burst_len);
    for (size_t si = 0; si < r.groups[gi].systems.size(); ++si) {
      EXPECT_EQ(parsed->groups[gi].systems[si].aggregate,
                r.groups[gi].systems[si].aggregate);
    }
  }
  ASSERT_EQ(parsed->fleet.size(), r.fleet.size());
  for (size_t si = 0; si < r.fleet.size(); ++si) {
    EXPECT_EQ(parsed->fleet[si].aggregate, r.fleet[si].aggregate);
  }
  // Serialization is a fixed point.
  EXPECT_EQ(ScenarioReportToJson(*parsed), json);
}

TEST(ScenarioSpecJsonTest, ParsesAFullSpec) {
  const char* json = R"({
    "schema": "airindex.sim.scenario/v1",
    "name": "commute",
    "description": "two-group commute",
    "network": "Milan",
    "scale": 0.05,
    "seed": 42,
    "total_queries": 30,
    "systems": ["NR", "EB"],
    "params": {"nr_regions": 8, "eb_regions": 8},
    "groups": [
      {
        "name": "commuters",
        "weight": 2,
        "profile": "smartphone",
        "bits_per_second": 384000,
        "loss": {"rate": 0.01, "burst_len": 4},
        "client": {"memory_bound": true, "max_repair_cycles": 32},
        "workload": {
          "destinations": "zipf", "zipf_s": 1.3,
          "sources": "clustered", "partition_regions": 8,
          "source_regions": [0, 1],
          "phases": "rush-hour", "phase_peak": 0.4, "phase_width": 0.1
        }
      },
      {"name": "rest", "queries": 10}
    ]
  })";
  auto s = ScenarioFromJson(json);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  EXPECT_EQ(s->name, "commute");
  EXPECT_EQ(s->network, "Milan");
  EXPECT_EQ(s->seed, 42u);
  EXPECT_EQ(s->total_queries, 30u);
  EXPECT_EQ(s->systems, (std::vector<std::string>{"NR", "EB"}));
  EXPECT_EQ(s->params.nr_regions, 8u);
  ASSERT_EQ(s->groups.size(), 2u);

  const ClientGroupSpec& g = s->groups[0];
  EXPECT_EQ(g.profile, "smartphone");
  EXPECT_EQ(g.bits_per_second, 384000.0);
  EXPECT_EQ(g.loss.rate, 0.01);
  EXPECT_EQ(g.loss.burst_len, 4u);
  EXPECT_TRUE(g.client.memory_bound);
  EXPECT_EQ(g.client.max_repair_cycles, 32);
  EXPECT_EQ(g.workload.dest, workload::WorkloadSpec::Dest::kZipf);
  EXPECT_EQ(g.workload.zipf_s, 1.3);
  EXPECT_EQ(g.workload.source, workload::WorkloadSpec::Source::kClustered);
  EXPECT_EQ(g.workload.source_regions, (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(g.workload.phase, workload::WorkloadSpec::Phase::kRushHour);
  EXPECT_EQ(s->groups[1].queries, 10u);
}

TEST(ScenarioSpecJsonTest, SpecSerializationRoundTrips) {
  for (const Scenario& s : ScenarioCatalog()) {
    const std::string json = ScenarioToJson(s);
    auto parsed = ScenarioFromJson(json);
    ASSERT_TRUE(parsed.ok()) << s.name << ": "
                             << parsed.status().ToString();
    EXPECT_EQ(parsed->name, s.name);
    EXPECT_EQ(parsed->network, s.network);
    EXPECT_EQ(parsed->total_queries, s.total_queries);
    ASSERT_EQ(parsed->groups.size(), s.groups.size()) << s.name;
    for (size_t gi = 0; gi < s.groups.size(); ++gi) {
      EXPECT_EQ(parsed->groups[gi].workload, s.groups[gi].workload)
          << s.name << " group " << gi;
      EXPECT_EQ(parsed->groups[gi].profile, s.groups[gi].profile);
      EXPECT_EQ(parsed->groups[gi].loss.burst_len,
                s.groups[gi].loss.burst_len);
      EXPECT_EQ(parsed->groups[gi].loss.corrupt_bit,
                s.groups[gi].loss.corrupt_bit);
      EXPECT_EQ(parsed->groups[gi].fec.data_per_group,
                s.groups[gi].fec.data_per_group);
      EXPECT_EQ(parsed->groups[gi].fec.parity_per_group,
                s.groups[gi].fec.parity_per_group);
    }
  }
}

TEST(ScenarioSpecJsonTest, RejectsBadWeightsAtParseTime) {
  // The spec parser names the offending group instead of letting the
  // runner trip over a poisoned allocation later. "weight": null is how a
  // NaN reaches the parser (the JSON reader maps null to NaN).
  auto nan_weight = ScenarioFromJson(R"({
    "schema": "airindex.sim.scenario/v1", "name": "x",
    "groups": [{"name": "broken", "weight": null}]
  })");
  ASSERT_FALSE(nan_weight.ok());
  EXPECT_NE(nan_weight.status().ToString().find("broken"),
            std::string::npos);
  EXPECT_NE(nan_weight.status().ToString().find("non-finite"),
            std::string::npos);

  auto zero_weight = ScenarioFromJson(R"({
    "schema": "airindex.sim.scenario/v1", "name": "x",
    "groups": [{"name": "idle", "weight": 0}]
  })");
  ASSERT_FALSE(zero_weight.ok());
  EXPECT_NE(zero_weight.status().ToString().find("idle"),
            std::string::npos);

  // An explicit query count makes the weight irrelevant.
  EXPECT_TRUE(ScenarioFromJson(R"({
    "schema": "airindex.sim.scenario/v1", "name": "x",
    "groups": [{"name": "pinned", "queries": 4, "weight": 0}]
  })")
                  .ok());
}

TEST(ScenarioSpecJsonTest, ParsesFecAndCorruption) {
  auto s = ScenarioFromJson(R"({
    "schema": "airindex.sim.scenario/v1", "name": "coded",
    "groups": [{
      "name": "tunnel", "queries": 4,
      "loss": {"rate": 0.02, "burst_len": 8, "corrupt_bit": 2e-5},
      "fec": {"data_per_group": 16, "parity_per_group": 2}
    }]
  })");
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  const ClientGroupSpec& g = s->groups[0];
  EXPECT_EQ(g.loss.corrupt_bit, 2e-5);
  EXPECT_EQ(g.fec.data_per_group, 16u);
  EXPECT_EQ(g.fec.parity_per_group, 2u);
  EXPECT_TRUE(g.fec.enabled());

  // And they survive the writer.
  auto back = ScenarioFromJson(ScenarioToJson(*s));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->groups[0].loss.corrupt_bit, 2e-5);
  EXPECT_EQ(back->groups[0].fec.parity_per_group, 2u);

  // Out-of-contract values are rejected, not clamped.
  EXPECT_FALSE(ScenarioFromJson(R"({
    "schema": "airindex.sim.scenario/v1", "name": "x",
    "groups": [{"name": "g", "queries": 1,
                "fec": {"data_per_group": 16, "parity_per_group": 17}}]
  })")
                   .ok());
  EXPECT_FALSE(ScenarioFromJson(R"({
    "schema": "airindex.sim.scenario/v1", "name": "x",
    "groups": [{"name": "g", "queries": 1,
                "loss": {"rate": 0.0, "corrupt_bit": 1.0}}]
  })")
                   .ok());
}

TEST(ScenarioSpecJsonTest, RejectsNumbersOutsideTheirUint32Fields) {
  // Each of these fields is stored as a uint32_t. A value past 2^32 - 1 or
  // a fraction is rejected by name instead of being wrapped or truncated.
  auto parse = [](const std::string& schedule, const std::string& regions) {
    return ScenarioFromJson(
        R"({"schema": "airindex.sim.scenario/v1", "name": "x",
            "schedule": )" +
        schedule + R"(,
            "groups": [{"name": "g", "queries": 1,
                        "workload": {"sources": "clustered",
                                     "source_regions": )" +
        regions + "}}]}");
  };
  auto rejects = [&](const std::string& schedule, const std::string& regions,
                     const std::string& field) {
    auto s = parse(schedule, regions);
    ASSERT_FALSE(s.ok()) << schedule << " " << regions;
    EXPECT_EQ(s.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(s.status().ToString().find(field), std::string::npos)
        << s.status().ToString();
  };
  const std::string disks = R"({"mode": "disks", "disks": 2, "rates": )";
  const std::string online = R"({"mode": "online", "replan_cycles": )";
  ASSERT_TRUE(parse(disks + "[4, 1]}", "[0, 1]").ok());
  ASSERT_TRUE(parse(online + "4294967295}", "[4294967295]").ok());

  rejects(disks + "[1e10, 1]}", "[0]", "rates");
  rejects(disks + "[2.5, 1]}", "[0]", "rates");
  rejects(disks + "[4294967296, 1]}", "[0]", "rates");
  rejects(online + "4294967296}", "[0]", "replan_cycles");
  rejects(online + "8589934593}", "[0]", "replan_cycles");
  rejects(R"({"mode": "flat"})", "[1e10]", "source_regions");
  rejects(R"({"mode": "flat"})", "[-1]", "source_regions");
  rejects(R"({"mode": "flat"})", "[0.5]", "source_regions");
}

TEST(ScenarioSpecJsonTest, DecodesStandardStringEscapes) {
  // Hand-written spec files may use any standard JSON escape, not just
  // the \" and \\ this library's writers emit.
  const char* json = R"({
    "schema": "airindex.sim.scenario/v1",
    "name": "esc",
    "description": "line1\nline2 \u00e9 tab\there",
    "groups": [{"name": "g"}]
  })";
  auto s = ScenarioFromJson(json);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  EXPECT_EQ(s->description, "line1\nline2 \xC3\xA9 tab\there");
  EXPECT_FALSE(ScenarioFromJson(R"({"schema": "airindex.sim.scenario/v1",
    "name": "bad\q", "groups": [{"name": "g"}]})")
                   .ok());
}

TEST(ScenarioSpecJsonTest, RejectsGarbage) {
  EXPECT_FALSE(ScenarioFromJson("nope").ok());
  EXPECT_FALSE(ScenarioFromJson("{}").ok());
  EXPECT_FALSE(
      ScenarioFromJson(R"({"schema": "other/v1", "name": "x"})").ok());
  // Schema right but no groups.
  EXPECT_FALSE(ScenarioFromJson(
                   R"({"schema": "airindex.sim.scenario/v1", "name": "x"})")
                   .ok());
  // A report is not a spec: ScenarioReportFromJson requires "fleet".
  EXPECT_FALSE(ScenarioReportFromJson(
                   R"({"schema": "airindex.sim.scenario/v1", "name": "x"})")
                   .ok());
}

TEST(ScenarioCatalogTest, EveryBuiltinCompilesAndRunsTiny) {
  for (const Scenario& entry : ScenarioCatalog()) {
    Scenario s = entry;
    // Smoke scale: shrink the network and the fleet, keep the group
    // structure and every system under test.
    s.scale = 0.02;
    for (auto& g : s.groups) {
      g.queries = 0;
      g.weight = 1.0;
    }
    s.total_queries = 2 * s.groups.size();

    ScenarioRunner::RunOptions ro;
    ro.threads = 1;
    ro.deterministic = true;
    auto result = ScenarioRunner(ro).Run(s);
    ASSERT_TRUE(result.ok()) << s.name << ": "
                             << result.status().ToString();
    EXPECT_EQ(result->num_queries, s.total_queries) << s.name;
    EXPECT_EQ(result->fleet.size(), s.EffectiveSystems().size()) << s.name;
    for (const auto& fleet : result->fleet) {
      EXPECT_LT(fleet.aggregate.failures, fleet.aggregate.queries)
          << s.name << " " << fleet.system;
    }
  }
}

TEST(ScenarioCatalogTest, FindScenarioReportsKnownNames) {
  EXPECT_TRUE(FindScenario("paper-baseline").ok());
  auto miss = FindScenario("no-such-scenario");
  ASSERT_FALSE(miss.ok());
  EXPECT_NE(miss.status().ToString().find("paper-baseline"),
            std::string::npos);
}

}  // namespace
}  // namespace airindex::sim
