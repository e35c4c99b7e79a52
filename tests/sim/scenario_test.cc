#include "sim/scenario.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "device/energy.h"
#include "device/profile_catalog.h"
#include "sim/json.h"
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

/// The parsed report and the key set of one of its objects.
jsonutil::JsonValue ParseReport(const ScenarioResult& r) {
  auto parsed = jsonutil::ParseJson(ScenarioReportToJson(r));
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return parsed.ok() ? *parsed : jsonutil::JsonValue{};
}

std::set<std::string> Keys(const jsonutil::JsonValue& obj) {
  std::set<std::string> keys;
  for (const auto& [key, value] : obj.object) keys.insert(key);
  return keys;
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

const std::set<std::string> kFlatReportKeys = {
    "schema",      "scenario", "network",      "engine",
    "subchannels", "scale",    "num_queries",  "threads",
    "wall_seconds", "groups",  "fleet"};

const std::set<std::string> kCleanGroupKeys = {
    "group",     "queries",        "profile",   "bits_per_second",
    "loss_rate", "loss_burst_len", "loss_seed", "workload_seed",
    "systems"};

TEST_F(ScenarioRunnerTest, ReportJsonCarriesEveryGroupAndTheFleet) {
  const ScenarioResult r = RunDeterministic(SmallScenario(), 1);
  const jsonutil::JsonValue root = ParseReport(r);
  EXPECT_EQ(Keys(root), kFlatReportKeys);
  EXPECT_EQ(root.object.at("schema").string, kScenarioSchema);
  EXPECT_EQ(root.object.at("scenario").string, r.scenario);
  EXPECT_EQ(root.object.at("network").string, r.network);
  EXPECT_EQ(Bits(root.object.at("scale").number), Bits(r.scale));
  EXPECT_EQ(root.object.at("num_queries").string,
            std::to_string(r.num_queries));

  const auto& groups = root.object.at("groups").array;
  ASSERT_EQ(groups.size(), r.groups.size());
  for (size_t gi = 0; gi < r.groups.size(); ++gi) {
    const GroupResult& in = r.groups[gi];
    const jsonutil::JsonValue& out = groups[gi];
    SCOPED_TRACE(in.spec.name);
    EXPECT_EQ(Keys(out), kCleanGroupKeys);
    EXPECT_EQ(out.object.at("group").string, in.spec.name);
    EXPECT_EQ(out.object.at("queries").string,
              std::to_string(in.spec.queries));
    EXPECT_EQ(Bits(out.object.at("loss_rate").number),
              Bits(in.spec.loss.rate));
    EXPECT_EQ(out.object.at("loss_burst_len").string,
              std::to_string(in.spec.loss.burst_len));
    EXPECT_EQ(out.object.at("loss_seed").string,
              std::to_string(in.loss_seed));
    EXPECT_EQ(out.object.at("workload_seed").string,
              std::to_string(in.workload_seed));
    const auto& systems = out.object.at("systems").array;
    ASSERT_EQ(systems.size(), in.systems.size());
    for (size_t si = 0; si < in.systems.size(); ++si) {
      const Aggregate& a = in.systems[si].aggregate;
      const jsonutil::JsonValue& entry = systems[si];
      EXPECT_EQ(entry.object.at("system").string, a.system);
      const jsonutil::JsonValue& tuning = entry.object.at("tuning_packets");
      EXPECT_EQ(Bits(tuning.object.at("mean").number),
                Bits(a.tuning_packets.mean));
      EXPECT_EQ(Bits(tuning.object.at("p99").number),
                Bits(a.tuning_packets.p99));
      EXPECT_EQ(Bits(entry.object.at("energy_joules").object.at("max").number),
                Bits(a.energy_joules.max));
    }
  }
  const auto& fleet = root.object.at("fleet").array;
  ASSERT_EQ(fleet.size(), r.fleet.size());
  for (size_t si = 0; si < r.fleet.size(); ++si) {
    EXPECT_EQ(fleet[si].object.at("system").string, r.fleet[si].system);
    const jsonutil::JsonValue& latency =
        fleet[si].object.at("latency_packets");
    EXPECT_EQ(Bits(latency.object.at("mean").number),
              Bits(r.fleet[si].aggregate.latency_packets.mean));
  }
}

TEST_F(ScenarioRunnerTest, ReportJsonGatesScheduleFecAndSessionKeys) {
  ScenarioResult r = RunDeterministic(SmallScenario(), 1);
  ASSERT_FALSE(r.groups.empty());
  ASSERT_FALSE(r.groups[0].systems.empty());

  // Scheduled runs add the top-level "schedule" field.
  r.schedule_mode = "online";
  // A corrupting, coded channel adds the group's FEC and corruption keys.
  r.groups[0].spec.loss.corrupt_bit = 2e-5;
  r.groups[0].spec.fec = broadcast::FecScheme{16, 2};
  // A system that ran warm adds the session-cache stats.
  Aggregate& warm = r.groups[0].systems[0].aggregate;
  warm.warm_queries = 3;
  warm.cache_hits.max = 4.0;
  // A non-finite double is written as null.
  r.groups[0].systems[0].aggregate.cpu_ms.mean =
      std::numeric_limits<double>::quiet_NaN();

  const jsonutil::JsonValue root = ParseReport(r);
  std::set<std::string> scheduled = kFlatReportKeys;
  scheduled.insert("schedule");
  EXPECT_EQ(Keys(root), scheduled);
  EXPECT_EQ(root.object.at("schedule").string, "online");

  const auto& groups = root.object.at("groups").array;
  std::set<std::string> coded = kCleanGroupKeys;
  coded.insert({"corrupt_bit", "fec_data", "fec_parity"});
  EXPECT_EQ(Keys(groups[0]), coded);
  EXPECT_EQ(Bits(groups[0].object.at("corrupt_bit").number), Bits(2e-5));
  EXPECT_EQ(groups[0].object.at("fec_parity").string, "2");
  for (size_t gi = 1; gi < groups.size(); ++gi) {
    EXPECT_EQ(Keys(groups[gi]), kCleanGroupKeys) << gi;
  }

  const jsonutil::JsonValue& warm_entry =
      groups[0].object.at("systems").array[0];
  EXPECT_TRUE(warm_entry.object.contains("cache_hits"));
  EXPECT_TRUE(warm_entry.object.contains("warm_tuning"));
  EXPECT_EQ(warm_entry.object.at("warm_queries").string, "3");
  EXPECT_EQ(warm_entry.object.at("cpu_ms").object.at("mean").type,
            jsonutil::JsonValue::Type::kNull);
  for (const auto& entry : root.object.at("fleet").array) {
    EXPECT_FALSE(entry.object.contains("warm_queries"));
    EXPECT_FALSE(entry.object.contains("corrupted_packets"));
  }
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

// One spec that sets every field the tables of docs/scenario_schema.md
// list, each to a value other than its default, read back field by field.
TEST(ScenarioSpecJsonTest, ParsesEveryDocumentedField) {
  const char* json = R"({
    "schema": "airindex.sim.scenario/v1",
    "name": "every-field",
    "description": "all of them",
    "network": "Milan",
    "scale": 0.25,
    "seed": 9007199254740993,
    "total_queries": 77,
    "engine": "event",
    "subchannels": 3,
    "schedule": {
      "mode": "online", "disks": 2, "rates": [5, 1], "replan_cycles": 6,
      "decay": 0.25, "hysteresis": 0.375, "min_skew": 0.75
    },
    "cache": {"bytes": 65536},
    "systems": ["NR", "EB", "DJ"],
    "params": {
      "arcflag_regions": 8, "eb_regions": 16, "nr_regions": 64,
      "landmarks": 6, "hiti_regions": 4
    },
    "groups": [{
      "name": "all",
      "queries": 9,
      "weight": 3.5,
      "profile": "smartphone",
      "bits_per_second": 128000,
      "loss": {"rate": 0.03, "burst_len": 5, "corrupt_bit": 1e-6},
      "loss_seed": 4242,
      "fec": {"data_per_group": 12, "parity_per_group": 3},
      "client": {
        "heap_bytes": 1048576, "memory_bound": true,
        "cross_border_opt": false, "max_repair_cycles": 17,
        "repair_header": true
      },
      "workload": {
        "destinations": "zipf", "zipf_s": 1.75,
        "sources": "clustered", "partition_regions": 32,
        "source_regions": [3, 5, 8],
        "phases": "rush-hour", "phase_peak": 0.625, "phase_width": 0.125,
        "seed": 31337,
        "arrivals": "rush-hour", "arrival_rate": 12.5,
        "arrival_peak_s": 45, "arrival_width_s": 7.5,
        "arrival_peak_multiplier": 3,
        "arrival_seed": 2718,
        "session": {"queries": 4, "think_ms": 250}
      }
    }]
  })";
  auto parsed = ScenarioFromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Scenario& s = *parsed;
  EXPECT_EQ(s.name, "every-field");
  EXPECT_EQ(s.description, "all of them");
  EXPECT_EQ(s.network, "Milan");
  EXPECT_EQ(s.scale, 0.25);
  EXPECT_EQ(s.seed, (1ULL << 53) + 1);
  EXPECT_EQ(s.total_queries, 77u);
  EXPECT_EQ(s.engine, "event");
  EXPECT_EQ(s.subchannels, 3u);

  EXPECT_EQ(s.schedule.mode, SchedulePolicy::Mode::kOnline);
  EXPECT_EQ(s.schedule.disks, 2u);
  EXPECT_EQ(s.schedule.rates, (std::vector<uint32_t>{5, 1}));
  EXPECT_EQ(s.schedule.replan_cycles, 6u);
  EXPECT_EQ(s.schedule.decay, 0.25);
  EXPECT_EQ(s.schedule.hysteresis, 0.375);
  EXPECT_EQ(s.schedule.min_skew, 0.75);

  EXPECT_EQ(s.cache_bytes, 65536u);
  EXPECT_EQ(s.systems, (std::vector<std::string>{"NR", "EB", "DJ"}));
  EXPECT_EQ(s.params.arcflag_regions, 8u);
  EXPECT_EQ(s.params.eb_regions, 16u);
  EXPECT_EQ(s.params.nr_regions, 64u);
  EXPECT_EQ(s.params.landmarks, 6u);
  EXPECT_EQ(s.params.hiti_regions, 4u);

  ASSERT_EQ(s.groups.size(), 1u);
  const ClientGroupSpec& g = s.groups[0];
  EXPECT_EQ(g.name, "all");
  EXPECT_EQ(g.queries, 9u);
  EXPECT_EQ(g.weight, 3.5);
  EXPECT_EQ(g.profile, "smartphone");
  EXPECT_EQ(g.bits_per_second, 128000.0);
  EXPECT_EQ(g.loss.rate, 0.03);
  EXPECT_EQ(g.loss.burst_len, 5u);
  EXPECT_EQ(g.loss.corrupt_bit, 1e-6);
  EXPECT_EQ(g.loss_seed, 4242u);
  EXPECT_EQ(g.fec.data_per_group, 12u);
  EXPECT_EQ(g.fec.parity_per_group, 3u);
  EXPECT_EQ(g.client.heap_bytes, 1048576u);
  EXPECT_TRUE(g.client.memory_bound);
  EXPECT_FALSE(g.client.cross_border_opt);
  EXPECT_EQ(g.client.max_repair_cycles, 17);
  EXPECT_TRUE(g.client.repair_header);

  const workload::WorkloadSpec& w = g.workload;
  EXPECT_EQ(w.dest, workload::WorkloadSpec::Dest::kZipf);
  EXPECT_EQ(w.zipf_s, 1.75);
  EXPECT_EQ(w.source, workload::WorkloadSpec::Source::kClustered);
  EXPECT_EQ(w.partition_regions, 32u);
  EXPECT_EQ(w.source_regions, (std::vector<uint32_t>{3, 5, 8}));
  EXPECT_EQ(w.phase, workload::WorkloadSpec::Phase::kRushHour);
  EXPECT_EQ(w.phase_peak, 0.625);
  EXPECT_EQ(w.phase_width, 0.125);
  EXPECT_EQ(w.seed, 31337u);
  EXPECT_EQ(w.arrival.kind, workload::ArrivalSpec::Kind::kRushHour);
  EXPECT_EQ(w.arrival.rate_per_second, 12.5);
  EXPECT_EQ(w.arrival.peak_seconds, 45.0);
  EXPECT_EQ(w.arrival.width_seconds, 7.5);
  EXPECT_EQ(w.arrival.peak_multiplier, 3.0);
  EXPECT_EQ(w.arrival.seed, 2718u);
  EXPECT_EQ(w.session.queries, 4u);
  EXPECT_EQ(w.session.think_ms, 250.0);
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

TEST(ScenarioSpecJsonTest, RejectsDiskLaddersThatCannotCompile) {
  // A ladder whose macro cycle is too long to compile would run the flat
  // cycle while the report says "static".
  auto parse = [](const std::string& schedule) {
    return ScenarioFromJson(
        R"({"schema": "airindex.sim.scenario/v1", "name": "x",
            "schedule": )" +
        schedule + R"(, "groups": [{"name": "g", "queries": 1}]})");
  };
  EXPECT_TRUE(parse(R"({"mode": "disks", "disks": 13})").ok());
  for (const char* schedule :
       {R"({"mode": "disks", "disks": 14})",
        R"({"mode": "disks", "disks": 5, "rates": [13, 11, 7, 5, 3]})"}) {
    auto s = parse(schedule);
    ASSERT_FALSE(s.ok()) << schedule;
    EXPECT_EQ(s.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(s.status().message().find("beyond 4096 minor cycles"),
              std::string::npos)
        << s.status().ToString();
  }
}

TEST(ScenarioSpecJsonTest, RejectsIntegersPastTheirNarrowFields) {
  // Integer fields stored narrower than 64 bits are bounded by name before
  // the cast: 2^32 + 8 regions would otherwise build with 8, and a wrapped
  // FEC shape could pass FecScheme::Valid.
  auto parse = [](const std::string& top, const std::string& group) {
    return ScenarioFromJson(
        R"({"schema": "airindex.sim.scenario/v1", "name": "x", )" + top +
        R"("groups": [{"name": "g", "queries": 1)" + group + "}]}");
  };
  auto rejects = [&](const std::string& top, const std::string& group,
                     const std::string& field) {
    auto s = parse(top, group);
    ASSERT_FALSE(s.ok()) << top << group;
    EXPECT_EQ(s.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(s.status().ToString().find(field), std::string::npos)
        << s.status().ToString();
  };
  ASSERT_TRUE(parse(R"("subchannels": 4294967295, "params": {"nr_regions":
                      4294967295, "landmarks": 4294967295}, )",
                    R"(, "client": {"max_repair_cycles": 2147483647},
                       "loss": {"burst_len": 4294967295},
                       "workload": {"session": {"queries": 4294967295}})")
                  .ok());

  for (const char* key : {"arcflag_regions", "eb_regions", "nr_regions",
                          "landmarks", "hiti_regions"}) {
    rejects(R"("params": {")" + std::string(key) + R"(": 4294967304}, )", "",
            key);
  }
  rejects(R"("subchannels": 4294967297, )", "", "subchannels");
  rejects("", R"(, "loss": {"rate": 0.1, "burst_len": 4294967297})",
          "burst_len");
  rejects("",
          R"(, "fec": {"data_per_group": 4294967298, "parity_per_group": 1})",
          "data_per_group");
  rejects("",
          R"(, "fec": {"data_per_group": 4, "parity_per_group": 4294967297})",
          "parity_per_group");
  rejects("", R"(, "workload": {"session": {"queries": 4294967297}})",
          "session queries");
  rejects("", R"(, "client": {"max_repair_cycles": 2147483648})",
          "max_repair_cycles");
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
