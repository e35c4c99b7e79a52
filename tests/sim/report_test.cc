#include "sim/report.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <set>
#include <string>

#include "sim/json.h"

namespace airindex::sim {
namespace {

using jsonutil::JsonValue;
using jsonutil::ParseJson;

Stat MakeStat(double base) {
  Stat s;
  s.mean = base + 0.123456789012345;  // exercise shortest-round-trip output
  s.p50 = base;
  s.p95 = base * 1.9;
  s.p99 = base * 2.2;
  s.max = base * 2.5e3;
  return s;
}

BatchResult MakeBatch() {
  BatchResult batch;
  batch.engine = "event";
  batch.subchannels = 4;
  batch.num_queries = 128;
  batch.threads = 4;
  batch.loss_rate = 0.015;
  batch.loss_burst_len = 6;
  // Above 2^53: a writer that routed integers through double would
  // silently round this seed.
  batch.loss_seed = (1ULL << 53) + 1;
  batch.wall_seconds = 1.75e-3;

  SystemResult r;
  r.system = "NR";
  r.wall_seconds = 0.125;
  r.queries_per_second = 1024.5;
  r.aggregate.system = "NR";
  r.aggregate.queries = 128;
  r.aggregate.failures = 3;
  r.aggregate.memory_exceeded = 1;
  r.aggregate.tuning_packets = MakeStat(431.0);
  r.aggregate.latency_packets = MakeStat(900.0);
  r.aggregate.wait_ms = MakeStat(37.0);
  r.aggregate.listen_ms = MakeStat(410.0);
  r.aggregate.peak_memory_bytes = MakeStat(1.5e6);
  r.aggregate.cpu_ms = MakeStat(0.25);
  r.aggregate.energy_joules = MakeStat(1e-9);
  batch.systems.push_back(r);

  SystemResult dj = r;
  dj.system = "DJ";
  dj.aggregate.system = "DJ";
  dj.aggregate.failures = 0;
  dj.aggregate.tuning_packets = MakeStat(14019.0);
  batch.systems.push_back(dj);
  return batch;
}

JsonValue Parse(const std::string& json) {
  auto parsed = ParseJson(json);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return parsed.ok() ? *parsed : JsonValue{};
}

const JsonValue& At(const JsonValue& obj, const std::string& key) {
  static const JsonValue kMissing;
  auto it = obj.object.find(key);
  EXPECT_NE(it, obj.object.end()) << "missing key " << key;
  return it == obj.object.end() ? kMissing : it->second;
}

std::set<std::string> Keys(const JsonValue& obj) {
  std::set<std::string> keys;
  for (const auto& [key, value] : obj.object) keys.insert(key);
  return keys;
}

/// The number at `key`, compared by its bits: the writer promises a
/// shortest round-trip representation, so parsing it gives the double back.
void ExpectBits(const JsonValue& obj, const std::string& key, double want) {
  const JsonValue& v = At(obj, key);
  ASSERT_EQ(v.type, JsonValue::Type::kNumber) << key;
  EXPECT_EQ(std::bit_cast<uint64_t>(v.number), std::bit_cast<uint64_t>(want))
      << key;
}

/// An integer field, compared by its raw token so values above 2^53 are
/// checked exactly.
void ExpectUint(const JsonValue& obj, const std::string& key, uint64_t want) {
  const JsonValue& v = At(obj, key);
  ASSERT_EQ(v.type, JsonValue::Type::kNumber) << key;
  EXPECT_EQ(v.string, std::to_string(want)) << key;
}

void ExpectStat(const JsonValue& entry, const std::string& key,
                const Stat& want) {
  SCOPED_TRACE(key);
  const JsonValue& s = At(entry, key);
  ASSERT_EQ(s.type, JsonValue::Type::kObject);
  EXPECT_EQ(Keys(s), (std::set<std::string>{"mean", "p50", "p95", "p99",
                                            "max"}));
  ExpectBits(s, "mean", want.mean);
  ExpectBits(s, "p50", want.p50);
  ExpectBits(s, "p95", want.p95);
  ExpectBits(s, "p99", want.p99);
  ExpectBits(s, "max", want.max);
}

const std::set<std::string> kFlatRootKeys = {
    "schema",         "engine",    "num_queries", "threads",
    "loss_rate",      "loss_seed", "subchannels", "wall_seconds",
    "loss_burst_len", "systems"};

const std::set<std::string> kCleanSystemKeys = {
    "system",          "queries",           "failures",
    "memory_exceeded", "wall_seconds",      "queries_per_second",
    "tuning_packets",  "latency_packets",   "wait_ms",
    "listen_ms",       "peak_memory_bytes", "cpu_ms",
    "energy_joules"};

std::set<std::string> With(std::set<std::string> keys,
                           std::initializer_list<const char*> more) {
  for (const char* k : more) keys.insert(k);
  return keys;
}

TEST(ReportTest, JsonCarriesSchemaTagAndExactValues) {
  const BatchResult batch = MakeBatch();
  const JsonValue root = Parse(ToJson(batch));
  ASSERT_EQ(root.type, JsonValue::Type::kObject);
  EXPECT_EQ(At(root, "schema").string, kReportSchema);
  EXPECT_EQ(At(root, "engine").string, batch.engine);
  ExpectUint(root, "subchannels", batch.subchannels);
  ExpectUint(root, "num_queries", batch.num_queries);
  ExpectUint(root, "threads", batch.threads);
  ExpectBits(root, "loss_rate", batch.loss_rate);
  ExpectUint(root, "loss_burst_len", batch.loss_burst_len);
  ExpectUint(root, "loss_seed", batch.loss_seed);
  ExpectBits(root, "wall_seconds", batch.wall_seconds);

  const JsonValue& systems = At(root, "systems");
  ASSERT_EQ(systems.type, JsonValue::Type::kArray);
  ASSERT_EQ(systems.array.size(), batch.systems.size());
  for (size_t i = 0; i < batch.systems.size(); ++i) {
    const SystemResult& in = batch.systems[i];
    const Aggregate& a = in.aggregate;
    const JsonValue& out = systems.array[i];
    SCOPED_TRACE(in.system);
    EXPECT_EQ(At(out, "system").string, in.system);
    ExpectUint(out, "queries", a.queries);
    ExpectUint(out, "failures", a.failures);
    ExpectUint(out, "memory_exceeded", a.memory_exceeded);
    ExpectBits(out, "wall_seconds", in.wall_seconds);
    ExpectBits(out, "queries_per_second", in.queries_per_second);
    ExpectStat(out, "tuning_packets", a.tuning_packets);
    ExpectStat(out, "latency_packets", a.latency_packets);
    ExpectStat(out, "wait_ms", a.wait_ms);
    ExpectStat(out, "listen_ms", a.listen_ms);
    ExpectStat(out, "peak_memory_bytes", a.peak_memory_bytes);
    ExpectStat(out, "cpu_ms", a.cpu_ms);
    ExpectStat(out, "energy_joules", a.energy_joules);
  }
}

TEST(ReportTest, ScheduleFieldIsGated) {
  // Flat runs keep the historical key set; scheduled runs add "schedule".
  BatchResult batch = MakeBatch();
  ASSERT_EQ(batch.schedule_mode, "flat");
  EXPECT_EQ(Keys(Parse(ToJson(batch))), kFlatRootKeys);

  batch.schedule_mode = "online";
  const JsonValue root = Parse(ToJson(batch));
  EXPECT_EQ(Keys(root), With(kFlatRootKeys, {"schedule"}));
  EXPECT_EQ(At(root, "schedule").string, "online");
}

TEST(ReportTest, FecAndCorruptionFieldsAreGated) {
  // Inactive channel: none of the FEC/corruption fields appear, so a
  // byte-compare against a pre-FEC document sees nothing new.
  const JsonValue clean = Parse(ToJson(MakeBatch()));
  EXPECT_EQ(Keys(clean), kFlatRootKeys);
  for (const JsonValue& entry : At(clean, "systems").array) {
    EXPECT_EQ(Keys(entry), kCleanSystemKeys);
  }

  BatchResult batch = MakeBatch();
  batch.corrupt_bit = 2e-5;
  batch.fec = broadcast::FecScheme{16, 2};
  batch.systems[0].aggregate.corrupted_packets = MakeStat(3.0);
  batch.systems[0].aggregate.fec_recovered = MakeStat(11.0);
  const JsonValue root = Parse(ToJson(batch));
  EXPECT_EQ(Keys(root),
            With(kFlatRootKeys, {"corrupt_bit", "fec_data", "fec_parity"}));
  ExpectBits(root, "corrupt_bit", 2e-5);
  ExpectUint(root, "fec_data", 16);
  ExpectUint(root, "fec_parity", 2);
  const JsonValue& systems = At(root, "systems");
  ASSERT_EQ(systems.array.size(), 2u);
  // Per system: only the one whose channel corrupted or coded anything.
  EXPECT_EQ(Keys(systems.array[0]),
            With(kCleanSystemKeys, {"corrupted_packets", "fec_recovered"}));
  ExpectStat(systems.array[0], "corrupted_packets",
             batch.systems[0].aggregate.corrupted_packets);
  ExpectStat(systems.array[0], "fec_recovered",
             batch.systems[0].aggregate.fec_recovered);
  EXPECT_EQ(Keys(systems.array[1]), kCleanSystemKeys);
}

TEST(ReportTest, SessionFieldsAreGated) {
  // One-shot runs keep the historical document; sessions and caches add
  // their run fields and, per system that ran warm, the cache stats.
  BatchResult batch = MakeBatch();
  batch.session_queries = 8;
  batch.cache_bytes = 256 * 1024;
  Aggregate& warm = batch.systems[0].aggregate;
  warm.warm_queries = 112;
  warm.cache_hits = MakeStat(5.0);
  warm.warm_tuning = MakeStat(120.0);
  const JsonValue root = Parse(ToJson(batch));
  EXPECT_EQ(Keys(root),
            With(kFlatRootKeys, {"session_queries", "cache_bytes"}));
  ExpectUint(root, "session_queries", 8);
  ExpectUint(root, "cache_bytes", 256 * 1024);
  const JsonValue& systems = At(root, "systems");
  ASSERT_EQ(systems.array.size(), 2u);
  EXPECT_EQ(Keys(systems.array[0]),
            With(kCleanSystemKeys,
                 {"cache_hits", "warm_queries", "warm_tuning"}));
  ExpectUint(systems.array[0], "warm_queries", 112);
  ExpectStat(systems.array[0], "cache_hits", warm.cache_hits);
  ExpectStat(systems.array[0], "warm_tuning", warm.warm_tuning);
  EXPECT_EQ(Keys(systems.array[1]), kCleanSystemKeys);
}

TEST(ReportTest, NonFiniteStatsSerializeAsNull) {
  // Regression: to_chars wrote "nan"/"inf" for non-finite doubles, which
  // is not JSON. Non-finite now emits null, so the document stays
  // machine-readable end to end.
  BatchResult batch = MakeBatch();
  Stat& cpu = batch.systems[0].aggregate.cpu_ms;
  cpu.mean = std::numeric_limits<double>::quiet_NaN();
  cpu.max = std::numeric_limits<double>::infinity();
  cpu.p50 = -std::numeric_limits<double>::infinity();

  const std::string json = ToJson(batch);
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);

  const JsonValue root = Parse(json);
  const JsonValue& written = At(At(root, "systems").array.at(0), "cpu_ms");
  for (const char* key : {"mean", "max", "p50"}) {
    EXPECT_EQ(At(written, key).type, JsonValue::Type::kNull) << key;
  }
  ExpectBits(written, "p95", cpu.p95);
  ExpectBits(written, "p99", cpu.p99);
  // The undamaged system is written exactly.
  ExpectStat(At(root, "systems").array.at(1), "cpu_ms",
             batch.systems[1].aggregate.cpu_ms);
}

TEST(ReportTest, DocumentIsOneJsonValue) {
  // The report ends in a newline and nothing a parser would reject.
  const std::string json = ToJson(MakeBatch());
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.back(), '\n');
  EXPECT_TRUE(ParseJson(json).ok());
  EXPECT_FALSE(ParseJson(json + "x").ok());
}

TEST(ReportTest, TextReportListsEverySystem) {
  const BatchResult batch = MakeBatch();
  const std::string text = ToText(batch);
  EXPECT_NE(text.find("NR"), std::string::npos);
  EXPECT_NE(text.find("DJ"), std::string::npos);
  EXPECT_NE(text.find("tuning[pkt]"), std::string::npos);
  EXPECT_NE(text.find("qps"), std::string::npos);
}

}  // namespace
}  // namespace airindex::sim
