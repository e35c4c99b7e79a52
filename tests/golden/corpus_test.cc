// Golden corpus: every per-query metric of all seven systems, pinned in git.
//
// One text file per (configuration, system) under tests/golden/ holds a
// 64-bit digest over every per-query QueryMetrics field except the
// wall-clock cpu_ms, the system's aggregate line, and a digest of the bytes
// of its broadcast cycle. Each file is stamped with the report schema and
// the cycle wire-format version, so a deliberate format change shows up as
// a named version step.
//
// The matrix: Germany 0.1, Milan 0.2 and a 40x40 lattice, 48 queries each
// (the `airindex_cli run` defaults otherwise), over a lossless channel, 2%
// loss, bursty 2%x8 loss, FEC 0.125 with bit corruption at 2% loss, a
// broadcast-disk schedule, the compact encoding, the event engine with
// 4-query sessions and 50 MB caches, §6.1 memory-bound clients at 2% loss,
// and the event engine with bursty 2%x4 loss, 8-query sessions and
// 256 KiB caches (perfbench's lossy-session-fleet shape) or 48 KiB ones.
// Every corpus cycle fits in 256 KiB; only the 48 KiB caches evict, so
// only they see the order in which EB stores a region's segments. Every
// configuration runs at 1 and at 4 threads, and both must match the same
// file. The lattice is there for its ties: the catalog networks' jittered
// weights almost never give a node two shortest-path predecessors at equal
// distance, so they cannot see a change in how the search heap breaks
// ties.
//
// On a mismatch the test writes the file it computed into its build
// directory and prints the path. Regenerating the corpus means copying that
// file over the checked-in one, in a commit of its own.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "broadcast/channel.h"
#include "broadcast/fec.h"
#include "broadcast/packet.h"
#include "common/result.h"
#include "core/systems.h"
#include "device/metrics.h"
#include "graph/catalog.h"
#include "graph/graph.h"
#include "sim/aggregate.h"
#include "sim/event_engine.h"
#include "sim/report.h"
#include "sim/simulator.h"
#include "workload/workload.h"

namespace airindex {
namespace {

constexpr size_t kQueries = 48;
constexpr uint64_t kSeed = 20100913;

/// FNV-1a over 64-bit little-endian words.
class Digest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ULL;
    }
  }
  void Add(double v) { Add(std::bit_cast<uint64_t>(v)); }
  void AddBytes(std::span<const uint8_t> bytes) {
    Add(static_cast<uint64_t>(bytes.size()));
    for (uint8_t b : bytes) {
      h_ ^= b;
      h_ *= 0x100000001B3ULL;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xCBF29CE484222325ULL;
};

// A new QueryMetrics field must join the digest below.
static_assert(sizeof(device::QueryMetrics) == 120,
              "QueryMetrics changed: add the new field to MetricsDigest");

uint64_t MetricsDigest(const std::vector<device::QueryMetrics>& per_query) {
  Digest d;
  for (const device::QueryMetrics& m : per_query) {
    d.Add(m.tuning_packets);
    d.Add(m.latency_packets);
    d.Add(m.wait_packets);
    d.Add(m.wait_ms);
    d.Add(m.listen_ms);
    d.Add(m.corrupted_packets);
    d.Add(m.fec_recovered);
    d.Add(m.wait_slots);
    d.Add(m.latency_slots);
    d.Add(static_cast<uint64_t>(m.peak_memory_bytes));
    d.Add(static_cast<uint64_t>(m.distance));
    d.Add(static_cast<uint64_t>(m.regions_received));
    d.Add(m.cache_hits);
    d.Add(static_cast<uint64_t>(m.warm));
    d.Add(static_cast<uint64_t>(m.ok));
    d.Add(static_cast<uint64_t>(m.memory_exceeded));
  }
  return d.value();
}

/// Every packet of the cycle as the air carries it: header fields and
/// payload chunk.
uint64_t CycleDigest(const broadcast::BroadcastCycle& cycle) {
  Digest d;
  for (uint32_t pos = 0; pos < cycle.total_packets(); ++pos) {
    const broadcast::PacketView p = cycle.PacketAt(pos);
    d.Add(static_cast<uint64_t>(p.type));
    d.Add(static_cast<uint64_t>(p.segment_id));
    d.Add(static_cast<uint64_t>(p.seq));
    d.Add(static_cast<uint64_t>(p.segment_packets));
    d.Add(static_cast<uint64_t>(p.next_index_offset));
    d.AddBytes(p.chunk);
  }
  return d.value();
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string StatText(const sim::Stat& s) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%.17g/%.17g/%.17g/%.17g/%.17g", s.mean,
                s.p50, s.p95, s.p99, s.max);
  return buf;
}

/// Every Aggregate field except the wall-clock cpu_ms distribution.
std::string AggregateLine(const sim::Aggregate& a) {
  std::ostringstream out;
  out << "queries=" << a.queries << " failures=" << a.failures
      << " memory_exceeded=" << a.memory_exceeded
      << " warm_queries=" << a.warm_queries
      << " tuning=" << StatText(a.tuning_packets)
      << " latency=" << StatText(a.latency_packets)
      << " wait_ms=" << StatText(a.wait_ms)
      << " listen_ms=" << StatText(a.listen_ms)
      << " peak_memory=" << StatText(a.peak_memory_bytes)
      << " energy_j=" << StatText(a.energy_joules)
      << " corrupted=" << StatText(a.corrupted_packets)
      << " fec_recovered=" << StatText(a.fec_recovered)
      << " cache_hits=" << StatText(a.cache_hits)
      << " warm_tuning=" << StatText(a.warm_tuning);
  return out.str();
}

/// One column of the matrix.
struct Config {
  std::string name;
  bool event = false;
  broadcast::LossModel loss = broadcast::LossModel::None();
  double fec_rate = 0.0;
  bool disks = false;
  bool compact = false;
  uint32_t session_queries = 1;
  size_t cache_bytes = 0;
  bool memory_bound = false;
};

std::vector<Config> Matrix() {
  std::vector<Config> m;
  m.push_back({.name = "lossless"});
  m.push_back({.name = "loss2", .loss = broadcast::LossModel::Of(0.02, 1)});
  m.push_back(
      {.name = "burst2x8", .loss = broadcast::LossModel::Of(0.02, 8)});
  m.push_back({.name = "fec125_corrupt",
               .loss = broadcast::LossModel::Of(0.02, 1, 2e-5),
               .fec_rate = 0.125});
  m.push_back({.name = "disks", .disks = true});
  m.push_back({.name = "compact", .compact = true});
  m.push_back({.name = "event_sessions",
               .event = true,
               .session_queries = 4,
               .cache_bytes = 50u << 20});
  m.push_back({.name = "memory_bound",
               .loss = broadcast::LossModel::Of(0.02, 1),
               .memory_bound = true});
  m.push_back({.name = "lossy_sessions",
               .event = true,
               .loss = broadcast::LossModel::Of(0.02, 4),
               .session_queries = 8,
               .cache_bytes = 256u << 10});
  m.push_back({.name = "evicting_sessions",
               .event = true,
               .loss = broadcast::LossModel::Of(0.02, 4),
               .session_queries = 8,
               .cache_bytes = 48u << 10});
  return m;
}

std::string ConfigLine(const std::string& network, const Config& c) {
  char buf[320];
  std::snprintf(
      buf, sizeof(buf),
      "config network=%s queries=%zu seed=%llu engine=%s "
      "loss=%g burst=%u corrupt=%g fec_rate=%g schedule=%s "
      "destinations=%s encoding=%s sessions=%u cache_bytes=%zu",
      network.c_str(), kQueries,
      static_cast<unsigned long long>(kSeed), c.event ? "event" : "batch",
      c.loss.rate, c.loss.burst_len, c.loss.corrupt_bit, c.fec_rate,
      c.disks ? "disks" : "flat", c.disks ? "zipf" : "uniform",
      c.compact ? "compact" : "legacy", c.session_queries, c.cache_bytes);
  std::string line = buf;
  // Appended only when set, so the older columns' files keep their bytes.
  if (c.memory_bound) line += " client=memory_bound";
  return line;
}

using Systems = std::vector<std::unique_ptr<core::AirSystem>>;

sim::BatchResult RunConfig(const graph::Graph& g, const Config& c,
                           const Systems& systems,
                           const workload::Workload& w,
                           const std::vector<double>& demand,
                           unsigned threads) {
  std::vector<const core::AirSystem*> ptrs;
  for (const auto& s : systems) ptrs.push_back(s.get());
  const broadcast::CycleEncoding encoding =
      c.compact ? broadcast::CycleEncoding::kCompact
                : broadcast::CycleEncoding::kLegacy;
  sim::SchedulePolicy schedule;
  if (c.disks) schedule.mode = sim::SchedulePolicy::Mode::kStatic;
  if (c.event) {
    sim::EventOptions eo;
    eo.threads = threads;
    eo.loss = c.loss;
    eo.fec = broadcast::FecScheme::OfRate(c.fec_rate);
    eo.station_seed = kSeed;
    eo.deterministic = true;
    eo.schedule = schedule;
    eo.schedule_demand = demand;
    eo.encoding = encoding;
    eo.session.queries = c.session_queries;
    eo.cache_bytes = c.cache_bytes;
    eo.client.memory_bound = c.memory_bound;
    return sim::EventEngine(g, eo).Run(ptrs, w);
  }
  sim::SimOptions so;
  so.threads = threads;
  so.loss = c.loss;
  so.fec = broadcast::FecScheme::OfRate(c.fec_rate);
  so.loss_seed = kSeed;
  so.deterministic = true;
  so.schedule = schedule;
  so.schedule_demand = demand;
  so.encoding = encoding;
  so.client.memory_bound = c.memory_bound;
  return sim::Simulator(g, so).Run(ptrs, w);
}

std::string FileText(const std::string& config_line,
                     const core::AirSystem& sys,
                     const sim::SystemResult& r) {
  std::ostringstream out;
  out << "schema " << sim::kReportSchema << " cycle_format "
      << broadcast::kCycleFormatVersion << "\n"
      << config_line << "\n"
      << "system " << r.system << "\n"
      << "cycle packets=" << sys.cycle().total_packets()
      << " digest=" << Hex(CycleDigest(sys.cycle())) << "\n"
      << "per_query digest=" << Hex(MetricsDigest(r.per_query)) << "\n"
      << "aggregate " << AggregateLine(r.aggregate) << "\n";
  return out.str();
}

std::string ReadAll(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Compares `actual` with the checked-in file; on a mismatch writes the
/// actual text under the build directory (suffixed when a thread count
/// other than 1 disagrees) and fails with its path.
void ExpectGolden(const std::string& file, const std::string& actual,
                  unsigned threads) {
  const std::filesystem::path golden =
      std::filesystem::path(AIRINDEX_GOLDEN_DIR) / file;
  const std::string expected = ReadAll(golden);
  if (actual == expected) return;
  const std::filesystem::path out_dir(AIRINDEX_GOLDEN_OUT_DIR);
  std::filesystem::create_directories(out_dir);
  const std::filesystem::path out =
      out_dir / (threads == 1 ? file
                              : file + ".threads" + std::to_string(threads));
  std::ofstream(out, std::ios::binary) << actual;
  ADD_FAILURE() << golden << " does not match at threads=" << threads
                << (expected.empty() ? " (missing file)" : "")
                << "\n  actual written to " << out << "\n--- expected\n"
                << expected << "--- actual\n"
                << actual;
}

/// A `side` x `side` lattice, 100 units apart, of two-way arcs that all
/// weigh 100.
graph::Graph Lattice(uint32_t side) {
  graph::GraphBuilder b;
  for (uint32_t y = 0; y < side; ++y) {
    for (uint32_t x = 0; x < side; ++x) b.AddNode({100.0 * x, 100.0 * y});
  }
  for (uint32_t y = 0; y < side; ++y) {
    for (uint32_t x = 0; x < side; ++x) {
      const graph::NodeId v = y * side + x;
      if (x + 1 < side) b.AddBidirectional(v, v + 1, 100);
      if (y + 1 < side) b.AddBidirectional(v, v + side, 100);
    }
  }
  return std::move(b).Build().value();
}

Result<graph::Graph> CatalogNetwork(const std::string& network,
                                    double scale) {
  AIRINDEX_ASSIGN_OR_RETURN(graph::NetworkSpec spec,
                            graph::FindNetwork(network));
  return graph::MakeNetwork(spec, scale);
}

/// Runs the matrix on `g`; `tag` names the network in the files.
void CheckNetwork(const Result<graph::Graph>& g, const std::string& tag) {
  ASSERT_TRUE(g.ok()) << g.status().ToString();

  // The CLI's `run` knobs.
  core::SystemParams params;
  params.nr_regions = 32;
  params.eb_regions = 32;
  params.arcflag_regions = 32;
  params.hiti_regions = 32;
  params.landmarks = 4;
  // The legacy systems stay alive while the compact ones build, so both
  // encodings share NR's and EB's border pre-computation.
  auto legacy = core::BuildSystems(*g, core::kAllSystems, params);
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
  params.build.encoding = broadcast::CycleEncoding::kCompact;
  auto compact = core::BuildSystems(*g, core::kAllSystems, params);
  ASSERT_TRUE(compact.ok()) << compact.status().ToString();
  ASSERT_EQ(legacy->size(), 7u);

  workload::WorkloadSpec uniform;
  uniform.count = kQueries;
  uniform.seed = kSeed;
  workload::WorkloadSpec zipf = uniform;
  zipf.dest = workload::WorkloadSpec::Dest::kZipf;
  auto w_uniform = workload::GenerateWorkload(*g, uniform);
  auto w_zipf = workload::GenerateWorkload(*g, zipf);
  ASSERT_TRUE(w_uniform.ok() && w_zipf.ok());
  const std::vector<double> zipf_demand =
      workload::DestinationWeights(g->num_nodes(), zipf);

  for (const Config& c : Matrix()) {
    const Systems& systems = c.compact ? *compact : *legacy;
    const workload::Workload& w = c.disks ? *w_zipf : *w_uniform;
    const std::vector<double> no_demand;
    const std::string config_line = ConfigLine(tag, c);
    for (unsigned threads : {1u, 4u}) {
      const sim::BatchResult batch = RunConfig(
          *g, c, systems, w, c.disks ? zipf_demand : no_demand, threads);
      ASSERT_EQ(batch.systems.size(), systems.size());
      for (size_t i = 0; i < systems.size(); ++i) {
        const sim::SystemResult& r = batch.systems[i];
        ExpectGolden(tag + "_" + c.name + "_" + r.system + ".txt",
                     FileText(config_line, *systems[i], r), threads);
      }
    }
  }
}

TEST(GoldenCorpusTest, Germany) {
  CheckNetwork(CatalogNetwork("Germany", 0.1), "germany0.1");
}

TEST(GoldenCorpusTest, Milan) {
  CheckNetwork(CatalogNetwork("Milan", 0.2), "milan0.2");
}

TEST(GoldenCorpusTest, Lattice) { CheckNetwork(Lattice(40), "lattice40"); }

}  // namespace
}  // namespace airindex
