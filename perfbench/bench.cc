#include "bench.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "broadcast/channel.h"
#include "core/systems.h"
#include "graph/catalog.h"
#include "sim/event_engine.h"

namespace perfbench {

namespace broadcast = airindex::broadcast;

const std::vector<WorkloadDef>& Workloads() {
  static const std::vector<WorkloadDef> kWorkloads = {
      {"index-batch", {"NR", "EB"}, 1, false, 400},
      {"full-cycle-batch", {"DJ", "LD", "AF"}, 2, false, 48},
      {"lossy-session-fleet", {"NR", "EB"}, 4, true, 2048, 8},
  };
  return kWorkloads;
}

const WorkloadDef* FindWorkload(std::string_view name) {
  for (const WorkloadDef& def : Workloads()) {
    if (def.name == name) return &def;
  }
  return nullptr;
}

namespace {

/// The query population of a workload. The batch workloads use the paper's
/// uniform s/t with uniform tune-in; the fleet concentrates destinations
/// (zipf 1.1) and sources (kd cells 0 and 1 of 16) and arrives as a
/// Poisson process of 8-query sessions.
workload::WorkloadSpec Spec(const WorkloadDef& def, uint64_t seed) {
  workload::WorkloadSpec spec;
  spec.count = def.queries / def.blocks;
  spec.seed = seed;
  if (def.lossy_fleet) {
    spec.dest = workload::WorkloadSpec::Dest::kZipf;
    spec.zipf_s = 1.1;
    spec.source = workload::WorkloadSpec::Source::kClustered;
    spec.partition_regions = 16;
    spec.source_regions = {0, 1};
    spec.arrival.kind = workload::ArrivalSpec::Kind::kPoisson;
    spec.arrival.rate_per_second = 20.0;
    spec.session = {8, 250.0};
  }
  return spec;
}

}  // namespace

std::unique_ptr<core::AirSystem> BuildMethod(const WorkloadDef& def,
                                             const graph::Graph& g,
                                             std::string_view method) {
  core::SystemParams params;
  params.build.precompute_threads = def.threads;
  auto sys = core::BuildSystem(g, method, params);
  if (!sys.ok()) {
    Fail("BuildSystem(" + std::string(method) +
         ") failed: " + sys.status().ToString());
  }
  return std::move(sys).value();
}

std::unique_ptr<Setup> BuildSetup(const WorkloadDef& def, uint64_t seed,
                                  Trace* trace, uint64_t parent) {
  auto setup = std::make_unique<Setup>();
  const int64_t start = NowNs();
  {
    ScopedSpan span(trace, "graph.MakeNetwork", parent);
    auto g = graph::MakeNetwork(graph::DefaultNetwork(), 1.0);
    if (!g.ok()) Fail("MakeNetwork failed: " + g.status().ToString());
    setup->graph = std::move(g).value();
  }
  for (std::string_view method : def.methods) {
    ScopedSpan span(trace,
                    trace != nullptr
                        ? trace->Intern("core.BuildSystem." + std::string(method))
                        : std::string_view(),
                    parent);
    setup->systems.push_back(BuildMethod(def, setup->graph, method));
  }
  // A zipf workload's hotspots are a function of its seed, so one block
  // would make the fleet's figures swing with the seed. Blocks with derived
  // seeds average over several hotspot sets; each block's arrivals continue
  // where the previous block's ended, keeping the fleet's arrival rate.
  double arrival_offset_ms = 0.0;
  for (size_t b = 0; b < def.blocks; ++b) {
    ScopedSpan span(trace, "workload.GenerateWorkload", parent);
    const uint64_t block_seed =
        def.blocks == 1 ? seed : sim::QueryLossSeed(seed, b);
    auto w = workload::GenerateWorkload(setup->graph, Spec(def, block_seed));
    if (!w.ok()) Fail("GenerateWorkload failed: " + w.status().ToString());
    double last_ms = 0.0;
    for (workload::Query& q : w.value().queries) {
      if (q.arrival_ms >= 0.0) {
        q.arrival_ms += arrival_offset_ms;
        last_ms = q.arrival_ms;
      }
      setup->workload.queries.push_back(q);
    }
    arrival_offset_ms = last_ms;
  }
  setup->seconds = static_cast<double>(NowNs() - start) * 1e-9;
  for (const auto& sys : setup->systems) setup->system_ptrs.push_back(sys.get());
  return setup;
}

sim::EventOptions FleetEventOptions(unsigned threads) {
  sim::EventOptions o;
  o.threads = threads;
  o.loss = broadcast::LossModel::Of(0.02, 4, 2e-5);
  o.station_seed = 0x10552;
  o.fec = {16, 2};
  o.session = {8, 250.0};
  o.cache_bytes = 256 * 1024;
  return o;
}

sim::BatchResult RunPass(const WorkloadDef& def, const Setup& setup,
                         const workload::Workload& w, uint64_t seed,
                         unsigned threads) {
  if (def.lossy_fleet) {
    const sim::EventEngine engine(setup.graph,
                                  FleetEventOptions(threads));
    return engine.Run(setup.system_ptrs, w);
  }
  sim::SimOptions o;
  o.threads = threads;
  o.loss_seed = seed;
  const sim::Simulator simulator(setup.graph, o);
  return simulator.Run(setup.system_ptrs, w);
}

PassCheck CheckAnswers(const WorkloadDef& def, const workload::Workload& w,
                       const sim::BatchResult& batch) {
  PassCheck check;
  for (const sim::SystemResult& sr : batch.systems) {
    for (size_t i = 0; i < sr.per_query.size(); ++i) {
      const auto& m = sr.per_query[i];
      const auto& q = w.queries[i];
      ++check.attempted;
      if (m.ok && m.distance == q.true_dist) continue;
      ++check.failed;
      if (!check.error.empty()) continue;
      std::ostringstream os;
      os << "workload " << def.name << ", method " << sr.system << ", query "
         << i << " (" << q.source << " -> " << q.target << "): ";
      if (m.ok) {
        os << "distance " << m.distance << ", expected " << q.true_dist;
        check.error = os.str();
      } else if (!def.lossy_fleet) {
        os << "failed on a lossless channel";
        check.error = os.str();
      }
    }
  }
  return check;
}

std::string CompareModeled(const WorkloadDef& def, const sim::BatchResult& want,
                           const sim::BatchResult& got) {
  for (size_t s = 0; s < want.systems.size(); ++s) {
    const auto& a = want.systems[s].per_query;
    const auto& b = got.systems[s].per_query;
    for (size_t i = 0; i < a.size(); ++i) {
      auto x = a[i];
      auto y = b[i];
      x.cpu_ms = y.cpu_ms = 0.0;
      if (x == y) continue;
      std::ostringstream os;
      os << "workload " << def.name << ", method " << want.systems[s].system
         << ", query " << i
         << ": modeled metrics differ between warm-up and measured pass"
         << " (tuning " << x.tuning_packets << " vs " << y.tuning_packets
         << ", latency " << x.latency_packets << " vs " << y.latency_packets
         << ")";
      return os.str();
    }
  }
  return "";
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  Fail("VmHWM not found in /proc/self/status");
}

void PinToCpus(unsigned n) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  unsigned taken = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE && taken < n; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &pinned);
      ++taken;
    }
  }
  if (taken > 0) sched_setaffinity(0, sizeof(pinned), &pinned);
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-44s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!std::isfinite(m.value)) Fail("metric " + m.name + " is not finite");
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void Fail(const std::string& message) {
  std::fflush(stdout);
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(1);
}

}  // namespace perfbench
