// The experiment table of `airindex_cli paper`: one row per table, figure
// and ablation of the paper, each with the print routine that reproduces
// it. docs/reproduction.md lists the commands.

#include "paper.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/border_precompute.h"
#include "core/eb.h"
#include "core/systems.h"
#include "device/device_profile.h"
#include "device/energy.h"
#include "graph/catalog.h"
#include "partition/grid.h"
#include "partition/kd_tree.h"
#include "sim/scenario.h"
#include "sim/scenario_catalog.h"
#include "sim/simulator.h"
#include "workload/workload.h"

namespace airindex::paper {

namespace {

/// Formats bytes as MB with two decimals.
std::string Mb(double bytes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", bytes / (1024.0 * 1024.0));
  return buf;
}

/// The loss column label of a swept rate: "0.1%".
std::string Percent(double rate) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%", rate * 100);
  return buf;
}

/// Generates the scaled replica of a catalog network, printing what was
/// built.
Result<graph::Graph> LoadNetwork(std::string_view name, const Options& o) {
  AIRINDEX_ASSIGN_OR_RETURN(graph::NetworkSpec spec,
                            graph::FindNetwork(std::string(name)));
  AIRINDEX_ASSIGN_OR_RETURN(graph::Graph g, graph::MakeNetwork(spec, o.scale));
  std::printf("# network %s at scale %.2f: %zu nodes, %zu arcs\n",
              spec.name.c_str(), o.scale, g.num_nodes(), g.num_arcs());
  return g;
}

/// Runs every workload query through `sys` on the batch engine, one
/// simulated client per query across o.threads workers. With o.repeat > 1
/// the min-of-N engine time is printed as a `#` line: the tables print
/// only the simulated metrics.
sim::SystemResult Measure(const core::AirSystem& sys, const graph::Graph& g,
                          const workload::Workload& w, const Options& o,
                          broadcast::LossModel loss, uint64_t loss_seed,
                          const core::ClientOptions& client = {}) {
  sim::SimOptions so;
  so.threads = o.threads;
  so.repeat = o.repeat;
  so.loss = loss;
  so.loss_seed = loss_seed;
  so.client = client;
  sim::SystemResult result = sim::Simulator(g, so).RunSystem(sys, w);
  if (o.repeat > 1) {
    std::printf("# %s: %.3f s min-of-%u (%.0f q/s)\n", result.system.c_str(),
                result.wall_seconds, o.repeat, result.queries_per_second);
  }
  return result;
}

std::vector<std::string> Names(std::span<const std::string_view> systems) {
  return {systems.begin(), systems.end()};
}

// Table 1: broadcast cycle length (packets; seconds at 2 Mbps and
// 384 Kbps) of every method.
Status Table1(const Experiment& e, const Options&, const graph::Graph* g) {
  AIRINDEX_ASSIGN_OR_RETURN(auto systems,
                            core::BuildSystems(*g, e.systems, {}));
  std::printf("%-8s %10s %14s %15s\n", "Method", "Packets", "Sec (2Mbps)",
              "Sec (384Kbps)");
  for (const auto& sys : systems) {
    const uint32_t packets = sys->cycle().total_packets();
    std::printf("%-8s %10u %14.3f %15.3f\n",
                std::string(sys->name()).c_str(), packets,
                device::CycleSeconds(packets, device::kBitrateStatic3G),
                device::CycleSeconds(packets, device::kBitrateMoving3G));
  }
  return Status::OK();
}

// Table 2: a method is applicable on a network iff its peak client memory
// stays within the (scale-adjusted) device heap across the workload.
Status Table2(const Experiment& e, const Options& o, const graph::Graph*) {
  std::printf("# heap budget scaled with network: %s MB\n",
              Mb(static_cast<double>(o.HeapBytes())).c_str());
  std::printf("%-14s %8s %8s  %-4s %-4s %-4s %-4s %-4s\n", "Network",
              "Nodes", "Edges", "AF", "LD", "DJ", "EB", "NR");
  core::ClientOptions client;
  client.heap_bytes = o.HeapBytes();
  for (const auto& spec : graph::PaperNetworks()) {
    AIRINDEX_ASSIGN_OR_RETURN(graph::Graph g, LoadNetwork(spec.name, o));
    AIRINDEX_ASSIGN_OR_RETURN(auto systems,
                              core::BuildSystems(g, e.systems, {}));
    AIRINDEX_ASSIGN_OR_RETURN(
        auto w, workload::GenerateWorkload(g, o.queries, o.seed));
    // Applicability in the paper's column order.
    std::string cell[5];
    const char* order[5] = {"AF", "LD", "DJ", "EB", "NR"};
    for (const auto& sys : systems) {
      const sim::Aggregate a =
          Measure(*sys, g, w, o, o.Loss(), o.seed, client).aggregate;
      for (int c = 0; c < 5; ++c) {
        if (sys->name() == order[c]) {
          // "Y" or "-", then the driving number in parentheses. Built
          // from chars and one string append: in Release, gcc 12's
          // -Wrestrict misfires on assigning or prepending string literals.
          cell[c] += a.memory_exceeded > 0 ? '-' : 'Y';
          cell[c] += '(';
          cell[c] += Mb(a.peak_memory_bytes.max);
          cell[c] += ')';
        }
      }
    }
    std::printf("%-14s %8zu %8zu  %-10s %-10s %-10s %-10s %-10s\n",
                spec.name.c_str(), g.num_nodes(), g.num_arcs() / 2,
                cell[0].c_str(), cell[1].c_str(), cell[2].c_str(),
                cell[3].c_str(), cell[4].c_str());
  }
  return Status::OK();
}

// Table 3: server pre-computation seconds per network. EB and NR share one
// border-pair computation, so one column reports both; ArcFlag and
// Landmark are the routine's two systems.
Status Table3(const Experiment& e, const Options& o, const graph::Graph*) {
  std::printf("%-14s %12s %12s %12s\n", "Network", "EB/NR", "ArcFlag",
              "Landmark");
  for (const auto& spec : graph::PaperNetworks()) {
    AIRINDEX_ASSIGN_OR_RETURN(graph::Graph g, LoadNetwork(spec.name, o));
    // Computed directly rather than through the shared memo, so the time
    // is always a fresh computation's.
    AIRINDEX_ASSIGN_OR_RETURN(auto kd,
                              partition::KdTreePartitioner::Build(g, 32));
    AIRINDEX_ASSIGN_OR_RETURN(
        auto pre, core::ComputeBorderPrecompute(g, kd.Partition(g)));
    AIRINDEX_ASSIGN_OR_RETURN(auto systems,
                              core::BuildSystems(g, e.systems, {}));
    std::printf("%-14s %12.3f", spec.name.c_str(), pre.seconds);
    for (const auto& sys : systems) {
      std::printf(" %12.3f", sys->precompute_seconds());
    }
    std::printf("\n");
  }
  return Status::OK();
}

// Figure 10 (a-d): tuning time, memory, access latency and CPU time versus
// shortest-path length, in four buckets.
Status Fig10(const Experiment& e, const Options& o, const graph::Graph* g) {
  AIRINDEX_ASSIGN_OR_RETURN(auto systems,
                            core::BuildSystems(*g, e.systems, {}));
  AIRINDEX_ASSIGN_OR_RETURN(
      auto w, workload::GenerateWorkload(*g, o.queries, o.seed));
  const auto buckets = workload::BucketizeByLength(w, 4);
  const graph::Dist max_dist = workload::MaxTrueDist(w);

  // cells[b][mi]: method mi's aggregate over bucket b's queries.
  const device::EnergyModel energy(device::DeviceProfile::J2mePhone(),
                                   device::kBitrateStatic3G);
  std::vector<std::vector<sim::Aggregate>> cells(buckets.size());
  for (const auto& sys : systems) {
    const sim::SystemResult r = Measure(*sys, *g, w, o, o.Loss(), o.seed);
    for (size_t b = 0; b < buckets.size(); ++b) {
      std::vector<device::QueryMetrics> selected;
      selected.reserve(buckets[b].size());
      for (size_t i : buckets[b]) selected.push_back(r.per_query[i]);
      cells[b].push_back(sim::Aggregate::Of(r.system, selected, energy));
    }
  }

  const char* panels[4] = {"(a) tuning time [packets]", "(b) memory [MB]",
                           "(c) access latency [packets]",
                           "(d) CPU time [ms]"};
  for (int panel = 0; panel < 4; ++panel) {
    std::printf("\n%s\n", panels[panel]);
    std::printf("%-22s", "SP range");
    for (const auto& sys : systems) {
      std::printf(" %10s", std::string(sys->name()).c_str());
    }
    std::printf("\n");
    for (size_t b = 0; b < buckets.size(); ++b) {
      char label[64];
      std::snprintf(label, sizeof(label), "%.0f-%.0f (%zuq)",
                    static_cast<double>(max_dist) * b / 4,
                    static_cast<double>(max_dist) * (b + 1) / 4,
                    buckets[b].size());
      std::printf("%-22s", label);
      for (const sim::Aggregate& a : cells[b]) {
        switch (panel) {
          case 0:
            std::printf(" %10.0f", a.tuning_packets.mean);
            break;
          case 1:
            std::printf(" %10s", Mb(a.peak_memory_bytes.mean).c_str());
            break;
          case 2:
            std::printf(" %10.0f", a.latency_packets.mean);
            break;
          case 3:
            std::printf(" %10.2f", a.cpu_ms.mean);
            break;
        }
      }
      std::printf("\n");
    }
  }
  return Status::OK();
}

// Figure 11 (a-d, Appendix C.1): the region count of ArcFlag/EB/NR and the
// landmark count of LD swept together; Dijkstra is the flat reference.
Status Fig11(const Experiment& e, const Options& o, const graph::Graph* g) {
  AIRINDEX_ASSIGN_OR_RETURN(
      auto w, workload::GenerateWorkload(*g, o.queries, o.seed));
  struct Row {
    std::string config;
    sim::Aggregate aggregate;
  };
  std::vector<Row> rows;
  {
    AIRINDEX_ASSIGN_OR_RETURN(auto dj, core::BuildSystem(*g, "DJ", {}));
    rows.push_back({"-", Measure(*dj, *g, w, o, o.Loss(), o.seed).aggregate});
  }
  const uint32_t regions[4] = {16, 32, 64, 128};
  const uint32_t landmarks[4] = {2, 4, 8, 16};
  for (int i = 0; i < 4; ++i) {
    char cfg[32];
    std::snprintf(cfg, sizeof(cfg), "%u/%u", regions[i], landmarks[i]);
    core::SystemParams params;
    params.nr_regions = regions[i];
    params.eb_regions = regions[i];
    params.arcflag_regions = regions[i];
    params.landmarks = landmarks[i];
    // NR stays alive while EB builds, so EB reuses its border
    // pre-computation.
    AIRINDEX_ASSIGN_OR_RETURN(auto systems,
                              core::BuildSystems(*g, e.systems, params));
    for (const auto& sys : systems) {
      rows.push_back(
          {cfg, Measure(*sys, *g, w, o, o.Loss(), o.seed).aggregate});
    }
  }
  std::printf("%-10s %-6s %12s %10s %12s %10s\n", "regions/lm", "method",
              "tuning[pkt]", "mem[MB]", "latency[pkt]", "cpu[ms]");
  for (const Row& r : rows) {
    const sim::Aggregate& a = r.aggregate;
    std::printf("%-10s %-6s %12.0f %10s %12.0f %10.2f\n", r.config.c_str(),
                a.system.c_str(), a.tuning_packets.mean,
                Mb(a.peak_memory_bytes.mean).c_str(), a.latency_packets.mean,
                a.cpu_ms.mean);
  }
  return Status::OK();
}

// Figure 12 (a-d, Appendix C.3): the catalog's "paper-baseline" scenario
// (one uniform J2ME group, the §7 population) on each network.
Status Fig12(const Experiment& e, const Options& o, const graph::Graph*) {
  AIRINDEX_ASSIGN_OR_RETURN(sim::Scenario base,
                            sim::FindScenario("paper-baseline"));
  base.scale = o.scale;
  base.total_queries = o.queries;
  base.seed = o.seed;
  base.systems = Names(e.systems);
  base.params = {};
  for (auto& group : base.groups) {
    group.loss = o.Loss();
    group.client.heap_bytes = o.HeapBytes();
    // Pin the workload stream to --seed (instead of the scenario's derived
    // per-group stream) so --seed reproduces earlier fig12 runs.
    group.workload.seed = o.seed;
  }
  sim::ScenarioRunner::RunOptions ro;
  ro.threads = o.threads;
  const sim::ScenarioRunner runner(ro);

  std::printf("%-14s %-6s %12s %10s %12s %10s %6s\n", "network", "method",
              "tuning[pkt]", "mem[MB]", "latency[pkt]", "cpu[ms]", "fits");
  for (const auto& spec : graph::PaperNetworks()) {
    base.network = spec.name;
    auto result = runner.Run(base);
    if (!result.ok()) {
      return Status(result.status().code(),
                    spec.name + ": " + result.status().message());
    }
    for (const sim::SystemResult& r : result->fleet) {
      const sim::Aggregate& a = r.aggregate;
      std::printf("%-14s %-6s %12.0f %10s %12.0f %10.2f %6s\n",
                  spec.name.c_str(), a.system.c_str(), a.tuning_packets.mean,
                  Mb(a.peak_memory_bytes.mean).c_str(),
                  a.latency_packets.mean, a.cpu_ms.mean,
                  a.memory_exceeded > 0 ? "NO" : "yes");
    }
  }
  return Status::OK();
}

// Figure 13 (a-b, Appendix C.4): the catalog's "membound-precompute"
// scenario, two client groups with and without §6.1 super-edge
// pre-computation over identical workloads.
Status Fig13(const Experiment& e, const Options& o, const graph::Graph*) {
  AIRINDEX_ASSIGN_OR_RETURN(sim::Scenario scenario,
                            sim::FindScenario("membound-precompute"));
  scenario.systems = Names(e.systems);
  scenario.scale = o.scale;
  scenario.total_queries = o.queries * scenario.groups.size();
  scenario.seed = o.seed;
  for (auto& group : scenario.groups) {
    group.loss = o.Loss();
    // Identical workload AND channel replay in both groups: the ablation
    // isolates pre-computation, not sampling noise.
    group.workload.seed = o.seed;
    group.loss_seed = o.seed;
  }
  sim::ScenarioRunner::RunOptions ro;
  ro.threads = o.threads;
  AIRINDEX_ASSIGN_OR_RETURN(sim::ScenarioResult result,
                            sim::ScenarioRunner(ro).Run(scenario));

  std::printf("%-22s %12s %10s\n", "configuration", "mem[MB]", "cpu[ms]");
  // Per system in the paper's NR-then-EB order, group "with-precomp"
  // before "without-precomp".
  for (const char* method : {"NR", "EB"}) {
    for (const sim::GroupResult& gr : result.groups) {
      for (const sim::SystemResult& r : gr.systems) {
        if (r.system != method) continue;
        const std::string label =
            r.system + (gr.spec.client.memory_bound ? " (w/ precomp)"
                                                    : " (w/o precomp)");
        std::printf("%-22s %12s %10.2f\n", label.c_str(),
                    Mb(r.aggregate.peak_memory_bytes.mean).c_str(),
                    r.aggregate.cpu_ms.mean);
      }
    }
  }
  return Status::OK();
}

// Figure 14 (a-b, Appendix C.5): tuning time and access latency versus the
// packet-loss rate.
Status Fig14(const Experiment& e, const Options& o, const graph::Graph* g) {
  AIRINDEX_ASSIGN_OR_RETURN(auto systems,
                            core::BuildSystems(*g, e.systems, {}));
  AIRINDEX_ASSIGN_OR_RETURN(
      auto w, workload::GenerateWorkload(*g, o.queries, o.seed));
  core::ClientOptions client;
  client.max_repair_cycles = 64;
  // cells[ri][mi]: method mi's aggregate at swept rate ri.
  std::vector<std::vector<sim::Aggregate>> cells;
  for (double rate : e.loss_sweep) {
    const auto loss = broadcast::LossModel::Of(rate, o.burst, o.corrupt);
    auto& row = cells.emplace_back();
    for (const auto& sys : systems) {
      row.push_back(
          Measure(*sys, *g, w, o, loss, o.seed + 31, client).aggregate);
    }
  }
  for (const char* panel : {"(a) tuning time [packets]",
                            "(b) access latency [packets]"}) {
    const bool tuning = panel[1] == 'a';
    std::printf("\n%s\n%-10s", panel, "loss");
    for (const auto& sys : systems) {
      std::printf(" %10s", std::string(sys->name()).c_str());
    }
    std::printf("\n");
    for (size_t ri = 0; ri < cells.size(); ++ri) {
      std::printf("%-10s", Percent(e.loss_sweep[ri]).c_str());
      for (const sim::Aggregate& a : cells[ri]) {
        std::printf(" %10.0f", tuning ? a.tuning_packets.mean
                                      : a.latency_packets.mean);
      }
      std::printf("\n");
    }
  }
  return Status::OK();
}

// Ablation of EB's cross-border/local segment split (§4.1): tuning with
// and without receiving only the cross-border segments of intermediate
// regions, and how the network divides into cross-border and local nodes.
Status AblationCrossBorder(const Experiment&, const Options& o,
                           const graph::Graph* g) {
  AIRINDEX_ASSIGN_OR_RETURN(
      auto w, workload::GenerateWorkload(*g, o.queries, o.seed));
  AIRINDEX_ASSIGN_OR_RETURN(auto kd,
                            partition::KdTreePartitioner::Build(*g, 32));
  AIRINDEX_ASSIGN_OR_RETURN(
      auto pre, core::ComputeBorderPrecompute(*g, kd.Partition(*g)));
  size_t cross = 0;
  for (uint8_t c : pre.cross_border) cross += c;
  std::printf("cross-border nodes: %zu / %zu (%.1f%%)\n", cross,
              g->num_nodes(), 100.0 * cross / g->num_nodes());

  AIRINDEX_ASSIGN_OR_RETURN(auto eb,
                            core::EbSystem::BuildFromPrecompute(*g, pre));
  core::ClientOptions no_split;
  no_split.cross_border_opt = false;
  const sim::Aggregate with =
      Measure(*eb, *g, w, o, o.Loss(), o.seed).aggregate;
  const sim::Aggregate without =
      Measure(*eb, *g, w, o, o.Loss(), o.seed, no_split).aggregate;

  std::printf("%-24s %12s %10s\n", "configuration", "tuning[pkt]",
              "mem[MB]");
  std::printf("%-24s %12.0f %10s\n", "EB with split",
              with.tuning_packets.mean,
              Mb(with.peak_memory_bytes.mean).c_str());
  std::printf("%-24s %12.0f %10s\n", "EB without split",
              without.tuning_packets.mean,
              Mb(without.peak_memory_bytes.mean).c_str());
  std::printf("tuning saved: %.1f%%\n",
              100.0 * (1.0 - with.tuning_packets.mean /
                                 without.tuning_packets.mean));
  return Status::OK();
}

struct PartitionStats {
  size_t min_pop = 0, max_pop = 0;
  size_t borders = 0;
  double precompute_s = 0;
  double avg_needed_regions = 0;
};

Result<PartitionStats> AnalyzePartitioning(const graph::Graph& g,
                                           partition::Partitioning part,
                                           const workload::Workload& w) {
  PartitionStats stats;
  stats.min_pop = SIZE_MAX;
  for (const auto& nodes : part.region_nodes) {
    stats.min_pop = std::min(stats.min_pop, nodes.size());
    stats.max_pop = std::max(stats.max_pop, nodes.size());
  }
  AIRINDEX_ASSIGN_OR_RETURN(auto pre,
                            core::ComputeBorderPrecompute(g, std::move(part)));
  stats.borders = pre.borders.border_nodes.size();
  stats.precompute_s = pre.seconds;

  // EB pruning: how many regions survive mindist(Rs,R) + mindist(R,Rt)
  // <= UB?
  double total = 0;
  for (const auto& q : w.queries) {
    const graph::RegionId rs = pre.part.node_region[q.source];
    const graph::RegionId rt = pre.part.node_region[q.target];
    const graph::Dist ub = pre.MaxDist(rs, rt);
    size_t needed = 0;
    for (graph::RegionId r = 0; r < pre.num_regions; ++r) {
      if (r == rs || r == rt) {
        ++needed;
        continue;
      }
      const graph::Dist a = pre.MinDist(rs, r);
      const graph::Dist b = pre.MinDist(r, rt);
      if (a != graph::kInfDist && b != graph::kInfDist &&
          ub != graph::kInfDist && a + b <= ub) {
        ++needed;
      }
    }
    total += static_cast<double>(needed);
  }
  stats.avg_needed_regions = total / static_cast<double>(w.queries.size());
  return stats;
}

// Ablation of kd-tree vs regular-grid partitioning (§4.1's design
// argument): region population balance, border nodes, pre-computation
// cost and the regions EB's elliptic pruning keeps per query.
Status AblationPartitioning(const Experiment&, const Options& o,
                            const graph::Graph* g) {
  AIRINDEX_ASSIGN_OR_RETURN(
      auto w, workload::GenerateWorkload(*g, o.queries, o.seed));
  AIRINDEX_ASSIGN_OR_RETURN(auto kd,
                            partition::KdTreePartitioner::Build(*g, 32));
  AIRINDEX_ASSIGN_OR_RETURN(auto grid,  // 32 cells
                            partition::GridPartitioner::Build(*g, 8, 4));
  AIRINDEX_ASSIGN_OR_RETURN(PartitionStats kd_stats,
                            AnalyzePartitioning(*g, kd.Partition(*g), w));
  AIRINDEX_ASSIGN_OR_RETURN(PartitionStats grid_stats,
                            AnalyzePartitioning(*g, grid.Partition(*g), w));
  std::printf("%-14s %10s %10s %10s %12s %14s\n", "partitioner", "min pop",
              "max pop", "borders", "precomp[s]", "needed regions");
  for (const auto& [label, s] :
       {std::pair{"kd-tree", kd_stats}, std::pair{"grid", grid_stats}}) {
    std::printf("%-14s %10zu %10zu %10zu %12.3f %14.2f\n", label, s.min_pop,
                s.max_pop, s.borders, s.precompute_s, s.avg_needed_regions);
  }
  return Status::OK();
}

constexpr std::string_view kTable3Systems[] = {"AF", "LD"};
constexpr std::string_view kFig11Systems[] = {"NR", "EB", "AF", "LD"};
constexpr std::string_view kFig13Systems[] = {"EB", "NR"};
constexpr double kFig14Rates[] = {0.001, 0.005, 0.01, 0.05, 0.10};

const Experiment kExperiments[] = {
    {"table1", "Table 1: broadcast cycle length (Germany)", "Germany",
     core::kAllSystems, {}, Table1,
     "# paper (full scale): DJ 14019, NR 14260, EB 15299, LD 21236,\n"
     "#                      AF 29233, SPQ 52337, HiTi 58138 packets\n"},
    {"table2", "Table 2: method applicability per network", "",
     core::kMainSystems, {}, Table2,
     "# paper: AF/LD only Milan+Germany; DJ up to Argentina; EB up to\n"
     "# India; NR all five. Y(x.xx) = fits, peak MB in parentheses.\n"},
    {"table3", "Table 3: pre-computation time (seconds)", "", kTable3Systems,
     {}, Table3,
     "# paper (full scale, 3 GHz single core): Germany 61.8/58.1/1.0;\n"
     "# San Francisco 6332/2165/5.3 seconds. Ours is multi-threaded, so\n"
     "# absolute values are lower; growth with network size is the shape\n"
     "# to compare.\n"},
    {"fig10", "Figure 10: effect of shortest-path length (Germany)",
     "Germany", core::kMainSystems, {}, Fig10,
     "# paper shape: NR << EB << DJ < LD < AF in tuning/memory; EB\n"
     "# grows with path length; NR latency < DJ latency.\n"},
    {"fig11", "Figure 11: fine-tuning regions/landmarks (Germany)",
     "Germany", kFig11Systems, {}, Fig11,
     "# paper shape: EB/NR best around 32 regions; EB/NR latency grows\n"
     "# with regions; LD degrades as landmarks increase.\n"},
    {"fig12", "Figure 12: performance across networks", "",
     core::kMainSystems, {}, Fig12,
     "# paper shape: all metrics grow with network size; NR lowest\n"
     "# everywhere and the only method fitting San Francisco.\n"},
    {"fig13", "Figure 13: client-side pre-computation (memory-bound mode)",
     "", kFig13Systems, {}, Fig13,
     "# paper shape: w/ precomp lowers peak memory ~35% for both EB\n"
     "# and NR; CPU cost rises (pre-computation during reception).\n"},
    {"fig14", "Figure 14: effect of packet loss (Germany)", "Germany",
     core::kMainSystems, kFig14Rates, Fig14,
     "# paper shape: NR wins at every loss rate; degradation is\n"
     "# proportional to a method's tuning time.\n"},
    {"ablation-crossborder", "Ablation: EB cross-border/local segment split",
     "Germany", {}, {}, AblationCrossBorder,
     "# paper: the optimization reduces tuning time ~20%.\n"},
    {"ablation-partitioning",
     "Ablation: kd-tree vs regular-grid partitioning", "Germany", {}, {},
     AblationPartitioning,
     "# expected: kd-tree balances populations (max/min close to 1)\n"
     "# while the grid is skewed, which is the paper's reason to use\n"
     "# kd-tree partitioning.\n"},
};

}  // namespace

std::span<const Experiment> Experiments() { return kExperiments; }

const Experiment* FindExperiment(std::string_view name) {
  for (const Experiment& e : kExperiments) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

Status Run(const Experiment& e, const Options& o) {
  std::string loss;
  if (e.loss_sweep.empty()) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4f", o.loss);
    loss = buf;
  } else {
    for (double rate : e.loss_sweep) {
      if (!loss.empty()) loss += ',';
      loss += Percent(rate);
    }
  }
  std::printf("==================================================\n");
  std::printf("%.*s\n", static_cast<int>(e.title.size()), e.title.data());
  std::printf("scale=%.2f queries=%zu seed=%llu loss=%s", o.scale, o.queries,
              static_cast<unsigned long long>(o.seed), loss.c_str());
  if (o.burst > 1) std::printf(" burst=%u", o.burst);
  std::printf("\n==================================================\n");

  std::optional<graph::Graph> g;
  if (!e.network.empty()) {
    AIRINDEX_ASSIGN_OR_RETURN(g, LoadNetwork(e.network, o));
  }
  AIRINDEX_RETURN_IF_ERROR(e.print(e, o, g ? &*g : nullptr));
  std::printf("\n%.*s", static_cast<int>(e.footer.size()), e.footer.data());
  return Status::OK();
}

}  // namespace airindex::paper
