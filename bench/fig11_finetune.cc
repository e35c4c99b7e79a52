// Reproduces Figure 11 (a-d, Appendix C.1): fine-tuning the number of
// regions (ArcFlag/EB/NR) and landmarks (LD) on Germany. Dijkstra is the
// flat reference line.
//
// Expected shape (paper): EB/NR tuning is U-shaped in the region count
// (too few regions = loose pruning, too many = index overhead) with the
// optimum around 32; latency strictly grows with regions; Landmark's
// vectors blow the cycle up as landmarks increase.

#include <cstdio>
#include <memory>
#include <vector>

#include "common/harness.h"
#include "common/options.h"
#include "core/systems.h"

using namespace airindex;  // NOLINT: experiment binary

namespace {

struct Row {
  std::string config;
  std::string method;
  device::MetricsSummary summary;
};

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions opts = bench::ParseBenchOptions(argc, argv);
  bench::PrintHeader("Figure 11: fine-tuning regions/landmarks (Germany)",
                     opts);
  graph::Graph g = bench::LoadNetwork("Germany", opts);
  auto w = workload::GenerateWorkload(g, opts.queries, opts.seed).value();

  const uint32_t regions[4] = {16, 32, 64, 128};
  const uint32_t landmarks[4] = {2, 4, 8, 16};

  std::vector<Row> rows;
  // Dijkstra reference (independent of the sweep).
  {
    auto dj = core::BuildSystem(g, "DJ", {}).value();
    auto m = bench::RunQueries(*dj, g, w, opts.Loss(), opts.seed, {},
                               opts.threads, opts.repeat);
    rows.push_back({"-", "DJ", device::MetricsSummary::Of(m)});
  }
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
    std::vector<std::unique_ptr<core::AirSystem>> systems;
    for (const char* method : {"NR", "EB", "AF", "LD"}) {
      systems.push_back(core::BuildSystem(g, method, params).value());
      auto m = bench::RunQueries(*systems.back(), g, w, opts.Loss(),
                                 opts.seed, {}, opts.threads, opts.repeat);
      rows.push_back({cfg, method, device::MetricsSummary::Of(m)});
    }
  }

  std::printf("%-10s %-6s %12s %10s %12s %10s\n", "regions/lm", "method",
              "tuning[pkt]", "mem[MB]", "latency[pkt]", "cpu[ms]");
  for (const auto& r : rows) {
    std::printf("%-10s %-6s %12.0f %10s %12.0f %10.2f\n", r.config.c_str(),
                r.method.c_str(), r.summary.avg_tuning_packets,
                bench::Mb(r.summary.avg_peak_memory_bytes).c_str(),
                r.summary.avg_latency_packets, r.summary.avg_cpu_ms);
  }
  std::printf(
      "\n# paper shape: EB/NR best around 32 regions; EB/NR latency grows\n"
      "# with regions; LD degrades as landmarks increase.\n");
  return 0;
}
