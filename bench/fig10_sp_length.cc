// Reproduces Figure 10 (a-d): tuning time, memory, access latency and CPU
// time versus shortest-path length (4 buckets) on the Germany network.
//
// Expected shape (paper): NR best and EB runner-up in tuning/memory; EB
// degrades toward DJ for long paths; full-cycle methods flat and high; NR
// latency below even DJ's.

#include <cstdio>

#include "common/harness.h"
#include "common/options.h"
#include "core/systems.h"

using namespace airindex;  // NOLINT: experiment binary

int main(int argc, char** argv) {
  bench::BenchOptions opts = bench::ParseBenchOptions(argc, argv);
  bench::PrintHeader("Figure 10: effect of shortest-path length (Germany)",
                     opts);
  graph::Graph g = bench::LoadNetwork("Germany", opts);

  core::SystemParams params;
  params.arcflag_regions = 16;
  params.eb_regions = 32;
  params.nr_regions = 32;
  params.landmarks = 4;
  auto systems = core::BuildSystems(g, params).value();
  auto w = workload::GenerateWorkload(g, opts.queries, opts.seed).value();
  auto buckets = workload::BucketizeByLength(w, 4);
  const graph::Dist max_dist = workload::MaxTrueDist(w);

  // All per-query metrics per method, computed once.
  std::vector<std::vector<device::QueryMetrics>> per_method;
  for (const auto& sys : systems) {
    per_method.push_back(bench::RunQueries(*sys, g, w, opts.Loss(), opts.seed,
                                           {}, opts.threads, opts.repeat));
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
    for (int b = 0; b < 4; ++b) {
      char label[64];
      std::snprintf(label, sizeof(label), "%.0f-%.0f (%zuq)",
                    static_cast<double>(max_dist) * b / 4,
                    static_cast<double>(max_dist) * (b + 1) / 4,
                    buckets[b].size());
      std::printf("%-22s", label);
      for (size_t mi = 0; mi < systems.size(); ++mi) {
        auto sel = bench::Select(per_method[mi], buckets[b]);
        auto s = device::MetricsSummary::Of(sel);
        switch (panel) {
          case 0:
            std::printf(" %10.0f", s.avg_tuning_packets);
            break;
          case 1:
            std::printf(" %10s", bench::Mb(s.avg_peak_memory_bytes).c_str());
            break;
          case 2:
            std::printf(" %10.0f", s.avg_latency_packets);
            break;
          case 3:
            std::printf(" %10.2f", s.avg_cpu_ms);
            break;
        }
      }
      std::printf("\n");
    }
  }
  std::printf(
      "\n# paper shape: NR << EB << DJ < LD < AF in tuning/memory; EB\n"
      "# grows with path length; NR latency < DJ latency.\n");
  return 0;
}
