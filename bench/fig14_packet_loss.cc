// Reproduces Figure 14 (a-b, Appendix C.5): tuning time and access latency
// versus packet-loss rate (0.1% to 10%).
//
// Expected shape (paper): all methods degrade with loss; NR remains the
// clear winner at every rate; the lower a method's tuning time, the less it
// degrades.

#include <cstdio>

#include "common/harness.h"
#include "common/options.h"
#include "core/systems.h"

using namespace airindex;  // NOLINT: experiment binary

int main(int argc, char** argv) {
  bench::BenchOptions opts = bench::ParseBenchOptions(argc, argv);
  bench::PrintHeader("Figure 14: effect of packet loss (Germany)", opts);
  graph::Graph g = bench::LoadNetwork("Germany", opts);

  core::SystemParams params;
  params.arcflag_regions = 16;
  params.eb_regions = 32;
  params.nr_regions = 32;
  params.landmarks = 4;
  auto systems = core::BuildSystems(g, params).value();
  auto w = workload::GenerateWorkload(g, opts.queries, opts.seed).value();

  const double rates[5] = {0.001, 0.005, 0.01, 0.05, 0.10};

  for (const char* panel : {"(a) tuning time [packets]",
                            "(b) access latency [packets]"}) {
    const bool tuning = panel[1] == 'a';
    std::printf("\n%s\n%-10s", panel, "loss");
    for (const auto& sys : systems) {
      std::printf(" %10s", std::string(sys->name()).c_str());
    }
    std::printf("\n");
    for (double rate : rates) {
      std::printf("%-10.1f%%", rate * 100);
      const auto loss = broadcast::LossModel::Of(rate, opts.burst);
      for (const auto& sys : systems) {
        core::ClientOptions copts;
        copts.max_repair_cycles = 64;
        auto metrics = bench::RunQueries(*sys, g, w, loss, opts.seed + 31,
                                         copts, opts.threads, opts.repeat);
        auto s = device::MetricsSummary::Of(metrics);
        std::printf(" %10.0f",
                    tuning ? s.avg_tuning_packets : s.avg_latency_packets);
      }
      std::printf("\n");
    }
  }
  std::printf(
      "\n# paper shape: NR wins at every loss rate; degradation is\n"
      "# proportional to a method's tuning time.\n");
  return 0;
}
