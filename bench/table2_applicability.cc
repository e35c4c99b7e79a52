// Reproduces Table 2: which methods fit the client device's heap on each
// evaluation network. A method is applicable iff its peak client memory
// stays within the (scale-adjusted) 8 MB J2ME heap across the workload.
//
// Expected shape (paper): NR works everywhere; EB up to India; DJ up to
// Argentina; AF/LD only on the two smallest networks.

#include <cstdio>

#include "common/harness.h"
#include "common/options.h"
#include "core/systems.h"

using namespace airindex;  // NOLINT: experiment binary

int main(int argc, char** argv) {
  bench::BenchOptions opts = bench::ParseBenchOptions(argc, argv);
  bench::PrintHeader("Table 2: method applicability per network", opts);
  std::printf("# heap budget scaled with network: %s MB\n",
              bench::Mb(static_cast<double>(opts.ScaledHeapBytes())).c_str());

  std::printf("%-14s %8s %8s  %-4s %-4s %-4s %-4s %-4s\n", "Network",
              "Nodes", "Edges", "AF", "LD", "DJ", "EB", "NR");

  for (const auto& spec : graph::PaperNetworks()) {
    graph::Graph g = bench::LoadNetwork(spec.name, opts);
    core::SystemParams params;
    params.arcflag_regions = 16;
    params.eb_regions = 32;
    params.nr_regions = 32;
    params.landmarks = 4;
    auto systems = core::BuildSystems(g, params);
    if (!systems.ok()) {
      std::fprintf(stderr, "%s\n", systems.status().ToString().c_str());
      return 1;
    }
    auto w = workload::GenerateWorkload(g, opts.queries, opts.seed).value();

    core::ClientOptions copts;
    copts.heap_bytes = opts.ScaledHeapBytes();

    // Collect applicability in the paper's column order.
    std::string cell[5];
    const char* order[5] = {"AF", "LD", "DJ", "EB", "NR"};
    for (const auto& sys : *systems) {
      auto metrics = bench::RunQueries(*sys, g, w, opts.Loss(), opts.seed,
                                       copts, opts.threads, opts.repeat);
      auto summary = device::MetricsSummary::Of(metrics);
      for (int c = 0; c < 5; ++c) {
        if (sys->name() == order[c]) {
          // "Y" or "-", then the driving number in parentheses. Built
          // from chars and one string append: in Release, gcc 12's
          // -Wrestrict misfires on assigning or prepending string literals.
          cell[c].clear();
          cell[c] += summary.any_memory_exceeded ? '-' : 'Y';
          cell[c] += '(';
          cell[c] += bench::Mb(summary.max_peak_memory_bytes);
          cell[c] += ')';
        }
      }
    }
    std::printf("%-14s %8zu %8zu  %-10s %-10s %-10s %-10s %-10s\n",
                spec.name.c_str(), g.num_nodes(), g.num_arcs() / 2,
                cell[0].c_str(), cell[1].c_str(), cell[2].c_str(),
                cell[3].c_str(), cell[4].c_str());
  }
  std::printf(
      "\n# paper: AF/LD only Milan+Germany; DJ up to Argentina; EB up to\n"
      "# India; NR all five. Y(x.xx) = fits, peak MB in parentheses.\n");
  return 0;
}
