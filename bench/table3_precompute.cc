// Reproduces Table 3 (Appendix C.2): server pre-computation time in seconds
// per network for EB/NR, ArcFlag and Landmark. EB and NR share one
// border-pair computation: NrSystem::Build and EbSystem::Build take it from
// core::SharedBorderPrecompute, so building both costs the one figure
// reported here (each system's precompute_seconds() repeats it).
//
// Expected shape (paper): Landmark is near-instant; EB/NR and ArcFlag grow
// with network size but stay practical (one-off cost).

#include <cstdio>

#include "common/harness.h"
#include "common/options.h"
#include "core/border_precompute.h"
#include "core/systems.h"
#include "partition/kd_tree.h"

using namespace airindex;  // NOLINT: experiment binary

int main(int argc, char** argv) {
  bench::BenchOptions opts = bench::ParseBenchOptions(argc, argv);
  bench::PrintHeader("Table 3: pre-computation time (seconds)", opts);

  std::printf("%-14s %12s %12s %12s\n", "Network", "EB/NR", "ArcFlag",
              "Landmark");
  for (const auto& spec : graph::PaperNetworks()) {
    graph::Graph g = bench::LoadNetwork(spec.name, opts);

    // Computed directly rather than through the shared memo, so the time
    // is always a fresh computation's.
    auto kd = partition::KdTreePartitioner::Build(g, 32).value();
    auto pre = core::ComputeBorderPrecompute(g, kd.Partition(g)).value();

    auto af = core::BuildSystem(g, "AF", {}).value();
    auto ld = core::BuildSystem(g, "LD", {}).value();

    std::printf("%-14s %12.3f %12.3f %12.3f\n", spec.name.c_str(),
                pre.seconds, af->precompute_seconds(),
                ld->precompute_seconds());
  }
  std::printf(
      "\n# paper (full scale, 3 GHz single core): Germany 61.8/58.1/1.0;\n"
      "# San Francisco 6332/2165/5.3 seconds. Ours is multi-threaded, so\n"
      "# absolute values are lower; growth with network size is the shape\n"
      "# to compare.\n");
  return 0;
}
