// Reproduces Table 1: broadcast cycle length (packets; seconds at 2 Mbps
// and 384 Kbps) of every method on the default (Germany) network.
//
// Expected shape (paper): DJ < NR < EB << LD < AF << SPQ < HiTi.

#include <cstdio>

#include "common/harness.h"
#include "common/options.h"
#include "core/systems.h"
#include "device/device_profile.h"

using namespace airindex;  // NOLINT: experiment binary

int main(int argc, char** argv) {
  bench::BenchOptions opts = bench::ParseBenchOptions(argc, argv);
  bench::PrintHeader("Table 1: broadcast cycle length (Germany)", opts);
  graph::Graph g = bench::LoadNetwork("Germany", opts);

  core::SystemParams params;
  params.arcflag_regions = 16;
  params.eb_regions = 32;
  params.nr_regions = 32;
  params.landmarks = 4;
  params.hiti_regions = 32;
  params.include_spq = !opts.no_heavy;
  params.include_hiti = !opts.no_heavy;

  auto systems = core::BuildSystems(g, params);
  if (!systems.ok()) {
    std::fprintf(stderr, "%s\n", systems.status().ToString().c_str());
    return 1;
  }

  std::printf("%-8s %10s %14s %15s\n", "Method", "Packets", "Sec (2Mbps)",
              "Sec (384Kbps)");
  for (const auto& sys : *systems) {
    const uint32_t packets = sys->cycle().total_packets();
    std::printf("%-8s %10u %14.3f %15.3f\n",
                std::string(sys->name()).c_str(), packets,
                device::CycleSeconds(packets, device::kBitrateStatic3G),
                device::CycleSeconds(packets, device::kBitrateMoving3G));
  }
  std::printf(
      "\n# paper (full scale): DJ 14019, NR 14260, EB 15299, LD 21236,\n"
      "#                      AF 29233, SPQ 52337, HiTi 58138 packets\n");
  return 0;
}
