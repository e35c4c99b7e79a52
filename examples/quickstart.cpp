// Quickstart: build a road network, put the Next Region method on air, and
// answer one shortest-path query from a simulated mobile client.
//
//   $ ./quickstart

#include <cstdio>

#include "broadcast/channel.h"
#include "core/nr.h"
#include "core/query_scratch.h"
#include "device/energy.h"
#include "graph/generator.h"
#include "workload/workload.h"

using namespace airindex;  // NOLINT: example binary

int main() {
  // 1. A synthetic road network: 2,000 intersections, 3,000 road segments.
  graph::GeneratorOptions gen;
  gen.num_nodes = 2000;
  gen.num_edges = 3000;
  gen.seed = 7;
  graph::Graph network = graph::GenerateRoadNetwork(gen).value();
  std::printf("network: %zu nodes, %zu arcs\n", network.num_nodes(),
              network.num_arcs());

  // 2. Server side: build the NR broadcast cycle (kd-tree partitioning into
  //    16 regions, border-pair pre-computation, per-region local indexes).
  auto server = core::NrSystem::Build(network, /*num_regions=*/16).value();
  std::printf("broadcast cycle: %u packets of %zu bytes (pre-computed in "
              "%.2f s)\n",
              server->cycle().total_packets(), broadcast::kPacketSize,
              server->precompute_seconds());

  // 3. The channel transmits the cycle forever; a client tunes in at an
  //    arbitrary instant and asks for a shortest path.
  broadcast::BroadcastChannel channel(&server->cycle(), /*loss_rate=*/0.0);

  workload::Query query;
  query.source = 17;
  query.target = 1860;
  query.tune_phase = 0.42;  // tune in 42% into the cycle
  core::QueryScratch scratch;  // the client's reusable working memory
  device::QueryMetrics result = server->RunQuery(
      channel, core::MakeAirQuery(network, query), {}, &scratch);

  // 4. What did it cost? (the paper's §3.1 performance factors)
  device::EnergyModel energy(device::DeviceProfile::J2mePhone(),
                             device::kBitrateMoving3G);
  std::printf("\nquery %u -> %u\n", query.source, query.target);
  std::printf("  distance        : %llu\n",
              static_cast<unsigned long long>(result.distance));
  std::printf("  tuning time     : %llu packets\n",
              static_cast<unsigned long long>(result.tuning_packets));
  std::printf("  access latency  : %llu packets (%.2f s at 384 Kbps)\n",
              static_cast<unsigned long long>(result.latency_packets),
              device::CycleSeconds(result.latency_packets,
                                   device::kBitrateMoving3G));
  std::printf("  peak memory     : %.2f KB\n",
              result.peak_memory_bytes / 1024.0);
  std::printf("  client CPU      : %.2f ms\n", result.cpu_ms);
  std::printf("  regions received: %u of 16\n", result.regions_received);
  std::printf("  radio energy    : %.3f J\n", energy.QueryJoules(result));
  return result.ok ? 0 : 1;
}
