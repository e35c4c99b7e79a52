// City navigation: a Milan-style network broadcasts on air while a fleet of
// commuters runs shortest-path queries. Compares every applicable method on
// the §3.1 performance factors, including battery cost per query.
//
//   $ ./city_navigation

#include <cstdio>
#include <vector>

#include "broadcast/channel.h"
#include "core/query_scratch.h"
#include "core/systems.h"
#include "device/energy.h"
#include "graph/catalog.h"
#include "workload/workload.h"

using namespace airindex;  // NOLINT: example binary

int main() {
  // A scaled Milan replica keeps the example under a few seconds.
  graph::Graph city =
      graph::MakeNetwork(graph::PaperNetworks()[0], /*scale=*/0.15).value();
  std::printf("Milan-style network: %zu intersections, %zu road arcs\n\n",
              city.num_nodes(), city.num_arcs());

  core::SystemParams params;
  params.arcflag_regions = 16;
  params.eb_regions = 16;
  params.nr_regions = 16;
  params.landmarks = 4;
  auto systems = core::BuildSystems(city, params).value();

  // 60 commuters asking for routes at random instants.
  auto commuters = workload::GenerateWorkload(city, 60, 2024).value();

  device::EnergyModel energy(device::DeviceProfile::J2mePhone(),
                             device::kBitrateStatic3G);

  std::printf("%-6s %12s %12s %10s %10s %10s\n", "method", "tuning[pkt]",
              "latency[s]", "mem[KB]", "cpu[ms]", "energy[J]");
  core::QueryScratch scratch;
  for (const auto& sys : systems) {
    broadcast::BroadcastChannel channel(&sys->cycle(), 0.0);
    std::vector<device::QueryMetrics> metrics;
    double joules = 0;
    for (const auto& q : commuters.queries) {
      auto m =
          sys->RunQuery(channel, core::MakeAirQuery(city, q), {}, &scratch);
      joules += energy.QueryJoules(m);
      metrics.push_back(m);
    }
    auto s = device::MetricsSummary::Of(metrics);
    std::printf("%-6s %12.0f %12.2f %10.0f %10.2f %10.3f\n",
                std::string(sys->name()).c_str(), s.avg_tuning_packets,
                device::CycleSeconds(
                    static_cast<uint64_t>(s.avg_latency_packets),
                    device::kBitrateStatic3G),
                s.avg_peak_memory_bytes / 1024.0, s.avg_cpu_ms,
                joules / static_cast<double>(commuters.queries.size()));
  }
  std::printf(
      "\nSelective tuning (NR, EB) receives a handful of regions instead\n"
      "of the whole city, which is where the battery savings come from.\n");
  return 0;
}
