// Memory-bound processing (§6.1): a device with a tiny application heap
// collapses each received region into super-edges instead of keeping the
// raw data, trading CPU for peak memory. Distances stay exact. Systems
// come from the core catalog (core::BuildSystem); the heap budget comes
// from the device catalog's iot-sensor profile.
//
//   $ ./memory_bound_device

#include <cstdio>
#include <memory>
#include <vector>

#include "broadcast/channel.h"
#include "core/query_scratch.h"
#include "core/systems.h"
#include "device/profile_catalog.h"
#include "graph/generator.h"
#include "workload/workload.h"

using namespace airindex;  // NOLINT: example binary

int main() {
  graph::GeneratorOptions gen;
  gen.num_nodes = 4000;
  gen.num_edges = 5600;
  gen.seed = 12;
  graph::Graph network = graph::GenerateRoadNetwork(gen).value();

  std::vector<std::unique_ptr<core::AirSystem>> systems;
  core::SystemParams params;
  params.eb_regions = 16;
  params.nr_regions = 16;
  for (const char* method : {"EB", "NR"}) {
    systems.push_back(core::BuildSystem(network, method, params).value());
  }
  auto w = workload::GenerateWorkload(network, 30, 6).value();

  const device::DeviceProfile sensor =
      device::FindProfile("iot-sensor").value();
  std::printf("device: iot-sensor, %.1f MB heap\n",
              static_cast<double>(sensor.heap_bytes) / (1024.0 * 1024.0));

  std::printf("%-4s %-14s %12s %10s %8s\n", "", "mode", "peak mem[KB]",
              "cpu[ms]", "exact");
  core::QueryScratch scratch;
  for (const auto& sys : systems) {
    for (bool membound : {false, true}) {
      broadcast::BroadcastChannel channel(&sys->cycle(), 0.0);
      core::ClientOptions opts;
      opts.heap_bytes = sensor.heap_bytes;
      opts.memory_bound = membound;
      double mem = 0, cpu = 0;
      bool all_exact = true;
      for (const auto& q : w.queries) {
        auto m = sys->RunQuery(channel, core::MakeAirQuery(network, q),
                               opts, &scratch);
        mem += static_cast<double>(m.peak_memory_bytes);
        cpu += m.cpu_ms;
        all_exact &= m.ok && m.distance == q.true_dist;
      }
      const auto n = static_cast<double>(w.queries.size());
      std::printf("%-4s %-14s %12.1f %10.2f %8s\n",
                  std::string(sys->name()).c_str(),
                  membound ? "super-edges" : "raw regions", mem / n / 1024.0,
                  cpu / n, all_exact ? "yes" : "NO");
    }
  }
  std::printf(
      "\nSuper-edge processing keeps only border-to-border distances per\n"
      "region (Fig. 8's G' overlay), cutting the peak working set while\n"
      "still returning exact shortest-path distances.\n");
  return 0;
}
