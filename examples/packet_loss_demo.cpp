// Packet loss resilience (§6.2): the same query stream over increasingly
// lossy channels. Every method stays exact — losses only cost tuning time
// and latency — and the lower a method's tuning time, the less it degrades.
// Systems come from the core catalog (core::BuildSystem) instead of
// per-method Build calls; the last row shows the same loss rate grouped
// into fade bursts (LossModel::Bursty).
//
//   $ ./packet_loss_demo

#include <cstdio>
#include <memory>
#include <vector>

#include "broadcast/channel.h"
#include "core/query_scratch.h"
#include "core/systems.h"
#include "graph/generator.h"
#include "workload/workload.h"

using namespace airindex;  // NOLINT: example binary

int main() {
  graph::GeneratorOptions gen;
  gen.num_nodes = 3000;
  gen.num_edges = 4200;
  gen.seed = 99;
  graph::Graph network = graph::GenerateRoadNetwork(gen).value();

  std::vector<std::unique_ptr<core::AirSystem>> systems;
  core::SystemParams params;
  params.nr_regions = 16;
  for (const char* method : {"DJ", "NR"}) {
    systems.push_back(core::BuildSystem(network, method, params).value());
  }
  auto w = workload::GenerateWorkload(network, 25, 3).value();

  const broadcast::LossModel models[] = {
      broadcast::LossModel::None(), broadcast::LossModel::Independent(0.01),
      broadcast::LossModel::Independent(0.05),
      broadcast::LossModel::Independent(0.10),
      broadcast::LossModel::Bursty(0.10, 8)};

  std::printf("%-14s %-6s %14s %14s %8s\n", "loss", "method", "tuning[pkt]",
              "latency[pkt]", "exact");
  core::QueryScratch scratch;
  for (const broadcast::LossModel& loss : models) {
    for (const auto& sys : systems) {
      broadcast::BroadcastChannel channel(&sys->cycle(), loss, 555);
      core::ClientOptions opts;
      opts.max_repair_cycles = 64;
      double tuning = 0, latency = 0;
      bool all_exact = true;
      for (const auto& q : w.queries) {
        auto m = sys->RunQuery(channel, core::MakeAirQuery(network, q),
                               opts, &scratch);
        tuning += static_cast<double>(m.tuning_packets);
        latency += static_cast<double>(m.latency_packets);
        all_exact &= m.ok && m.distance == q.true_dist;
      }
      const auto n = static_cast<double>(w.queries.size());
      char label[32];
      if (loss.burst_len > 1) {
        std::snprintf(label, sizeof(label), "%.0f%% burst=%u",
                      loss.rate * 100, loss.burst_len);
      } else {
        std::snprintf(label, sizeof(label), "%.0f%%", loss.rate * 100);
      }
      std::printf("%-14s %-6s %14.0f %14.0f %8s\n", label,
                  std::string(sys->name()).c_str(), tuning / n, latency / n,
                  all_exact ? "yes" : "NO");
    }
  }
  std::printf(
      "\nDijkstra re-listens to every lost adjacency packet next cycle;\n"
      "NR only re-listens within the few regions it needs, so its\n"
      "degradation stays proportional to its (small) tuning time.\n"
      "Bursty fades cost less tuning than independent losses at the same\n"
      "rate: a client re-listens to whole runs of packets in one pass.\n");
  return 0;
}
