#ifndef AIRINDEX_CORE_DIJKSTRA_ON_AIR_H_
#define AIRINDEX_CORE_DIJKSTRA_ON_AIR_H_

#include <memory>

#include "common/result.h"
#include "core/air_system.h"
#include "core/cycle_common.h"
#include "graph/graph.h"

namespace airindex::core {

/// The broadcast adaptation of Dijkstra's algorithm (§3.2): the cycle
/// carries only the network data (shortest possible cycle) and the client,
/// having no way to tune selectively, listens to the entire cycle, rebuilds
/// the whole network in memory, and searches locally. Lost adjacency
/// packets are re-listened to on later cycles (§6.2).
class DijkstraOnAir : public AirSystem {
 public:
  static Result<std::unique_ptr<DijkstraOnAir>> Build(
      const graph::Graph& g, const BuildConfig& config = {});

  std::string_view name() const override { return "DJ"; }
  const broadcast::BroadcastCycle& cycle() const override { return cycle_; }
  device::QueryMetrics RunQuery(const broadcast::BroadcastChannel& channel,
                                const AirQuery& query,
                                const ClientOptions& options,
                                QueryScratch* scratch) const override;

 private:
  DijkstraOnAir() = default;

  broadcast::BroadcastCycle cycle_;
  uint32_t num_nodes_ = 0;
};

}  // namespace airindex::core

#endif  // AIRINDEX_CORE_DIJKSTRA_ON_AIR_H_
