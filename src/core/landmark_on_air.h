#ifndef AIRINDEX_CORE_LANDMARK_ON_AIR_H_
#define AIRINDEX_CORE_LANDMARK_ON_AIR_H_

#include <memory>

#include "algo/landmark.h"
#include "common/result.h"
#include "core/air_system.h"
#include "core/cycle_common.h"
#include "graph/graph.h"

namespace airindex::core {

/// Broadcast adaptation of the Landmark (ALT) method (§3.2): the cycle
/// carries the network data plus every node's distance vector (to/from each
/// landmark). The client has to listen to the whole cycle and then runs A*
/// guided by the ALT bounds.
///
/// Packet-loss fallback (§6.2): adjacency data is repaired on later cycles,
/// but lost distance-vector packets are *not* — the affected nodes simply
/// contribute a zero lower bound, degrading A* toward Dijkstra while
/// remaining correct.
class LandmarkOnAir : public AirSystem {
 public:
  static Result<std::unique_ptr<LandmarkOnAir>> Build(
      const graph::Graph& g, uint32_t num_landmarks, uint64_t seed = 17,
      const BuildConfig& config = {});

  std::string_view name() const override { return "LD"; }
  const broadcast::BroadcastCycle& cycle() const override { return cycle_; }
  device::QueryMetrics RunQuery(const broadcast::BroadcastChannel& channel,
                                const AirQuery& query,
                                const ClientOptions& options,
                                QueryScratch* scratch) const override;
  double precompute_seconds() const override { return precompute_seconds_; }

  const algo::LandmarkIndex& index() const { return index_; }

 private:
  LandmarkOnAir() : index_(algo::LandmarkIndex::FromVectors({}, {}, {})) {}

  broadcast::BroadcastCycle cycle_;
  algo::LandmarkIndex index_;
  uint32_t num_nodes_ = 0;
  double precompute_seconds_ = 0.0;
};

}  // namespace airindex::core

#endif  // AIRINDEX_CORE_LANDMARK_ON_AIR_H_
