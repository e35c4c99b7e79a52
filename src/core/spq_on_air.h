#ifndef AIRINDEX_CORE_SPQ_ON_AIR_H_
#define AIRINDEX_CORE_SPQ_ON_AIR_H_

#include <memory>

#include "algo/spq.h"
#include "common/result.h"
#include "core/air_system.h"
#include "core/cycle_common.h"
#include "graph/graph.h"

namespace airindex::core {

/// Broadcast adaptation of the shortest-path quadtree (§3.2): the cycle
/// carries the network data plus every node's coloured quadtree, serialized
/// pre-order. Like HiTi, SPQ's extra information dwarfs the network itself
/// (Table 1), ruling it out on memory-limited devices; the paper reports
/// only its cycle length. The client here is a faithful full-cycle
/// implementation used at test scales.
class SpqOnAir : public AirSystem {
 public:
  static Result<std::unique_ptr<SpqOnAir>> Build(
      const graph::Graph& g, const BuildConfig& config = {});

  std::string_view name() const override { return "SPQ"; }
  const broadcast::BroadcastCycle& cycle() const override { return cycle_; }
  device::QueryMetrics RunQuery(const broadcast::BroadcastChannel& channel,
                                const AirQuery& query,
                                const ClientOptions& options,
                                QueryScratch* scratch) const override;
  double precompute_seconds() const override { return precompute_seconds_; }

  const algo::SpqIndex& index() const { return *index_; }

 private:
  SpqOnAir() = default;

  broadcast::BroadcastCycle cycle_;
  std::unique_ptr<algo::SpqIndex> index_;
  uint32_t num_nodes_ = 0;
  double precompute_seconds_ = 0.0;
};

}  // namespace airindex::core

#endif  // AIRINDEX_CORE_SPQ_ON_AIR_H_
