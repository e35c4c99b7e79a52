#ifndef AIRINDEX_CORE_HITI_ON_AIR_H_
#define AIRINDEX_CORE_HITI_ON_AIR_H_

#include <memory>

#include "algo/hiti.h"
#include "common/result.h"
#include "core/air_system.h"
#include "core/cycle_common.h"
#include "graph/graph.h"

namespace airindex::core {

/// Broadcast adaptation of HiTi (§3.2): the cycle carries the network data
/// plus every hierarchy level's border super-edge tables. HiTi is the one
/// classic index that could tune selectively, but the client must receive
/// the *entire* index first — and the tables are several times larger than
/// the network (Table 1), which is what disqualifies it on real devices
/// (its working set exceeds the 8 MB heap even on the smallest evaluation
/// network, so the paper only reports its cycle length).
class HiTiOnAir : public AirSystem {
 public:
  static Result<std::unique_ptr<HiTiOnAir>> Build(
      const graph::Graph& g, uint32_t num_regions,
      const BuildConfig& config = {});

  std::string_view name() const override { return "HiTi"; }
  const broadcast::BroadcastCycle& cycle() const override { return cycle_; }
  device::QueryMetrics RunQuery(const broadcast::BroadcastChannel& channel,
                                const AirQuery& query,
                                const ClientOptions& options,
                                QueryScratch* scratch) const override;
  double precompute_seconds() const override { return precompute_seconds_; }

  const algo::HiTiIndex& index() const { return index_; }

 private:
  HiTiOnAir() = default;

  broadcast::BroadcastCycle cycle_;
  algo::HiTiIndex index_;
  std::vector<double> splits_;
  uint32_t num_regions_ = 0;
  uint32_t num_nodes_ = 0;
  double precompute_seconds_ = 0.0;
};

}  // namespace airindex::core

#endif  // AIRINDEX_CORE_HITI_ON_AIR_H_
