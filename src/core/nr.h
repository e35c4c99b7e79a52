#ifndef AIRINDEX_CORE_NR_H_
#define AIRINDEX_CORE_NR_H_

#include <memory>

#include "common/result.h"
#include "core/air_system.h"
#include "core/border_precompute.h"
#include "core/cycle_common.h"
#include "graph/graph.h"

namespace airindex::core {

/// The Next Region method (§5), the paper's second contribution.
///
/// Server: the same border-pair pre-computation as EB, but instead of a
/// global min/max matrix it derives, per ordered region pair, the set of
/// regions any recorded border-pair shortest path traverses. That set is
/// never shipped whole: each region R_m is preceded by a small local index
/// A^m whose cell [rs][rt] names only the *next* needed region at or after
/// R_m in the cycle. No (1,m) replication is needed — the local indexes are
/// the paper's "fundamentally different" alternative to a replicated global
/// index.
///
/// Client (§5.2, Algorithm 2): reads the next local index, hops from needed
/// region to needed region (receiving each region's data plus the adjacent
/// next index), and stops when an index points at a region it already has.
/// Lost region packets are repaired next cycle; a lost index cell means the
/// adjacent region is received anyway (§6.2).
class NrSystem : public AirSystem {
 public:
  /// `num_regions`: power of two, at most 256 (paper default 32). The
  /// pre-computation comes from SharedBorderPrecompute, shared with an EB
  /// system alive on an equal graph and region count.
  static Result<std::unique_ptr<NrSystem>> Build(const graph::Graph& g,
                                                 uint32_t num_regions,
                                                 const BuildConfig& config = {});

  static Result<std::unique_ptr<NrSystem>> BuildFromPrecompute(
      const graph::Graph& g, const BorderPrecompute& pre,
      const BuildConfig& config = {});

  std::string_view name() const override { return "NR"; }
  const broadcast::BroadcastCycle& cycle() const override { return cycle_; }
  device::QueryMetrics RunQuery(const broadcast::BroadcastChannel& channel,
                                const AirQuery& query,
                                const ClientOptions& options,
                                QueryScratch* scratch) const override;
  double precompute_seconds() const override { return precompute_seconds_; }

  /// The shared pre-computation Build() took from SharedBorderPrecompute
  /// (null when built by BuildFromPrecompute).
  const std::shared_ptr<const BorderPrecompute>& precompute() const {
    return precompute_;
  }

 private:
  NrSystem() = default;

  broadcast::BroadcastCycle cycle_;
  double precompute_seconds_ = 0.0;
  /// Holding the shared pre-computation keeps it available to the other
  /// method's Build() on an equal graph for as long as this system lives.
  std::shared_ptr<const BorderPrecompute> precompute_;
};

}  // namespace airindex::core

#endif  // AIRINDEX_CORE_NR_H_
