#ifndef AIRINDEX_CORE_EB_H_
#define AIRINDEX_CORE_EB_H_

#include <memory>

#include "common/result.h"
#include "core/air_system.h"
#include "core/border_precompute.h"
#include "core/cycle_common.h"
#include "core/eb_index.h"
#include "graph/graph.h"

namespace airindex::core {

/// The Elliptic Boundary method (§4), the paper's first contribution.
///
/// Server: kd-tree partitioning, border-pair pre-computation, a concise
/// global index (kd splits + per-region-pair min/max border distances +
/// region data offsets) replicated m times per the (1,m) scheme with copies
/// forced onto region boundaries, and per-region data split into a
/// cross-border and a local segment (§4.1).
///
/// Client (§4.2, Algorithm 1): reads the next index copy, derives the upper
/// bound UB = A[Rs][Rt].max, receives exactly the regions R with
/// mindist(Rs,R) + mindist(R,Rt) <= UB (cross-border segments only, except
/// for Rs and Rt), and runs Dijkstra on their union. Optionally collapses
/// regions into super-edges as they arrive (§6.1, ClientOptions::
/// memory_bound). Lost index packets are re-fetched from the next copy,
/// lost region packets from the next cycle (§6.2).
class EbSystem : public AirSystem {
 public:
  /// `num_regions` must be a power of two (paper default for Germany: 32).
  /// The pre-computation comes from SharedBorderPrecompute, so an NR
  /// system alive on an equal graph and region count lends EB its own.
  static Result<std::unique_ptr<EbSystem>> Build(const graph::Graph& g,
                                                 uint32_t num_regions,
                                                 const BuildConfig& config = {});

  /// Builds from a caller-held pre-computation, bypassing the shared memo
  /// (the paper notes EB's and NR's pre-computations are identical; Build()
  /// already shares one between them). precompute_seconds() reports
  /// `pre.seconds`, the computation's own wall time.
  static Result<std::unique_ptr<EbSystem>> BuildFromPrecompute(
      const graph::Graph& g, const BorderPrecompute& pre,
      const BuildConfig& config = {});

  std::string_view name() const override { return "EB"; }
  const broadcast::BroadcastCycle& cycle() const override { return cycle_; }
  device::QueryMetrics RunQuery(const broadcast::BroadcastChannel& channel,
                                const AirQuery& query,
                                const ClientOptions& options,
                                QueryScratch* scratch) const override;
  double precompute_seconds() const override { return precompute_seconds_; }

  /// The replication factor chosen by the (1,m) analysis.
  uint32_t interleaving_m() const { return interleaving_m_; }
  const EbIndex& index() const { return index_; }

  /// The shared pre-computation Build() took from SharedBorderPrecompute
  /// (null when built by BuildFromPrecompute).
  const std::shared_ptr<const BorderPrecompute>& precompute() const {
    return precompute_;
  }

 private:
  EbSystem() = default;

  broadcast::BroadcastCycle cycle_;
  EbIndex index_;
  uint32_t interleaving_m_ = 1;
  double precompute_seconds_ = 0.0;
  /// Holding the shared pre-computation keeps it available to the other
  /// method's Build() on an equal graph for as long as this system lives.
  std::shared_ptr<const BorderPrecompute> precompute_;
};

}  // namespace airindex::core

#endif  // AIRINDEX_CORE_EB_H_
