#ifndef AIRINDEX_CORE_SYSTEMS_H_
#define AIRINDEX_CORE_SYSTEMS_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/air_system.h"
#include "core/cycle_common.h"
#include "graph/graph.h"

namespace airindex::core {

/// Tuning knobs of the evaluated methods (paper §7 defaults for the Germany
/// network: ArcFlag 16 regions, EB 32, NR 32, Landmark 4 anchors).
struct SystemParams {
  uint32_t arcflag_regions = 16;
  uint32_t eb_regions = 32;
  uint32_t nr_regions = 32;
  uint32_t landmarks = 4;
  uint32_t hiti_regions = 32;
  /// SPQ/HiTi pre-computation is all-pairs-ish; skip them for large inputs
  /// unless the experiment needs their cycle sizes (Table 1).
  bool include_spq = false;
  bool include_hiti = false;

  /// Cycle encoding and build-time parallelism knobs shared by every
  /// method (see BuildConfig).
  BuildConfig build;

  bool operator==(const SystemParams&) const = default;
};

/// Method names in the paper's Table 1 order, honouring the params'
/// include_spq/include_hiti flags: DJ, NR, EB, LD, AF (, SPQ, HiTi).
std::vector<std::string_view> SystemNames(const SystemParams& params);

/// Builds one method by its paper name ("DJ", "NR", "EB", "LD", "AF",
/// "SPQ", "HiTi"), taking its knob from `params`.
Result<std::unique_ptr<AirSystem>> BuildSystem(const graph::Graph& g,
                                               std::string_view method,
                                               const SystemParams& params);

/// Builds the evaluated systems in the paper's Table 1 order
/// (DJ, NR, EB, LD, AF, then optionally SPQ and HiTi). NR is alive while
/// EB builds, so the two share one border pre-computation
/// (core::SharedBorderPrecompute).
Result<std::vector<std::unique_ptr<AirSystem>>> BuildSystems(
    const graph::Graph& g, const SystemParams& params);

}  // namespace airindex::core

#endif  // AIRINDEX_CORE_SYSTEMS_H_
