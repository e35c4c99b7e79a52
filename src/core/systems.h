#ifndef AIRINDEX_CORE_SYSTEMS_H_
#define AIRINDEX_CORE_SYSTEMS_H_

#include <array>
#include <memory>
#include <span>
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

  /// Cycle encoding and build-time parallelism knobs shared by every
  /// method (see BuildConfig).
  BuildConfig build;

  bool operator==(const SystemParams&) const = default;
};

/// Every method's paper name, in Table 1 order.
inline constexpr std::array<std::string_view, 7> kAllSystems = {
    "DJ", "NR", "EB", "LD", "AF", "SPQ", "HiTi"};

/// The first five of kAllSystems: the paper's main comparison, without
/// SPQ and HiTi, whose pre-computation is all-pairs-flavoured.
inline constexpr std::span<const std::string_view> kMainSystems =
    std::span(kAllSystems).first(5);

/// Builds one method by its paper name ("DJ", "NR", "EB", "LD", "AF",
/// "SPQ", "HiTi"), taking its knob from `params`.
Result<std::unique_ptr<AirSystem>> BuildSystem(const graph::Graph& g,
                                               std::string_view method,
                                               const SystemParams& params);

/// Builds the named methods in the given order. Every system stays alive
/// until all are built, so EB reuses NR's border pre-computation
/// (core::SharedBorderPrecompute) when NR comes first.
Result<std::vector<std::unique_ptr<AirSystem>>> BuildSystems(
    const graph::Graph& g, std::span<const std::string_view> names,
    const SystemParams& params);

}  // namespace airindex::core

#endif  // AIRINDEX_CORE_SYSTEMS_H_
