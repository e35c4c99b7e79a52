#ifndef AIRINDEX_SIM_SCENARIO_CATALOG_H_
#define AIRINDEX_SIM_SCENARIO_CATALOG_H_

#include <span>
#include <string_view>

#include "common/result.h"
#include "sim/scenario.h"

namespace airindex::sim {

/// The built-in scenario tour (`airindex_cli scenario --list`):
///   paper-baseline      — the paper's §7 population: one uniform J2ME group
///   commuter-rush       — moving-3G commuters (clustered sources, rush-hour
///                         tune-ins) alongside static pedestrians
///   hotspot-city        — Zipf-skewed destinations on Milan (downtown pull)
///   iot-fleet           — memory-bound sensor nodes on a bursty channel
///   lossy-tunnel        — twin groups differing only in loss model
///                         (independent vs bursty at the same rate)
///   mixed-fleet         — smartphones, sensors, and feature phones at once
/// Every entry runs all seven systems at smoke-test scale; the CLI's
/// `scenario` and `paper` commands override scale/queries for bigger runs.
std::span<const Scenario> ScenarioCatalog();

/// Looks a built-in scenario up by name; InvalidArgument lists the known
/// names on miss.
Result<Scenario> FindScenario(std::string_view name);

}  // namespace airindex::sim

#endif  // AIRINDEX_SIM_SCENARIO_CATALOG_H_
