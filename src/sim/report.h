#ifndef AIRINDEX_SIM_REPORT_H_
#define AIRINDEX_SIM_REPORT_H_

#include <span>
#include <string>
#include <string_view>

#include "sim/json.h"
#include "sim/simulator.h"

namespace airindex::sim {

/// Identifier stamped into every batch JSON report.
inline constexpr std::string_view kReportSchema = "airindex.sim.batch/v1";

/// Human-readable table of a batch (one row per system: mean/p50/p95 of
/// each cost factor, failure counts, throughput).
std::string ToText(const BatchResult& batch);

/// Serializes the batch aggregates as JSON (stable key order; doubles
/// printed shortest-round-trip, so a parser reads back the exact bits;
/// non-finite values are written as null).
/// Per-query metric vectors are deliberately not serialized — reports
/// carry the distribution summaries, not megabytes of raw samples.
std::string ToJson(const BatchResult& batch);

namespace detail {

/// Appends the per-system text table (header row + one row per system) to
/// `out`. The one formatter behind both the batch report and the scenario
/// report's group/fleet tables, so their columns cannot desynchronize.
void AppendSystemTable(std::string& out,
                       std::span<const SystemResult> systems);

/// Writes one system's aggregate as a JSON object (the element shape of the
/// batch report's "systems" array). Shared with the scenario report writer
/// so group and fleet entries stay field-compatible with batch entries.
void WriteSystemEntry(jsonutil::JsonWriter& w, const SystemResult& r);

}  // namespace detail

}  // namespace airindex::sim

#endif  // AIRINDEX_SIM_REPORT_H_
