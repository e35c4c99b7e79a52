#ifndef AIRINDEX_TESTS_TESTING_AIR_SYSTEMS_H_
#define AIRINDEX_TESTS_TESTING_AIR_SYSTEMS_H_

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "broadcast/channel.h"
#include "broadcast/cycle.h"
#include "core/air_system.h"
#include "core/query_scratch.h"
#include "graph/graph.h"
#include "workload/workload.h"

// Helpers for tests that run built air systems: over rewritten cycles,
// against Dijkstra's distances, or picked by name out of a fleet.

namespace airindex::testing_support {

/// The cycle CycleBuilder lays out from `segments`, in order, whether or
/// not one is an index, in the data format of `source` (the cycle the
/// segments came from): a rewritten region cycle stays one.
inline broadcast::BroadcastCycle Rebuilt(
    const broadcast::BroadcastCycle& source,
    std::vector<broadcast::Segment> segments) {
  broadcast::CycleBuilder builder(source.encoding(), source.data_layout());
  for (broadcast::Segment& seg : segments) builder.Add(std::move(seg));
  return std::move(builder).Finalize(/*require_index=*/false).value();
}

/// `cycle` with every segment passed through `rewrite`, which edits the
/// segment in place and returns false to drop it.
template <typename Rewrite>
broadcast::BroadcastCycle Rewritten(const broadcast::BroadcastCycle& cycle,
                                    Rewrite rewrite) {
  std::vector<broadcast::Segment> segments;
  for (size_t i = 0; i < cycle.num_segments(); ++i) {
    broadcast::Segment seg = cycle.segment(i);
    if (rewrite(seg)) segments.push_back(std::move(seg));
  }
  return Rebuilt(cycle, std::move(segments));
}

/// Runs `w` over a lossless channel of `cycle` and returns how many queries
/// answered ok; each ok answer must equal Dijkstra's distance.
inline size_t OkAnswers(const core::AirSystem& sys, const graph::Graph& g,
                        const workload::Workload& w,
                        const broadcast::BroadcastCycle& cycle,
                        const std::string& label) {
  broadcast::BroadcastChannel channel(&cycle, 0.0);
  core::QueryScratch scratch;
  size_t ok = 0;
  for (const workload::Query& q : w.queries) {
    const device::QueryMetrics m =
        sys.RunQuery(channel, core::MakeAirQuery(g, q), {}, &scratch);
    if (!m.ok) continue;
    ++ok;
    EXPECT_EQ(m.distance, q.true_dist)
        << label << " " << q.source << "->" << q.target;
  }
  return ok;
}

/// The system named `method` among `systems`, or nullptr.
inline const core::AirSystem* FindSystem(
    const std::vector<std::unique_ptr<core::AirSystem>>& systems,
    std::string_view method) {
  for (const auto& sys : systems) {
    if (sys->name() == method) return sys.get();
  }
  return nullptr;
}

}  // namespace airindex::testing_support

#endif  // AIRINDEX_TESTS_TESTING_AIR_SYSTEMS_H_
