#include "core/dijkstra_on_air.h"

#include "algo/dijkstra.h"
#include "core/client_run.h"
#include "core/cycle_common.h"
#include "core/full_cycle.h"
#include "core/partial_graph.h"

namespace airindex::core {

Result<std::unique_ptr<DijkstraOnAir>> DijkstraOnAir::Build(
    const graph::Graph& g, const BuildConfig& config) {
  auto sys = std::unique_ptr<DijkstraOnAir>(new DijkstraOnAir());
  sys->num_nodes_ = static_cast<uint32_t>(g.num_nodes());
  broadcast::CycleBuilder builder(config.encoding);
  AppendNetworkSegments(g, &builder);
  AIRINDEX_ASSIGN_OR_RETURN(sys->cycle_, std::move(builder).Finalize(
                                             /*require_index=*/false));
  return sys;
}

device::QueryMetrics DijkstraOnAir::RunQuery(
    const broadcast::BroadcastChannel& channel, const AirQuery& query,
    const ClientOptions& options, QueryScratch* scratch) const {
  ClientRun run(channel, StartPosition(channel, query), options, *scratch);
  QueryScratch& s = run.scratch();
  device::MemoryTracker& memory = run.memory;
  PartialGraph& pg = s.partial_graph;

  Status receive_status = ReceiveFullCycleCached(
      run.session, memory, &s.session,
      [](const broadcast::ReceivedSegment&) {
        return true;  // all data is adjacency
      },
      [&](const broadcast::ReceivedSegment& seg) {
        device::Stopwatch sw;
        const size_t before = pg.MemoryBytes();
        run.DecodeIntoPartialGraph(seg);
        memory.Charge(pg.MemoryBytes() - before);
        memory.Release(seg.payload.size());
        run.cpu_ms += sw.ElapsedMs();
      },
      options.max_repair_cycles, s.full_cycle);

  device::Stopwatch sw;
  algo::DijkstraSearch(pg, query.source, query.target, KnownEdgeFilter{&pg},
                       s.search);
  const graph::Dist dist = s.search.DistTo(query.target);
  run.cpu_ms += sw.ElapsedMs();
  return run.FinishFullCycle(dist, receive_status, num_nodes_);
}

}  // namespace airindex::core
