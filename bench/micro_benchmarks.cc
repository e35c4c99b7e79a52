// Micro benchmarks (google-benchmark) for the hot substrate operations:
// Dijkstra throughput, kd-tree construction, border-pair and ArcFlag
// pre-computation, network generation, broadcast-cycle assembly, and the
// parallel simulation engine's end-to-end client throughput.

#include <benchmark/benchmark.h>

#include <set>
#include <string_view>

#include "algo/arc_flags.h"
#include "algo/dijkstra.h"
#include "algo/search_workspace.h"
#include "core/arcflag_on_air.h"
#include "core/border_precompute.h"
#include "core/dijkstra_on_air.h"
#include "core/full_cycle.h"
#include "core/query_scratch.h"
#include "core/systems.h"
#include "graph/catalog.h"
#include "graph/generator.h"
#include "graph/pendant_forest.h"
#include "partition/kd_tree.h"
#include "partition/partitioning.h"
#include "sim/event_engine.h"
#include "sim/simulator.h"
#include "workload/workload.h"

namespace {

using namespace airindex;  // NOLINT: benchmark binary

const graph::Graph& BenchGraph() {
  static const graph::Graph& g =
      *new graph::Graph(graph::MakeNetwork(graph::DefaultNetwork(), 0.1)
                            .value());
  return g;
}

// The fixture system of `method` (DJ, NR, EB or AF) on BenchGraph() with
// default parameters, built on first use and kept for the process lifetime
// like the graph. The NR system outlives every later EB build, which so
// reuses its border pre-computation.
const core::AirSystem& BenchSystem(std::string_view method) {
  auto build = [](std::string_view name) {
    return core::BuildSystem(BenchGraph(), name, {}).value().release();
  };
  if (method == "DJ") {
    static const core::AirSystem* dj = build("DJ");
    return *dj;
  }
  if (method == "NR") {
    static const core::AirSystem* nr = build("NR");
    return *nr;
  }
  if (method == "EB") {
    static const core::AirSystem* eb = build("EB");
    return *eb;
  }
  static const core::AirSystem* af = build("AF");
  return *af;
}

void BM_DijkstraFull(benchmark::State& state) {
  const graph::Graph& g = BenchGraph();
  graph::NodeId source = 0;
  for (auto _ : state) {
    algo::SearchWorkspace fresh;  // allocated and zero-filled per call
    algo::DijkstraAll(g, source, fresh);
    benchmark::DoNotOptimize(fresh.settled());
    source = (source + 97) % g.num_nodes();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.num_nodes()));
}
BENCHMARK(BM_DijkstraFull);

void BM_DijkstraPointToPoint(benchmark::State& state) {
  const graph::Graph& g = BenchGraph();
  graph::NodeId s = 1, t = static_cast<graph::NodeId>(g.num_nodes() - 1);
  for (auto _ : state) {
    auto p = algo::DijkstraPath(g, s, t);
    benchmark::DoNotOptimize(p.dist);
    s = (s + 131) % g.num_nodes();
    t = (t + 173) % g.num_nodes();
    if (s == t) t = (t + 1) % g.num_nodes();
  }
}
BENCHMARK(BM_DijkstraPointToPoint);

// The allocation-free kernel: same searches as BM_DijkstraFull /
// BM_DijkstraPointToPoint, but run inside one reused SearchWorkspace
// (generation-stamped O(1) reset + 4-ary heap) instead of a fresh one that
// allocates and zero-fills its arrays per call. The pairwise delta is what
// reuse saves; results are bit-identical (see
// tests/algo/search_workspace_test.cc).
void BM_DijkstraWorkspaceFull(benchmark::State& state) {
  const graph::Graph& g = BenchGraph();
  algo::SearchWorkspace ws;
  graph::NodeId source = 0;
  for (auto _ : state) {
    algo::DijkstraAll(g, source, ws);
    benchmark::DoNotOptimize(ws.settled());
    source = (source + 97) % g.num_nodes();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.num_nodes()));
}
BENCHMARK(BM_DijkstraWorkspaceFull);

void BM_DijkstraWorkspacePointToPoint(benchmark::State& state) {
  const graph::Graph& g = BenchGraph();
  algo::SearchWorkspace ws;
  graph::NodeId s = 1, t = static_cast<graph::NodeId>(g.num_nodes() - 1);
  for (auto _ : state) {
    algo::DijkstraSearch(g, s, t, algo::AllEdges{}, ws);
    benchmark::DoNotOptimize(ws.DistTo(t));
    s = (s + 131) % g.num_nodes();
    t = (t + 173) % g.num_nodes();
    if (s == t) t = (t + 1) % g.num_nodes();
  }
}
BENCHMARK(BM_DijkstraWorkspacePointToPoint);

void BM_KdTreeBuild(benchmark::State& state) {
  const graph::Graph& g = BenchGraph();
  const auto regions = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    auto kd = partition::KdTreePartitioner::Build(g, regions).value();
    benchmark::DoNotOptimize(kd.splits_bfs().data());
  }
}
BENCHMARK(BM_KdTreeBuild)->Arg(16)->Arg(32)->Arg(64);

// The work the pendant-forest decomposition leaves the border and ArcFlag
// pre-computations: the core's size, the border nodes served by tree
// paths, and one core search per distinct root of a border node (every
// border node reaches its root here: the catalog networks are strongly
// connected).
void SetForestCounters(benchmark::State& state, const graph::Graph& g,
                       const partition::Partitioning& part) {
  const graph::PendantForest forest = graph::DecomposePendantForest(g);
  const partition::BorderInfo borders = partition::ComputeBorders(g, part);
  std::set<graph::NodeId> roots;
  size_t pendant_borders = 0;
  for (graph::NodeId b : borders.border_nodes) {
    pendant_borders += !forest.IsCore(b);
    roots.insert(forest.root[b]);
  }
  state.counters["core_nodes"] =
      static_cast<double>(forest.core_nodes.size());
  state.counters["pendant_border_nodes"] =
      static_cast<double>(pendant_borders);
  state.counters["core_searches"] = static_cast<double>(roots.size());
}

void BM_BorderPrecompute(benchmark::State& state) {
  const graph::Graph& g = BenchGraph();
  auto kd = partition::KdTreePartitioner::Build(
                g, static_cast<uint32_t>(state.range(0)))
                .value();
  for (auto _ : state) {
    // One thread, so this times the per-source kernel and not the pool.
    auto pre = core::ComputeBorderPrecompute(g, kd.Partition(g),
                                             /*num_threads=*/1)
                   .value();
    benchmark::DoNotOptimize(pre.min_rr.data());
  }
  SetForestCounters(state, g, kd.Partition(g));
  // The chain-contracted core the per-root searches run over.
  const graph::ChainKernel kernel =
      graph::ContractChains(graph::DecomposePendantForest(g).core);
  state.counters["kernel_nodes"] = static_cast<double>(kernel.num_nodes());
  state.counters["kernel_arcs"] = static_cast<double>(kernel.num_arcs());
  state.counters["chains"] = static_cast<double>(kernel.chains.size());
}
// 128 regions need two mask words per region pair.
BENCHMARK(BM_BorderPrecompute)->Arg(16)->Arg(32)->Arg(128)->Unit(
    benchmark::kMillisecond);

void BM_ArcFlagBuild(benchmark::State& state) {
  const graph::Graph& g = BenchGraph();
  const auto regions = static_cast<uint32_t>(state.range(0));
  auto kd = partition::KdTreePartitioner::Build(g, regions).value();
  const partition::Partitioning part = kd.Partition(g);
  for (auto _ : state) {
    // One thread, so this times the kernel and not the pool.
    auto idx = algo::ArcFlagIndex::Build(g, part.node_region, regions,
                                         /*num_threads=*/1)
                   .value();
    benchmark::DoNotOptimize(idx.ArcWords(0));
  }
  SetForestCounters(state, g, part);
  // The reversed core with its chains contracted, which the per-root
  // searches run over, and the roots inside a chain, which walk it out to
  // both ends.
  const graph::PendantForest forest = graph::DecomposePendantForest(g);
  const graph::ChainKernel kernel =
      graph::ContractChains(forest.core.Reversed());
  std::set<graph::NodeId> interior_roots;
  for (graph::NodeId b : partition::ComputeBorders(g, part).border_nodes) {
    const graph::NodeId root = forest.core_id[forest.root[b]];
    if (kernel.kernel_id[root] == graph::kInvalidNode) {
      interior_roots.insert(root);
    }
  }
  state.counters["kernel_nodes"] = static_cast<double>(kernel.num_nodes());
  state.counters["chains"] = static_cast<double>(kernel.chains.size());
  state.counters["interior_roots"] =
      static_cast<double>(interior_roots.size());
}
BENCHMARK(BM_ArcFlagBuild)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

// NR then EB through BuildSystem on one thread, both systems dropped each
// iteration: the pair shares one border pre-computation, and dropping them
// expires it, so every iteration computes it exactly once. Registered ahead
// of the benches whose BenchSystem("NR") fixture would keep a computation
// on this graph alive.
void BM_BuildNrEb(benchmark::State& state) {
  const graph::Graph& g = BenchGraph();
  core::SystemParams params;
  params.build.precompute_threads = 1;
  for (auto _ : state) {
    auto nr = core::BuildSystem(g, "NR", params).value();
    auto eb = core::BuildSystem(g, "EB", params).value();
    benchmark::DoNotOptimize(nr->cycle().total_packets());
    benchmark::DoNotOptimize(eb->cycle().total_packets());
  }
}
BENCHMARK(BM_BuildNrEb)->Unit(benchmark::kMillisecond);

void BM_NetworkGeneration(benchmark::State& state) {
  graph::GeneratorOptions opts;
  opts.num_nodes = static_cast<uint32_t>(state.range(0));
  opts.num_edges = opts.num_nodes + opts.num_nodes / 10;
  opts.seed = 5;
  for (auto _ : state) {
    auto g = graph::GenerateRoadNetwork(opts).value();
    benchmark::DoNotOptimize(g.num_arcs());
  }
}
BENCHMARK(BM_NetworkGeneration)->Arg(1000)->Arg(10000)->Unit(
    benchmark::kMillisecond);

// The full Germany replica, built through graph::MakeNetwork as every
// set-up builds its network.
void BM_NetworkGenerationGermany(benchmark::State& state) {
  for (auto _ : state) {
    auto g = graph::MakeNetwork(graph::DefaultNetwork()).value();
    benchmark::DoNotOptimize(g.num_arcs());
  }
}
BENCHMARK(BM_NetworkGenerationGermany)->Unit(benchmark::kMillisecond);

void BM_CycleBuildDj(benchmark::State& state) {
  const graph::Graph& g = BenchGraph();
  for (auto _ : state) {
    auto sys = core::DijkstraOnAir::Build(g).value();
    benchmark::DoNotOptimize(sys->cycle().total_packets());
  }
}
BENCHMARK(BM_CycleBuildDj)->Unit(benchmark::kMillisecond);

void BM_NrClientQuery(benchmark::State& state) {
  const graph::Graph& g = BenchGraph();
  const core::AirSystem& nr = BenchSystem("NR");
  static const auto& w =
      *new workload::Workload(workload::GenerateWorkload(g, 64, 9).value());
  broadcast::BroadcastChannel channel(&nr.cycle(), 0.0);
  core::QueryScratch scratch;
  size_t qi = 0;
  for (auto _ : state) {
    auto m = nr.RunQuery(channel, core::MakeAirQuery(g, w.queries[qi]), {},
                          &scratch);
    benchmark::DoNotOptimize(m.distance);
    qi = (qi + 1) % w.queries.size();
  }
}
BENCHMARK(BM_NrClientQuery)->Unit(benchmark::kMillisecond);

// End-to-end RunQuery on a fresh QueryScratch per query and on one reused
// scratch, per method. The fresh/scratch pairs isolate the whole-client
// half of the win (pooled PartialGraph, reused segment/decode buffers,
// workspace search); metrics are byte-identical either way (tests/sim
// golden test).
void RunQueryBench(benchmark::State& state, const char* method,
                   bool use_scratch) {
  const graph::Graph& g = BenchGraph();
  const core::AirSystem& sys = BenchSystem(method);
  static const auto& w =
      *new workload::Workload(workload::GenerateWorkload(g, 64, 9).value());
  broadcast::BroadcastChannel channel(&sys.cycle(), 0.0);
  core::QueryScratch reused;
  size_t qi = 0;
  for (auto _ : state) {
    core::QueryScratch fresh;
    auto m = sys.RunQuery(channel, core::MakeAirQuery(g, w.queries[qi]), {},
                          use_scratch ? &reused : &fresh);
    benchmark::DoNotOptimize(m.distance);
    qi = (qi + 1) % w.queries.size();
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_RunQueryDjFresh(benchmark::State& state) {
  RunQueryBench(state, "DJ", false);
}
void BM_RunQueryDjScratch(benchmark::State& state) {
  RunQueryBench(state, "DJ", true);
}
void BM_RunQueryNrFresh(benchmark::State& state) {
  RunQueryBench(state, "NR", false);
}
void BM_RunQueryNrScratch(benchmark::State& state) {
  RunQueryBench(state, "NR", true);
}
void BM_RunQueryEbFresh(benchmark::State& state) {
  RunQueryBench(state, "EB", false);
}
void BM_RunQueryEbScratch(benchmark::State& state) {
  RunQueryBench(state, "EB", true);
}
BENCHMARK(BM_RunQueryDjFresh)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RunQueryDjScratch)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RunQueryNrFresh)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RunQueryNrScratch)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RunQueryEbFresh)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RunQueryEbScratch)->Unit(benchmark::kMillisecond);

// The full-cycle receive kernel (§3.2): one ReceiveFullCycle over a whole
// cycle per iteration on a reused FullCycleScratch, no repair passes, the
// callback only releasing what it is handed. Arg 0 picks the cycle (0 = DJ,
// 1 = AF), arg 1 the independent loss rate in per mille. items/s is
// packets heard per second, so 1e9 / items_per_second is ns per packet.
void BM_ReceiveFullCycle(benchmark::State& state) {
  const char* method = state.range(0) == 0 ? "DJ" : "AF";
  const core::AirSystem& sys = BenchSystem(method);
  const broadcast::BroadcastCycle& cycle = sys.cycle();
  broadcast::BroadcastChannel channel(
      &cycle, static_cast<double>(state.range(1)) / 1000.0, 7);
  core::FullCycleScratch scratch;
  uint64_t start = 0;
  for (auto _ : state) {
    broadcast::ClientSession session(&channel, start);
    device::MemoryTracker memory;
    Status status = core::ReceiveFullCycle(
        session, memory,
        [](const broadcast::ReceivedSegment&) { return false; },
        [&memory](const broadcast::ReceivedSegment& seg) {
          memory.Release(seg.payload.size());
        },
        /*max_repair_cycles=*/0, scratch);
    benchmark::DoNotOptimize(status.ok());
    start += 7919;  // a different tune-in slot (and loss draw) each pass
  }
  state.SetLabel(method);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(cycle.total_packets()));
}
BENCHMARK(BM_ReceiveFullCycle)
    ->Args({0, 0})
    ->Args({0, 20})
    ->Args({1, 0})
    ->Args({1, 20})
    ->Unit(benchmark::kMicrosecond);

// The ArcFlag client's flag decode: every flag segment of the Germany 0.1
// AF cycle per iteration, received whole, through DecodeArcFlagSegment (the
// packed four-lanes-per-word path). items/s is arcs decoded per second, so
// 1e9 / items_per_second is ns per arc.
void BM_DecodeArcFlags(benchmark::State& state) {
  const graph::Graph& g = BenchGraph();
  const auto& af =
      static_cast<const core::ArcFlagOnAir&>(BenchSystem("AF"));
  const uint32_t regions = af.index().num_regions();
  const broadcast::BroadcastCycle& cycle = af.cycle();
  std::vector<broadcast::ReceivedSegment> flag_segments;
  for (size_t si = 0; si < cycle.num_segments(); ++si) {
    const broadcast::Segment& src = cycle.segment(si);
    if (src.type != broadcast::SegmentType::kAuxData || src.id == 0) continue;
    broadcast::ReceivedSegment seg;
    seg.type = src.type;
    seg.segment_id = src.id;
    seg.payload = src.payload;
    seg.packet_ok.assign(src.PacketCount(), true);
    seg.complete = true;
    flag_segments.push_back(std::move(seg));
  }
  std::vector<uint64_t> flags(g.num_arcs() * algo::ArcFlagWords(regions));
  for (auto _ : state) {
    for (const auto& seg : flag_segments) {
      core::DecodeArcFlagSegment(seg, regions, flags);
    }
    benchmark::DoNotOptimize(flags.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.num_arcs()));
}
BENCHMARK(BM_DecodeArcFlags)->Unit(benchmark::kMicrosecond);

const workload::Workload& SimBenchWorkload() {
  static const auto& w = *new workload::Workload(
      workload::GenerateWorkload(BenchGraph(), 128, 9).value());
  return w;
}

// End-to-end engine throughput: a whole workload of NR clients fanned
// across N worker threads. items/s is simulated queries per second; the
// Arg sweep exposes the engine's thread scaling in the CI perf job's log.
// The lossy variant adds 1% packet loss: repair traffic lengthens each
// client's session, which is the heavy-traffic case the engine exists
// for.
void SimulatorThroughput(benchmark::State& state, double loss_rate) {
  const workload::Workload& w = SimBenchWorkload();
  sim::SimOptions so;
  so.threads = static_cast<unsigned>(state.range(0));
  so.loss = broadcast::LossModel::Independent(loss_rate);
  so.deterministic = true;
  sim::Simulator simulator(BenchGraph(), so);
  for (auto _ : state) {
    auto r = simulator.RunSystem(BenchSystem("NR"), w);
    benchmark::DoNotOptimize(r.aggregate.tuning_packets.mean);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(w.queries.size()));
}

void BM_SimulatorThroughputNr(benchmark::State& state) {
  SimulatorThroughput(state, 0.0);
}
BENCHMARK(BM_SimulatorThroughputNr)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_SimulatorThroughputNrLossy(benchmark::State& state) {
  SimulatorThroughput(state, 0.01);
}
BENCHMARK(BM_SimulatorThroughputNrLossy)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Fleet latency on the shared station timeline: the same NR fleet, but
// arriving over time (Poisson, 200 clients/s) on one event-engine station
// instead of each query privately replaying its own cycle. items/s is
// simulated queries per second; the thread sweep tracks the event
// engine's scaling next to the batch engine's.
const workload::Workload& EventBenchWorkload() {
  static const auto& w = *new workload::Workload([] {
    workload::WorkloadSpec spec;
    spec.count = 128;
    spec.seed = 9;
    spec.arrival.kind = workload::ArrivalSpec::Kind::kPoisson;
    spec.arrival.rate_per_second = 200.0;
    return workload::GenerateWorkload(BenchGraph(), spec).value();
  }());
  return w;
}

void EventEngineFleet(benchmark::State& state, double loss_rate,
                      uint32_t subchannels) {
  const workload::Workload& w = EventBenchWorkload();
  sim::EventOptions eo;
  eo.threads = static_cast<unsigned>(state.range(0));
  eo.loss = broadcast::LossModel::Independent(loss_rate);
  eo.subchannels = subchannels;
  eo.deterministic = true;
  sim::EventEngine engine(BenchGraph(), eo);
  for (auto _ : state) {
    auto r = engine.RunSystem(BenchSystem("NR"), w);
    benchmark::DoNotOptimize(r.aggregate.wait_ms.mean);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(w.queries.size()));
}

void BM_EventEngineFleetNr(benchmark::State& state) {
  EventEngineFleet(state, 0.0, 1);
}
BENCHMARK(BM_EventEngineFleetNr)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_EventEngineFleetNrLossySharded(benchmark::State& state) {
  EventEngineFleet(state, 0.01, 4);
}
BENCHMARK(BM_EventEngineFleetNrLossySharded)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
