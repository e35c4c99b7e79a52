// The traced run: per-layer metrics of one workload. Every timed call into
// the library runs under a span (trace.h); the spans' self times are printed
// per name and written out as Chrome Trace Event JSON when the run ends.
//
// Phases, in order: set-up; builds of the methods the workload does not run
// (probes, so that every per-method metric is measured on every workload);
// the engine's warm-up pass, measured passes, a one-thread pass and
// smallest-batch passes; a direct RunQuery replay (warm-up, then untraced
// and traced in turn); the
// full-graph Dijkstra kernel; the broadcast and session-cache kernels.

#include <algorithm>
#include <cstdio>
#include <map>

#include "algo/dijkstra.h"
#include "alloc_counter.h"
#include "bench.h"
#include "broadcast/channel.h"
#include "broadcast/fec.h"
#include "broadcast/serialization.h"
#include "broadcast/station.h"
#include "common/thread_pool.h"
#include "core/decoded_slot_cache.h"
#include "core/query_scratch.h"
#include "core/session_cache.h"

namespace perfbench {
namespace {

namespace algo = airindex::algo;
namespace broadcast = airindex::broadcast;
namespace device = airindex::device;

constexpr std::string_view kAllMethods[] = {"DJ", "NR", "EB", "LD", "AF"};
/// Queries replayed through a method the workload does not run.
constexpr size_t kProbeQueries = 64;
/// Full-graph Dijkstra searches timed per run.
constexpr size_t kDijkstraQueries = 512;
/// Minimum wall time of each broadcast / session-cache kernel loop.
constexpr double kKernelSeconds = 0.2;
/// Smallest-batch engine passes behind sim.batch_fixed_ms.
constexpr int kFixedPasses = 5;
/// Untraced/traced replay pairs behind sim.trace_overhead_pct.
constexpr int kReplayPairs = 3;

bool RunsMethod(const WorkloadDef& def, std::string_view method) {
  return std::find(def.methods.begin(), def.methods.end(), method) !=
         def.methods.end();
}

double ElapsedS(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// Per-query record of a direct RunQuery replay.
struct Replay {
  std::vector<double> us;
  std::vector<double> allocs;
  std::vector<double> bytes;
  std::vector<device::QueryMetrics> metrics;
};

/// Replays the first `count` queries of `w` through `sys` with direct
/// RunQuery calls, one reused QueryScratch per worker, the way the engines
/// drive them: a private lossless channel per query (batch engine), or
/// 8-query sessions on the shared lossy station (`fleet`, event engine).
/// With a trace, each call is a span named `span_name` under `parent`.
Replay RunReplay(bool fleet, const Setup& setup, const core::AirSystem& sys,
                 size_t count, uint64_t seed, unsigned threads,
                 std::vector<core::QueryScratch>& scratch, Trace* trace,
                 std::string_view span_name, uint64_t parent) {
  const graph::Graph& g = setup.graph;
  const workload::Workload& w = setup.workload;
  Replay r;
  r.us.resize(count);
  r.allocs.resize(count);
  r.bytes.resize(count);
  r.metrics.resize(count);
  std::vector<std::vector<Span>> sinks(threads);

  auto timed = [&](unsigned worker, size_t i, const auto& call) {
    ScopedSpan span(trace, span_name, parent, static_cast<int64_t>(i),
                    &sinks[worker]);
    const AllocCount a0 = ThreadAllocs();
    const int64_t t0 = NowNs();
    device::QueryMetrics m = call();
    const int64_t t1 = NowNs();
    const AllocCount a1 = ThreadAllocs();
    r.us[i] = static_cast<double>(t1 - t0) * 1e-3;
    r.allocs[i] = static_cast<double>(a1.calls - a0.calls);
    r.bytes[i] = static_cast<double>(a1.bytes - a0.bytes);
    r.metrics[i] = m;
    return m;
  };

  if (fleet) {
    const sim::EventEngine engine(g, FleetEventOptions(threads));
    const sim::EventOptions& o = engine.options();
    const broadcast::Station station = engine.MakeStation(sys);
    const double slot_ms = station.SlotMs();
    core::DecodedSlotCache decode_cache(station.channel(0).cycle_version());
    const size_t per = std::max<uint32_t>(1, o.session.queries);
    const size_t sessions = (count + per - 1) / per;
    airindex::ParallelForWorker(
        sessions,
        [&](unsigned worker, size_t sidx) {
          core::QueryScratch& sc = scratch[worker];
          sc.session.BeginSession(o.cache_bytes);
          sc.decode_cache = &decode_cache;
          const uint32_t sub = station.SubchannelOf(sidx);
          const size_t first = sidx * per;
          const size_t last = std::min(count, first + per);
          double arrival_ms = w.queries[first].arrival_ms;
          for (size_t i = first; i < last; ++i) {
            core::AirQuery q = core::MakeAirQuery(g, w.queries[i]);
            q.arrival_pos = station.PositionAt(arrival_ms, sub);
            const device::QueryMetrics m = timed(worker, i, [&] {
              return sys.RunQuery(station.channel(sub), q, o.client, &sc);
            });
            // The event engine's pricing (FEC on): the next query of the
            // session arrives once this one is answered plus think time.
            const bool silent = m.tuning_packets == 0 && m.latency_packets == 0;
            const double boundary =
                silent ? 0.0 : station.TimeAtMs(q.arrival_pos, sub) - arrival_ms;
            arrival_ms += std::max(boundary, 0.0) +
                          static_cast<double>(m.latency_slots) * slot_ms +
                          o.session.think_ms;
          }
        },
        threads);
  } else {
    airindex::ParallelForWorker(
        count,
        [&](unsigned worker, size_t i) {
          const broadcast::BroadcastChannel channel(
              &sys.cycle(), broadcast::LossModel::None(),
              sim::QueryLossSeed(seed, i));
          const core::AirQuery q = core::MakeAirQuery(g, w.queries[i]);
          timed(worker, i, [&] {
            return sys.RunQuery(channel, q, core::ClientOptions{},
                                &scratch[worker]);
          });
        },
        threads);
  }
  if (trace != nullptr) {
    for (const auto& sink : sinks) trace->Append(sink);
  }
  for (size_t i = 0; i < count; ++i) {
    const device::QueryMetrics& m = r.metrics[i];
    if (m.ok && m.distance != w.queries[i].true_dist) {
      Fail("replay of " + std::string(sys.name()) + ", query " +
           std::to_string(i) + ": distance " + std::to_string(m.distance) +
           ", expected " + std::to_string(w.queries[i].true_dist));
    }
  }
  return r;
}

/// Runs `body` (one unit of `work_per_call` items) until kKernelSeconds
/// have passed; returns nanoseconds per item.
template <typename Body>
double NsPerItem(Body&& body, double work_per_call) {
  const int64_t start = NowNs();
  double items = 0.0;
  do {
    body();
    items += work_per_call;
  } while (ElapsedS(start) < kKernelSeconds);
  return static_cast<double>(NowNs() - start) / items;
}

/// Sum of the durations of every span named `name`, seconds.
double SpanSeconds(const Trace& trace, std::string_view name) {
  double s = 0.0;
  for (const Span& span : trace.spans()) {
    if (span.name == name) s += static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
  }
  return s;
}

}  // namespace

int RunTraced(const Options& opt) {
  const WorkloadDef& def = *opt.workload;
  const unsigned threads = def.threads;
  Trace trace;
  std::vector<Metric> out;
  auto add = [&](std::string name, double value, const char* unit) {
    out.push_back({std::move(name), value, unit});
  };

  size_t attempted = 0;
  size_t failed = 0;
  uint64_t sink = 0;  // keeps kernel results observable
  const int64_t run_start = NowNs();
  {
    ScopedSpan root(&trace, "perfbench.traced_run", 0);

    // --- set-up, then probe builds of the methods the workload lacks.
    std::unique_ptr<Setup> setup;
    {
      ScopedSpan phase(&trace, "phase.setup", root.id());
      setup = BuildSetup(def, opt.seed, &trace, phase.id());
    }
    const graph::Graph& g = setup->graph;
    const workload::Workload& w = setup->workload;
    std::map<std::string_view, const core::AirSystem*> systems;
    for (size_t k = 0; k < def.methods.size(); ++k) {
      systems[def.methods[k]] = setup->systems[k].get();
    }
    std::vector<std::unique_ptr<core::AirSystem>> probes;
    {
      ScopedSpan phase(&trace, "phase.probe_build", root.id());
      for (std::string_view m : kAllMethods) {
        if (RunsMethod(def, m)) continue;
        ScopedSpan span(&trace, trace.Intern("core.BuildSystem." + std::string(m)),
                        phase.id());
        probes.push_back(BuildMethod(def, g, m));
        systems[m] = probes.back().get();
      }
    }

    // --- engine passes.
    const std::string_view run_name =
        def.lossy_fleet ? "sim.EventEngine.Run" : "sim.Simulator.Run";
    auto pass = [&](uint64_t parent, unsigned t, const workload::Workload& wl) {
      ScopedSpan span(&trace, run_name, parent);
      return RunPass(def, *setup, wl, opt.seed, t);
    };
    sim::BatchResult warm;
    double warm_wall = 0.0;
    {
      ScopedSpan phase(&trace, "phase.warmup", root.id());
      const int64_t t0 = NowNs();
      warm = pass(phase.id(), threads, w);
      warm_wall = ElapsedS(t0);
    }
    if (auto c = CheckAnswers(def, w, warm); !c.error.empty()) Fail(c.error);

    double measure_wall = 0.0;
    double best_pass_wall = 0.0;
    size_t passes = 0;
    sim::BatchResult last;
    {
      ScopedSpan phase(&trace, "phase.measure", root.id());
      while (measure_wall < opt.seconds) {
        const int64_t t0 = NowNs();
        last = pass(phase.id(), threads, w);
        const double wall = ElapsedS(t0);
        measure_wall += wall;
        best_pass_wall = passes == 0 ? wall : std::min(best_pass_wall, wall);
        ++passes;
        const PassCheck c = CheckAnswers(def, w, last);
        if (!c.error.empty()) Fail(c.error);
        if (auto diff = CompareModeled(def, warm, last); !diff.empty()) Fail(diff);
        attempted += c.attempted;
        failed += c.failed;
      }
    }
    const double pass_wall = measure_wall / static_cast<double>(passes);
    const double per_pass = static_cast<double>(attempted / passes);

    double one_thread_wall = 0.0;
    {
      ScopedSpan phase(&trace, "phase.one_thread", root.id());
      const int64_t t0 = NowNs();
      const sim::BatchResult r = pass(phase.id(), 1, w);
      one_thread_wall = ElapsedS(t0);
      if (auto diff = CompareModeled(def, warm, r); !diff.empty()) Fail(diff);
    }

    // The smallest batch that gives every worker one unit of work (a query,
    // or a session on the fleet), against the same units' own RunQuery time
    // on warm scratch: the difference is what Run costs per batch — thread
    // start-up, fresh per-worker scratch — whatever the batch holds.
    std::map<std::string_view, std::vector<core::QueryScratch>> scratch;
    for (std::string_view m : kAllMethods) scratch.try_emplace(m, threads);
    std::vector<double> fixed_ms;
    std::vector<double> direct_ms;
    {
      ScopedSpan phase(&trace, "phase.batch_fixed", root.id());
      const size_t unit =
          def.lossy_fleet ? FleetEventOptions(threads).session.queries : 1;
      workload::Workload small;
      small.queries.assign(w.queries.begin(),
                           w.queries.begin() + threads * unit);
      for (int k = 0; k < kFixedPasses; ++k) {
        const int64_t t0 = NowNs();
        pass(phase.id(), threads, small);
        fixed_ms.push_back(ElapsedS(t0) * 1e3);
        // Run serves the systems one after another; within one, the
        // slowest worker's unit sets the wall.
        double direct = 0.0;
        for (std::string_view m : def.methods) {
          const Replay r =
              RunReplay(def.lossy_fleet, *setup, *systems[m],
                        small.queries.size(), opt.seed, threads, scratch[m],
                        nullptr, "", 0);
          double slowest_us = 0.0;
          for (size_t u = 0; u < threads; ++u) {
            double unit_us = 0.0;
            for (size_t i = u * unit; i < (u + 1) * unit; ++i) unit_us += r.us[i];
            slowest_us = std::max(slowest_us, unit_us);
          }
          direct += slowest_us * 1e-3;
        }
        direct_ms.push_back(direct);
      }
    }

    // --- direct RunQuery replay of the workload's methods: a warm-up, then
    // untraced and traced replays in turn; the fastest untraced one gives
    // the per-call numbers, the median walls the tracing overhead.
    auto replay_all = [&](const char* phase_name, Trace* span_trace,
                          std::map<std::string_view, Replay>* keep) {
      ScopedSpan phase(&trace, phase_name, root.id());
      const int64_t t0 = NowNs();
      for (std::string_view m : def.methods) {
        Replay r = RunReplay(
            def.lossy_fleet, *setup, *systems[m], w.queries.size(), opt.seed,
            threads, scratch[m], span_trace,
            trace.Intern("core.RunQuery." + std::string(m)), phase.id());
        if (keep != nullptr) (*keep)[m] = std::move(r);
      }
      return ElapsedS(t0);
    };
    replay_all("phase.replay_warmup", nullptr, nullptr);
    std::map<std::string_view, Replay> replay;
    std::vector<double> plain_walls;
    std::vector<double> traced_walls;
    for (int k = 0; k < kReplayPairs; ++k) {
      std::map<std::string_view, Replay> r;
      const double plain = replay_all("phase.replay", nullptr, &r);
      if (plain_walls.empty() ||
          plain < *std::min_element(plain_walls.begin(), plain_walls.end())) {
        replay = std::move(r);
      }
      plain_walls.push_back(plain);
      traced_walls.push_back(replay_all("phase.replay_traced", &trace, nullptr));
    }

    // Probes: warm-up, then timed lossless replay of a few queries.
    {
      ScopedSpan phase(&trace, "phase.probe_replay", root.id());
      const size_t n = std::min(kProbeQueries, w.queries.size());
      for (std::string_view m : kAllMethods) {
        if (RunsMethod(def, m)) continue;
        for (int k = 0; k < 2; ++k) {
          replay[m] = RunReplay(false, *setup, *systems[m], n, opt.seed,
                                threads, scratch[m], nullptr, "", 0);
        }
      }
    }

    // --- full-graph Dijkstra over the workload's pairs.
    std::vector<double> dijkstra_us;
    std::vector<double> settled;
    {
      ScopedSpan phase(&trace, "phase.dijkstra", root.id());
      algo::SearchWorkspace ws;
      const size_t n = std::min(kDijkstraQueries, w.queries.size());
      algo::DijkstraSearch(g, w.queries[0].source, w.queries[0].target,
                           algo::AllEdges{}, ws);
      for (size_t i = 0; i < n; ++i) {
        const workload::Query& q = w.queries[i];
        ScopedSpan span(&trace, "algo.DijkstraSearch", phase.id(),
                        static_cast<int64_t>(i));
        const int64_t t0 = NowNs();
        algo::DijkstraSearch(g, q.source, q.target, algo::AllEdges{}, ws);
        dijkstra_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
        settled.push_back(static_cast<double>(ws.settled()));
        if (ws.DistTo(q.target) != q.true_dist) {
          Fail("DijkstraSearch, query " + std::to_string(i) +
               ": distance differs from the workload's ground truth");
        }
      }
    }

    // --- broadcast kernels.
    double receive_lossless = 0.0;
    double receive_lossy = 0.0;
    double decode_ns = 0.0;
    double crc_ns = 0.0;
    {
      ScopedSpan phase(&trace, "phase.kernels", root.id());
      const broadcast::BroadcastCycle& cycle = systems[def.methods[0]]->cycle();
      const uint32_t total = cycle.total_packets();
      auto receive = [&](const broadcast::BroadcastChannel& channel) {
        broadcast::ClientSession session(&channel, 0);
        for (uint32_t p = 0; p < total; ++p) {
          if (auto v = session.ReceiveNext()) sink += v->chunk.size();
        }
      };
      {
        ScopedSpan span(&trace, "broadcast.ReceiveNext.lossless", phase.id());
        const broadcast::BroadcastChannel channel(
            &cycle, broadcast::LossModel::None(), opt.seed);
        receive_lossless = NsPerItem([&] { receive(channel); }, total);
      }
      {
        ScopedSpan span(&trace, "broadcast.ReceiveNext.lossy", phase.id());
        const sim::EventOptions fleet = FleetEventOptions(threads);
        const broadcast::BroadcastChannel channel(&cycle, fleet.loss, opt.seed,
                                                  fleet.fec);
        receive_lossy = NsPerItem([&] { receive(channel); }, total);
      }
      {
        ScopedSpan span(&trace, "broadcast.NodeRecordCursor", phase.id());
        const broadcast::BroadcastCycle& dj = systems["DJ"]->cycle();
        broadcast::NodeRecord rec;
        double records = 0.0;
        auto decode_all = [&] {
          records = 0.0;
          for (size_t s = 0; s < dj.num_segments(); ++s) {
            const broadcast::Segment& seg = dj.segment(s);
            if (seg.type != broadcast::SegmentType::kNetworkData) continue;
            if (!broadcast::ValidateNodeRecords(seg.payload).ok()) {
              Fail("DJ network segment " + std::to_string(s) + " invalid");
            }
            broadcast::NodeRecordCursor cur(seg.payload);
            while (cur.Next(&rec)) {
              records += 1.0;
              sink += rec.arcs.size();
            }
          }
        };
        decode_all();
        decode_ns = NsPerItem(decode_all, records);
      }
      {
        ScopedSpan span(&trace, "broadcast.Crc32", phase.id());
        crc_ns = NsPerItem(
            [&] {
              for (uint32_t p = 0; p < total; ++p) {
                sink += broadcast::Crc32(cycle.PacketAt(p).chunk);
              }
            },
            total);
      }
    }

    // --- session cache at the fleet's budget, over NR's region data.
    double load_ns = 0.0;
    double store_ns = 0.0;
    {
      ScopedSpan phase(&trace, "phase.session_cache", root.id());
      const broadcast::BroadcastCycle& nr = systems["NR"]->cycle();
      const broadcast::BroadcastChannel channel(
          &nr, broadcast::LossModel::None(), opt.seed);
      std::vector<broadcast::ReceivedSegment> segs;
      std::vector<uint32_t> starts;
      broadcast::ClientSession session(&channel, 0);
      for (size_t s = 0; s < nr.num_segments(); ++s) {
        if (nr.segment(s).type != broadcast::SegmentType::kNetworkData) continue;
        segs.emplace_back();
        starts.push_back(nr.SegmentStart(s));
        broadcast::ReceiveSegmentAt(session, starts.back(), &segs.back());
      }
      core::SessionCache cache;
      cache.BeginSession(FleetEventOptions(threads).cache_bytes);
      cache.Ready(channel);
      {
        ScopedSpan span(&trace, "core.SessionCache.Store", phase.id());
        store_ns = NsPerItem(
            [&] {
              for (size_t k = 0; k < segs.size(); ++k) cache.Store(starts[k], segs[k]);
            },
            static_cast<double>(segs.size()));
      }
      std::vector<uint32_t> cached;
      for (uint32_t s : starts) {
        if (cache.Has(s)) cached.push_back(s);
      }
      if (cached.empty()) Fail("session cache holds no NR region segment");
      broadcast::ReceivedSegment loaded;
      {
        ScopedSpan span(&trace, "core.SessionCache.Load", phase.id());
        load_ns = NsPerItem(
            [&] {
              for (uint32_t s : cached) sink += cache.Load(s, &loaded);
            },
            static_cast<double>(cached.size()));
      }
    }

    // --- per-layer metrics.
    add("graph.make_network_s", SpanSeconds(trace, "graph.MakeNetwork"), "s");
    add("workload.generate_s", SpanSeconds(trace, "workload.GenerateWorkload"),
        "s");
    for (std::string_view m : kAllMethods) {
      const std::string ms(m);
      add("core.build_s." + ms, SpanSeconds(trace, "core.BuildSystem." + ms), "s");
      add("broadcast.cycle_packets." + ms, systems[m]->cycle().total_packets(),
          "packets");
    }
    add("algo.dijkstra_us_p50", Percentile(dijkstra_us, 50), "us");
    add("algo.dijkstra_us_p99", Percentile(dijkstra_us, 99), "us");
    add("algo.settled_per_query", Mean(settled), "nodes");
    add("broadcast.receive_ns_per_pkt.lossless", receive_lossless, "ns");
    add("broadcast.receive_ns_per_pkt.lossy", receive_lossy, "ns");
    add("broadcast.decode_ns_per_record", decode_ns, "ns");
    add("broadcast.crc32_ns_per_pkt", crc_ns, "ns");

    // Client-reported metrics: the engine's passes for the workload's own
    // methods, the probe replay for the others.
    auto engine_result = [&](const sim::BatchResult& b,
                             std::string_view m) -> const sim::SystemResult* {
      for (const auto& sr : b.systems) {
        if (sr.system == m) return &sr;
      }
      return nullptr;
    };
    std::vector<double> fec_recovered;
    std::vector<double> corrupted;
    std::vector<double> warm_flags;
    for (const auto& sr : warm.systems) {
      for (const auto& q : sr.per_query) {
        fec_recovered.push_back(static_cast<double>(q.fec_recovered));
        corrupted.push_back(static_cast<double>(q.corrupted_packets));
        warm_flags.push_back(q.warm ? 1.0 : 0.0);
      }
    }
    add("broadcast.fec_recovered_per_query", Mean(fec_recovered), "packets");
    add("broadcast.corrupted_per_query", Mean(corrupted), "packets");
    add("core.warm_share", Mean(warm_flags), "ratio");

    double replay_sum_s = 0.0;
    for (std::string_view m : kAllMethods) {
      const std::string ms(m);
      const Replay& r = replay[m];
      const sim::SystemResult* warm_sr = engine_result(warm, m);
      const sim::SystemResult* last_sr = engine_result(last, m);
      std::vector<double> cpu;
      std::vector<double> tuning;
      std::vector<double> regions;
      std::vector<double> hits;
      for (size_t i = 0; i < r.metrics.size(); ++i) {
        const device::QueryMetrics& q =
            warm_sr != nullptr ? warm_sr->per_query[i] : r.metrics[i];
        cpu.push_back(last_sr != nullptr ? last_sr->per_query[i].cpu_ms
                                         : r.metrics[i].cpu_ms);
        tuning.push_back(static_cast<double>(q.tuning_packets));
        regions.push_back(q.regions_received);
        hits.push_back(static_cast<double>(q.cache_hits));
      }
      if (RunsMethod(def, m)) {
        for (double us : r.us) replay_sum_s += us * 1e-6;
      }
      add("core.run_query_us_p50." + ms, Percentile(r.us, 50), "us");
      add("core.run_query_us_p99." + ms, Percentile(r.us, 99), "us");
      add("core.cpu_ms_mean." + ms, Mean(cpu), "ms");
      add("core.allocs_per_query." + ms, Mean(r.allocs), "count");
      add("core.alloc_bytes_per_query." + ms, Mean(r.bytes), "bytes");
      add("core.tuning_pkts_mean." + ms, Mean(tuning), "packets");
      if (m == "NR" || m == "EB") {
        add("core.regions_per_query." + ms, Mean(regions), "count");
        add("core.cache_hits_per_query." + ms, Mean(hits), "count");
      }
    }
    add("core.session_cache_load_ns", load_ns, "ns");
    add("core.session_cache_store_ns", store_ns, "ns");

    add("sim.engine_overhead_us_per_query",
        (best_pass_wall * threads - replay_sum_s) / per_pass * 1e6, "us");
    add("sim.scaling_eff",
        (per_pass / pass_wall) / (threads * (per_pass / one_thread_wall)),
        "ratio");
    add("sim.warmup_s", warm_wall - pass_wall, "s");
    add("sim.batch_fixed_ms", Median(fixed_ms) - Median(direct_ms), "ms");
    add("sim.trace_overhead_pct",
        (Median(traced_walls) / Median(plain_walls) - 1.0) * 100.0, "%");
  }
  const double wall = ElapsedS(run_start);

  // Self time per span name; the shares add up to the root span.
  double self_total = 0.0;
  std::printf("# self time per span name (s)\n");
  for (const auto& [name, seconds] : trace.SelfSeconds()) {
    std::printf("#   %-40s %10.4f\n", name.c_str(), seconds);
    self_total += seconds;
  }
  std::printf("# self time total %.4f s, traced run wall %.4f s, %zu spans\n",
              self_total, wall, trace.spans().size());
  if (!opt.trace_out.empty()) {
    if (!trace.WriteChromeJson(opt.trace_out)) {
      Fail("cannot write " + opt.trace_out);
    }
    std::printf("# spans written to %s\n", opt.trace_out.c_str());
  }
  std::printf("# workload %.*s, seed %llu (kernel checksum %llu)\n",
              static_cast<int>(def.name.size()), def.name.data(),
              static_cast<unsigned long long>(opt.seed),
              static_cast<unsigned long long>(sink % 1000));
  PrintResult(true, attempted, failed, out);
  return 0;
}

}  // namespace perfbench
