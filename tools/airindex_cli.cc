// airindex_cli — operator tool for the airindex library.
//
//   airindex_cli generate <nodes> <edges> <seed> <out.gr> <out.co>
//       Generate a synthetic road network and save it in DIMACS format.
//
//   airindex_cli gen --nodes=N --seed=N --out=PREFIX [--levels=N]
//       [--jitter=F] [--threads=N]
//       Generate a continental-scale grid+highway network (GenSpec
//       pipeline) and save it as PREFIX.gr + PREFIX.co.
//
//   airindex_cli inspect <network> [scale] [method] [regions]
//       Build a catalog network's broadcast cycle and print its layout
//       (method: DJ|NR|EB|LD|AF, default NR; regions default 32).
//
//   airindex_cli query <network> <scale> <method> <source> <target>
//       Run one shortest-path query through the simulated channel and
//       print every cost factor.
//
//   airindex_cli run <network> [flags]
//       Batch-simulate a multi-client workload through the parallel
//       engine and report aggregate metrics (text or JSON).
//
//   airindex_cli scenario --list | --name=<builtin> | --file=<spec.json>
//       Run a declarative scenario: a heterogeneous fleet of client
//       groups (device profiles, loss models, workload mixes) against
//       the systems under test, reported per group and fleet-wide.

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "broadcast/channel.h"
#include "broadcast/schedule.h"
#include "common/flags.h"
#include "core/query_scratch.h"
#include "core/systems.h"
#include "device/energy.h"
#include "device/profile_catalog.h"
#include "graph/catalog.h"
#include "graph/dimacs.h"
#include "graph/generator.h"
#include "sim/event_engine.h"
#include "sim/report.h"
#include "sim/scenario.h"
#include "sim/scenario_catalog.h"
#include "sim/simulator.h"
#include "workload/workload.h"

using namespace airindex;  // NOLINT: CLI binary

namespace {

void PrintUsage(std::FILE* out) {
  std::fprintf(out,
               "usage:\n"
               "  airindex_cli generate <nodes> <edges> <seed> <out.gr> "
               "<out.co>\n"
               "  airindex_cli gen --nodes=N --seed=N --out=PREFIX "
               "[--levels=N]\n"
               "      [--jitter=F] [--threads=N]\n"
               "      Generate a grid+highway network, written as "
               "PREFIX.gr + PREFIX.co\n"
               "  airindex_cli inspect <network> [scale] [method] "
               "[regions] [encoding]\n"
               "      [schedule] [zipf_s]\n"
               "      (encoding: legacy|compact; default legacy; a "
               "schedule arg —\n"
               "      see --schedule below — previews the broadcast-disk "
               "layout\n"
               "      planned for a zipf[zipf_s] destination demand, "
               "default 0.9;\n"
               "      method \"all\" prints every system's index-segment "
               "byte totals\n"
               "      — the numbers to size run's --cache-bytes from)\n"
               "  airindex_cli query <network> <scale> <method> <source> "
               "<target>\n"
               "  airindex_cli run <network> [--scale=F] [--queries=N] "
               "[--seed=N]\n"
               "      [--loss=F] [--burst=N] [--corrupt=F] [--fec-rate=F]\n"
               "      [--threads=N] [--repeat=N]\n"
               "      [--systems=DJ,NR,...] [--regions=N]\n"
               "      [--landmarks=N] [--json[=FILE]] [--deterministic]\n"
               "      [--engine=batch|event] [--subchannels=N]\n"
               "      [--arrival=uniform|poisson|rush-hour] [--rate=F]\n"
               "      [--schedule=flat|disks[:K[:r1,r2,...]]|"
               "online[:R[,decay]]]\n"
               "      [--zipf=F] [--sessions=N] [--cache-bytes=N]\n"
               "      Simulate a batch of clients through the parallel "
               "engine\n"
               "      (--threads=0 uses all cores; --burst=N groups losses "
               "into\n"
               "      N-packet fade bursts; --corrupt=F flips bits at rate "
               "F\n"
               "      per bit — CRC-detected corrupt packets count "
               "separately\n"
               "      from drops; --fec-rate=F appends "
               "round(F*16) parity\n"
               "      packets per 16-packet group, letting clients "
               "reconstruct\n"
               "      that many losses without waiting a cycle; "
               "--deterministic zeroes the\n"
               "      wall-clock cpu_ms field so the aggregate metrics "
               "are\n"
               "      bit-reproducible; timing fields still vary by "
               "run;\n"
               "      --repeat=N reports min-of-N wall time per "
               "system;\n"
               "      --engine=event runs the fleet on one shared station\n"
               "      timeline — clients arrive per --arrival at --rate\n"
               "      clients/s, and latency splits into wait/listen ms;\n"
               "      --subchannels=N shards the station across N "
               "interleaved\n"
               "      logical sub-channels; --zipf=F draws destinations "
               "from a\n"
               "      zipf[F] distribution; --schedule spins the cycle's "
               "interleave\n"
               "      groups on K broadcast disks — disks plans spin "
               "rates once by\n"
               "      the square-root rule from the analytic demand, "
               "online\n"
               "      re-plans every R cycles from observed demand "
               "(event engine\n"
               "      only; decay weights history); --sessions=N keeps "
               "each client\n"
               "      alive for N consecutive queries and --cache-bytes=N "
               "gives it\n"
               "      an N-byte segment cache (event engine only; size N "
               "from\n"
               "      `inspect <network> <scale> all`).\n"
               "  airindex_cli scenario --list | --name=NAME | "
               "--file=SPEC.json\n"
               "      [--threads=N] [--repeat=N] [--scale=F] [--queries=N] "
               "[--json[=FILE]]\n"
               "      [--deterministic] [--engine=batch|event]\n"
               "      [--schedule=...]\n"
               "      Run a declarative multi-group scenario "
               "(airindex.sim.scenario/v1);\n"
               "      --list shows the built-in catalog, --scale/--queries "
               "override\n"
               "      the spec for quick smoke runs, --engine and "
               "--schedule\n"
               "      override the spec's engine/schedule fields.\n");
}

int Usage() {
  PrintUsage(stderr);
  return 2;
}

/// Parses a --schedule= value: "flat", "disks[:K[:r1,r2,...]]", or
/// "online[:R[,decay]]" (K = disk count, r_i = spin rates fastest-first,
/// R = re-plan epoch in cycles). Prints the offense and returns false on
/// malformed input.
bool ParseScheduleFlag(const char* value, sim::SchedulePolicy* out) {
  auto fail = [&]() {
    std::fprintf(stderr,
                 "invalid --schedule value \"%s\" (flat | disks[:K[:r1,"
                 "r2,...]] | online[:R[,decay]])\n",
                 value);
    return false;
  };
  // strtoul skips spaces and wraps "-1" to ULONG_MAX, so each number must
  // start with a digit and fit the uint32_t it is stored in.
  auto number = [](const char* p, char** end, unsigned long* n) {
    if (*p < '0' || *p > '9') return false;
    errno = 0;
    *n = std::strtoul(p, end, 10);
    return errno != ERANGE && *n <= 0xFFFFFFFFul;
  };
  *out = sim::SchedulePolicy{};
  const std::string v(value);
  if (v == "flat") return true;
  if (v.rfind("disks", 0) == 0) {
    out->mode = sim::SchedulePolicy::Mode::kStatic;
    const char* rest = value + 5;
    if (*rest == '\0') return true;
    if (*rest != ':') return fail();
    ++rest;
    char* end = nullptr;
    unsigned long k = 0;
    if (!number(rest, &end, &k) || k < 1 || k > 16) return fail();
    out->disks = static_cast<uint32_t>(k);
    if (*end == '\0') return true;
    if (*end != ':') return fail();
    rest = end + 1;
    while (*rest != '\0') {
      unsigned long r = 0;
      if (!number(rest, &end, &r) || r < 1) return fail();
      out->rates.push_back(static_cast<uint32_t>(r));
      rest = end;
      if (*rest == ',') ++rest;
      else if (*rest != '\0') return fail();
    }
    if (out->rates.size() != out->disks) {
      std::fprintf(stderr,
                   "--schedule=disks:%u lists %zu spin rates (need one per "
                   "disk)\n",
                   out->disks, out->rates.size());
      return false;
    }
    return true;
  }
  if (v.rfind("online", 0) == 0) {
    out->mode = sim::SchedulePolicy::Mode::kOnline;
    const char* rest = value + 6;
    if (*rest == '\0') return true;
    if (*rest != ':') return fail();
    ++rest;
    char* end = nullptr;
    unsigned long r = 0;
    if (!number(rest, &end, &r) || r < 1) return fail();
    out->replan_cycles = static_cast<uint32_t>(r);
    if (*end == '\0') return true;
    if (*end != ',') return fail();
    rest = end + 1;
    errno = 0;
    const double decay = std::strtod(rest, &end);
    if (end == rest || *end != '\0' || errno == ERANGE ||
        !(decay >= 0.0) || decay > 1.0) {
      return fail();
    }
    out->decay = decay;
    return true;
  }
  return fail();
}

/// Byte totals of a cycle split into index vs data segments — the numbers
/// a user sizes run's --cache-bytes from (the session cache keeps whole
/// segments, index slot first).
struct CycleBytes {
  size_t index_segments = 0;
  size_t index_bytes = 0;
  size_t data_segments = 0;
  size_t data_bytes = 0;
  size_t max_segment_bytes = 0;
};

CycleBytes CycleBytesOf(const broadcast::BroadcastCycle& cycle) {
  CycleBytes b;
  for (size_t i = 0; i < cycle.num_segments(); ++i) {
    const auto& seg = cycle.segment(i);
    if (seg.is_index) {
      ++b.index_segments;
      b.index_bytes += seg.payload.size();
    } else {
      ++b.data_segments;
      b.data_bytes += seg.payload.size();
    }
    b.max_segment_bytes = std::max(b.max_segment_bytes, seg.payload.size());
  }
  return b;
}

Result<std::unique_ptr<core::AirSystem>> BuildMethod(
    const graph::Graph& g, const std::string& method, uint32_t regions,
    broadcast::CycleEncoding encoding = broadcast::CycleEncoding::kLegacy) {
  core::SystemParams params;
  params.nr_regions = regions;
  params.eb_regions = regions;
  params.arcflag_regions = regions;
  params.hiti_regions = regions;
  params.build.encoding = encoding;
  return core::BuildSystem(g, method, params);
}

int Gen(int argc, char** argv) {
  graph::GenSpec spec;
  spec.num_nodes = 0;
  std::string out_prefix;
  uint64_t u = 0;
  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--nodes=", 8) == 0) {
      if (!ParseUintFlag(arg, 8, &u)) return 2;
      if (u < 2 || u > 0xFFFFFFFFull) {
        std::fprintf(stderr, "--nodes must be in [2, 2^32)\n");
        return 2;
      }
      spec.num_nodes = static_cast<uint32_t>(u);
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      if (!ParseUintFlag(arg, 7, &u)) return 2;
      spec.seed = u;
    } else if (std::strncmp(arg, "--levels=", 9) == 0) {
      if (!ParseUintFlag(arg, 9, &u, UINT32_MAX)) return 2;
      spec.highway_levels = static_cast<uint32_t>(u);
    } else if (std::strncmp(arg, "--jitter=", 9) == 0) {
      if (!ParseDoubleFlag(arg, 9, &spec.weight_jitter)) return 2;
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      if (!ParseUintFlag(arg, 10, &u, UINT_MAX)) return 2;
      spec.threads = static_cast<unsigned>(u);
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      out_prefix = arg + 6;
    } else {
      std::fprintf(stderr, "unknown flag \"%s\"\n", arg);
      return 2;
    }
  }
  if (spec.num_nodes == 0 || out_prefix.empty()) {
    std::fprintf(stderr, "gen requires --nodes= and --out=\n");
    return 2;
  }
  auto g = graph::GenerateRoadNetwork(spec);
  if (!g.ok()) {
    std::fprintf(stderr, "%s\n", g.status().ToString().c_str());
    return 1;
  }
  const std::string gr = out_prefix + ".gr";
  const std::string co = out_prefix + ".co";
  Status st = graph::SaveDimacs(*g, gr.c_str(), co.c_str());
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu nodes / %zu arcs to %s + %s\n", g->num_nodes(),
              g->num_arcs(), gr.c_str(), co.c_str());
  return 0;
}

int Generate(int argc, char** argv) {
  if (argc != 7) return Usage();
  graph::GeneratorOptions opts;
  uint64_t nodes = 0;
  uint64_t edges = 0;
  if (!ParseUint("<nodes>", argv[2], &nodes, 0xFFFFFFFFull) ||
      !ParseUint("<edges>", argv[3], &edges, 0xFFFFFFFFull) ||
      !ParseUint("<seed>", argv[4], &opts.seed)) {
    return 2;
  }
  opts.num_nodes = static_cast<uint32_t>(nodes);
  opts.num_edges = static_cast<uint32_t>(edges);
  auto g = graph::GenerateRoadNetwork(opts);
  if (!g.ok()) {
    std::fprintf(stderr, "%s\n", g.status().ToString().c_str());
    return 1;
  }
  Status st = graph::SaveDimacs(*g, argv[5], argv[6]);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu nodes / %zu arcs to %s + %s\n", g->num_nodes(),
              g->num_arcs(), argv[5], argv[6]);
  return 0;
}

int Inspect(int argc, char** argv) {
  if (argc < 3) return Usage();
  double scale = 0.2;
  if (argc > 3 && !ParseDouble("<scale>", argv[3], &scale)) return 2;
  const std::string method = argc > 4 ? argv[4] : "NR";
  uint64_t regions_arg = 32;
  if (argc > 5 &&
      !ParseUint("<regions>", argv[5], &regions_arg, 0xFFFFFFFFull)) {
    return 2;
  }
  const uint32_t regions = static_cast<uint32_t>(regions_arg);
  broadcast::CycleEncoding encoding = broadcast::CycleEncoding::kLegacy;
  if (argc > 6) {
    if (std::strcmp(argv[6], "compact") == 0) {
      encoding = broadcast::CycleEncoding::kCompact;
    } else if (std::strcmp(argv[6], "legacy") != 0) {
      std::fprintf(stderr, "unknown encoding \"%s\" (legacy|compact)\n",
                   argv[6]);
      return 2;
    }
  }
  sim::SchedulePolicy schedule;
  if (argc > 7 && !ParseScheduleFlag(argv[7], &schedule)) return 2;
  double zipf_s = 0.9;
  if (argc > 8 && !ParseDouble("<zipf_s>", argv[8], &zipf_s)) return 2;

  auto spec = graph::FindNetwork(argv[2]);
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return 1;
  }
  auto g = graph::MakeNetwork(*spec, scale);
  if (!g.ok()) {
    std::fprintf(stderr, "%s\n", g.status().ToString().c_str());
    return 1;
  }
  if (method == "all") {
    // Cache-sizing table: every system's index-segment byte totals, the
    // numbers run's --cache-bytes is sized from (the session cache pins
    // the index slot and then LRUs whole data segments).
    std::printf("index/data bytes per system on %s (scale %.2f): "
                "%zu nodes, %zu arcs\n",
                argv[2], scale, g->num_nodes(), g->num_arcs());
    std::printf("%-5s %9s %12s %9s %12s %12s\n", "sys", "idx segs",
                "idx bytes", "data segs", "data bytes", "max seg");
    for (const char* m :
         {"DJ", "NR", "EB", "LD", "AF", "SPQ", "HiTi"}) {
      auto sys = BuildMethod(*g, m, regions, encoding);
      if (!sys.ok()) {
        std::fprintf(stderr, "%s\n", sys.status().ToString().c_str());
        return 1;
      }
      const CycleBytes b = CycleBytesOf((*sys)->cycle());
      std::printf("%-5s %9zu %12zu %9zu %12zu %12zu\n", m,
                  b.index_segments, b.index_bytes, b.data_segments,
                  b.data_bytes, b.max_segment_bytes);
    }
    std::printf("size --cache-bytes to at least one system's max seg (one "
                "warm region) — idx bytes ride in a separate pinned "
                "slot;\ndata bytes caches the whole cycle.\n");
    return 0;
  }
  auto sys = BuildMethod(*g, method, regions, encoding);
  if (!sys.ok()) {
    std::fprintf(stderr, "%s\n", sys.status().ToString().c_str());
    return 1;
  }
  const broadcast::BroadcastCycle& cycle = (*sys)->cycle();
  std::printf("%s on %s (scale %.2f): %zu nodes, %zu arcs\n", method.c_str(),
              argv[2], scale, g->num_nodes(), g->num_arcs());
  std::printf("cycle: %u packets (%zu segments, %zu payload bytes, "
              "%.1f bytes/node, %s encoding)\n",
              cycle.total_packets(), cycle.num_segments(),
              cycle.TotalPayloadBytes(),
              static_cast<double>(cycle.TotalPayloadBytes()) /
                  static_cast<double>(g->num_nodes()),
              encoding == broadcast::CycleEncoding::kCompact ? "compact"
                                                             : "legacy");
  std::printf("duration: %.3f s at 2 Mbps, %.3f s at 384 Kbps\n",
              device::CycleSeconds(cycle.total_packets(),
                                   device::kBitrateStatic3G),
              device::CycleSeconds(cycle.total_packets(),
                                   device::kBitrateMoving3G));
  // Segment type census.
  size_t counts[4] = {0, 0, 0, 0};
  size_t packets[4] = {0, 0, 0, 0};
  for (size_t i = 0; i < cycle.num_segments(); ++i) {
    const auto& seg = cycle.segment(i);
    const int t = static_cast<int>(seg.type);
    ++counts[t];
    packets[t] += seg.PacketCount();
  }
  const char* names[4] = {"network data", "global index", "local index",
                          "aux data"};
  for (int t = 0; t < 4; ++t) {
    if (counts[t] == 0) continue;
    std::printf("  %-14s %4zu segments, %6zu packets (%.1f%%)\n", names[t],
                counts[t], packets[t],
                100.0 * static_cast<double>(packets[t]) /
                    cycle.total_packets());
  }
  const CycleBytes cb = CycleBytesOf(cycle);
  std::printf("index bytes: %zu segments, %zu bytes (largest segment %zu "
              "bytes — size run's --cache-bytes from these; \"all\" "
              "tabulates every system)\n",
              cb.index_segments, cb.index_bytes, cb.max_segment_bytes);
  if (schedule.mode != sim::SchedulePolicy::Mode::kFlat) {
    // Preview the static square-root plan for the requested disk shape
    // under an analytic zipf destination demand (seed fixed so the layout
    // is reproducible; online runs start from this same plan).
    workload::WorkloadSpec dspec;
    dspec.dest = workload::WorkloadSpec::Dest::kZipf;
    dspec.zipf_s = zipf_s;
    dspec.seed = 20100913;
    const std::vector<double> demand =
        workload::DestinationWeights(g->num_nodes(), dspec);
    broadcast::ScheduleSpec sspec =
        sim::PlanStaticSpec(cycle, demand, schedule, encoding);
    if (sspec.flat()) {
      std::printf("schedule: planner collapsed to the flat cycle "
                  "(demand too even for %u disks)\n",
                  schedule.disks);
    } else {
      auto compiled = broadcast::BroadcastSchedule::Compile(&cycle, sspec);
      if (!compiled.ok()) {
        std::fprintf(stderr, "%s\n",
                     compiled.status().ToString().c_str());
        return 1;
      }
      const broadcast::BroadcastSchedule& bs = *compiled;
      const auto layout = bs.DiskLayout();
      std::printf("schedule: %zu disks over %zu groups (zipf %.2f demand), "
                  "macro cycle %llu minor cycles, %zu packets, "
                  "stretch %.3fx\n",
                  layout.size(),
                  static_cast<size_t>(bs.num_groups()), zipf_s,
                  static_cast<unsigned long long>(bs.minor_cycles()),
                  bs.macro_packets(), bs.Stretch());
      for (size_t d = 0; d < layout.size(); ++d) {
        const auto& disk = layout[d];
        std::printf("  disk %zu: spin %2u, %4zu groups, %6zu packets "
                    "(%.1f%% of cycle)\n",
                    d, disk.spin, static_cast<size_t>(disk.groups),
                    static_cast<size_t>(disk.packets),
                    100.0 * static_cast<double>(disk.packets) /
                        cycle.total_packets());
      }
    }
  }
  std::printf("server pre-computation: %.3f s\n",
              (*sys)->precompute_seconds());
  return 0;
}

int Query(int argc, char** argv) {
  if (argc != 7) return Usage();
  double scale = 0;
  uint64_t source = 0;
  uint64_t target = 0;
  if (!ParseDouble("<scale>", argv[3], &scale) ||
      !ParseUint("<source>", argv[5], &source, 0xFFFFFFFFull) ||
      !ParseUint("<target>", argv[6], &target, 0xFFFFFFFFull)) {
    return 2;
  }
  auto spec = graph::FindNetwork(argv[2]);
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return 1;
  }
  auto g = graph::MakeNetwork(*spec, scale);
  if (!g.ok()) {
    std::fprintf(stderr, "%s\n", g.status().ToString().c_str());
    return 1;
  }
  auto sys = BuildMethod(*g, argv[4], 32);
  if (!sys.ok()) {
    std::fprintf(stderr, "%s\n", sys.status().ToString().c_str());
    return 1;
  }
  workload::Query q;
  q.source = static_cast<graph::NodeId>(source);
  q.target = static_cast<graph::NodeId>(target);
  if (q.source >= g->num_nodes() || q.target >= g->num_nodes()) {
    std::fprintf(stderr, "node id out of range (max %zu)\n",
                 g->num_nodes() - 1);
    return 1;
  }
  q.tune_phase = 0.5;
  broadcast::BroadcastChannel channel(&(*sys)->cycle(), 0.0);
  core::QueryScratch scratch;
  device::QueryMetrics m =
      (*sys)->RunQuery(channel, core::MakeAirQuery(*g, q), {}, &scratch);
  device::EnergyModel energy(device::DeviceProfile::J2mePhone(),
                             device::kBitrateStatic3G);
  std::printf("%s %u -> %u\n", argv[4], q.source, q.target);
  std::printf("  distance       : %llu\n",
              static_cast<unsigned long long>(m.distance));
  std::printf("  tuning         : %llu packets\n",
              static_cast<unsigned long long>(m.tuning_packets));
  std::printf("  latency        : %llu packets\n",
              static_cast<unsigned long long>(m.latency_packets));
  std::printf("  peak memory    : %.1f KB\n",
              m.peak_memory_bytes / 1024.0);
  std::printf("  client CPU     : %.2f ms\n", m.cpu_ms);
  std::printf("  radio energy   : %.3f J\n", energy.QueryJoules(m));
  return m.ok ? 0 : 1;
}

/// Splits a comma-separated --systems= value.
std::vector<std::string> SplitNames(const char* csv) {
  std::vector<std::string> names;
  std::string current;
  for (const char* p = csv; *p != '\0'; ++p) {
    if (*p == ',') {
      if (!current.empty()) names.push_back(current);
      current.clear();
    } else {
      current += *p;
    }
  }
  if (!current.empty()) names.push_back(current);
  return names;
}

int Run(int argc, char** argv) {
  if (argc < 3) return Usage();
  double scale = 0.2;
  size_t queries = 100;
  uint64_t seed = 20100913;
  double loss = 0.0;
  double corrupt = 0.0;
  double fec_rate = 0.0;
  uint32_t burst = 1;
  unsigned threads = 0;  // all cores: the engine's reason to exist
  uint32_t regions = 32;
  uint32_t landmarks = 4;
  unsigned repeat = 1;
  bool deterministic = false;
  bool emit_json = false;
  std::string json_path;
  std::string engine = "batch";
  std::string arrival = "none";
  double rate = 50.0;
  uint32_t subchannels = 1;
  double zipf = 0.0;
  uint32_t sessions = 1;
  uint64_t cache_bytes = 0;
  sim::SchedulePolicy schedule;
  std::vector<std::string> names = {"DJ", "NR", "EB", "LD", "AF"};

  uint64_t u = 0;  // strict-parse staging for the narrow unsigned knobs

  for (int i = 3; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--scale=", 8) == 0) {
      if (!ParseDoubleFlag(arg, 8, &scale)) return Usage();
    } else if (std::strncmp(arg, "--queries=", 10) == 0) {
      if (!ParseUintFlag(arg, 10, &u)) return Usage();
      queries = static_cast<size_t>(u);
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      if (!ParseUintFlag(arg, 7, &seed)) return Usage();
    } else if (std::strncmp(arg, "--loss=", 7) == 0) {
      if (!ParseDoubleFlag(arg, 7, &loss)) return Usage();
    } else if (std::strncmp(arg, "--burst=", 8) == 0) {
      if (!ParseUintFlag(arg, 8, &u, UINT32_MAX)) return Usage();
      burst = u > 1 ? static_cast<uint32_t>(u) : 1;
    } else if (std::strncmp(arg, "--corrupt=", 10) == 0) {
      if (!ParseDoubleFlag(arg, 10, &corrupt)) return Usage();
      if (!(corrupt >= 0.0) || corrupt >= 1.0) {
        std::fprintf(stderr, "--corrupt must be in [0, 1)\n");
        return 2;
      }
    } else if (std::strncmp(arg, "--fec-rate=", 11) == 0) {
      if (!ParseDoubleFlag(arg, 11, &fec_rate)) return Usage();
      if (!(fec_rate >= 0.0) || fec_rate > 1.0) {
        std::fprintf(stderr, "--fec-rate must be in [0, 1]\n");
        return 2;
      }
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      if (!ParseUintFlag(arg, 10, &u, UINT_MAX)) return Usage();
      threads = static_cast<unsigned>(u);
    } else if (std::strncmp(arg, "--repeat=", 9) == 0) {
      if (!ParseUintFlag(arg, 9, &u, UINT_MAX)) return Usage();
      repeat = u > 1 ? static_cast<unsigned>(u) : 1;
    } else if (std::strncmp(arg, "--regions=", 10) == 0) {
      if (!ParseUintFlag(arg, 10, &u, UINT32_MAX)) return Usage();
      regions = static_cast<uint32_t>(u);
    } else if (std::strncmp(arg, "--landmarks=", 12) == 0) {
      if (!ParseUintFlag(arg, 12, &u, UINT32_MAX)) return Usage();
      landmarks = static_cast<uint32_t>(u);
    } else if (std::strncmp(arg, "--systems=", 10) == 0) {
      names = SplitNames(arg + 10);
    } else if (std::strncmp(arg, "--engine=", 9) == 0) {
      engine = arg + 9;
    } else if (std::strncmp(arg, "--arrival=", 10) == 0) {
      arrival = arg + 10;
    } else if (std::strncmp(arg, "--rate=", 7) == 0) {
      if (!ParseDoubleFlag(arg, 7, &rate)) return Usage();
    } else if (std::strncmp(arg, "--subchannels=", 14) == 0) {
      if (!ParseUintFlag(arg, 14, &u, UINT32_MAX)) return Usage();
      if (u < 1) {
        std::fprintf(stderr, "--subchannels must be >= 1\n");
        return 2;
      }
      subchannels = static_cast<uint32_t>(u);
    } else if (std::strncmp(arg, "--zipf=", 7) == 0) {
      if (!ParseDoubleFlag(arg, 7, &zipf)) return Usage();
      if (!(zipf >= 0.0)) {
        std::fprintf(stderr, "--zipf must be >= 0\n");
        return 2;
      }
    } else if (std::strncmp(arg, "--sessions=", 11) == 0) {
      if (!ParseUintFlag(arg, 11, &u, UINT32_MAX)) return 2;
      if (u < 1) {
        std::fprintf(stderr, "--sessions must be >= 1\n");
        return 2;
      }
      sessions = static_cast<uint32_t>(u);
    } else if (std::strncmp(arg, "--cache-bytes=", 14) == 0) {
      if (!ParseUintFlag(arg, 14, &cache_bytes)) return 2;
    } else if (std::strncmp(arg, "--schedule=", 11) == 0) {
      if (!ParseScheduleFlag(arg + 11, &schedule)) return 2;
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      emit_json = true;
      json_path = arg + 7;
    } else if (std::strcmp(arg, "--json") == 0) {
      emit_json = true;
    } else if (std::strcmp(arg, "--deterministic") == 0) {
      deterministic = true;
    } else {
      return Usage();
    }
  }
  if (names.empty()) return Usage();
  if (!sim::IsKnownEngine(engine)) {
    std::fprintf(stderr, "unknown engine \"%s\" (batch|event)\n",
                 engine.c_str());
    return 2;
  }
  if (engine != "event" && (arrival != "none" || subchannels > 1)) {
    // The batch engine replays a private channel per query and would
    // silently ignore arrival timing / station sharding — refuse instead
    // of printing numbers that do not measure what the flags imply.
    std::fprintf(stderr,
                 "--arrival/--rate/--subchannels need --engine=event (the "
                 "batch engine has no shared station timeline)\n");
    return 2;
  }
  if (const Status combination = sim::CheckEngineCombination(
          engine, schedule, sessions > 1 || cache_bytes > 0);
      !combination.ok()) {
    std::fprintf(stderr, "%s\n", combination.ToString().c_str());
    return 2;
  }

  auto spec = graph::FindNetwork(argv[2]);
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return 1;
  }
  auto g = graph::MakeNetwork(*spec, scale);
  if (!g.ok()) {
    std::fprintf(stderr, "%s\n", g.status().ToString().c_str());
    return 1;
  }

  core::SystemParams params;
  params.nr_regions = regions;
  params.eb_regions = regions;
  params.arcflag_regions = regions;
  params.hiti_regions = regions;
  params.landmarks = landmarks;
  // Every system lives until the run ends, so EB's build reuses NR's
  // border pre-computation.
  std::vector<std::unique_ptr<core::AirSystem>> systems;
  std::vector<const core::AirSystem*> system_ptrs;
  for (const std::string& name : names) {
    auto sys = core::BuildSystem(*g, name, params);
    if (!sys.ok()) {
      std::fprintf(stderr, "%s\n", sys.status().ToString().c_str());
      return 1;
    }
    system_ptrs.push_back(sys->get());
    systems.push_back(std::move(sys).value());
  }

  workload::WorkloadSpec wspec;
  wspec.count = queries;
  wspec.seed = seed;
  if (zipf > 0.0) {
    wspec.dest = workload::WorkloadSpec::Dest::kZipf;
    wspec.zipf_s = zipf;
  }
  auto arrival_kind = workload::ParseArrivalKind(arrival);
  if (!arrival_kind.ok()) {
    std::fprintf(stderr, "%s\n", arrival_kind.status().ToString().c_str());
    return 2;
  }
  wspec.arrival.kind = *arrival_kind;
  wspec.arrival.rate_per_second = rate;
  auto w = workload::GenerateWorkload(*g, wspec);
  if (!w.ok()) {
    std::fprintf(stderr, "%s\n", w.status().ToString().c_str());
    return 1;
  }

  const broadcast::FecScheme fec = broadcast::FecScheme::OfRate(fec_rate);
  // Static disk planning weights content by the run's analytic destination
  // distribution (uniform demand plans the flat timeline).
  std::vector<double> schedule_demand;
  if (schedule.mode == sim::SchedulePolicy::Mode::kStatic) {
    schedule_demand = workload::DestinationWeights(g->num_nodes(), wspec);
  }
  sim::BatchResult batch;
  if (engine == "event") {
    sim::EventOptions eo;
    eo.threads = threads;
    eo.repeat = repeat;
    eo.loss = broadcast::LossModel::Of(loss, burst, corrupt);
    eo.fec = fec;
    eo.station_seed = seed;
    eo.subchannels = subchannels;
    eo.deterministic = deterministic;
    eo.schedule = schedule;
    eo.schedule_demand = schedule_demand;
    eo.encoding = params.build.encoding;
    eo.session.queries = sessions;
    eo.cache_bytes = static_cast<size_t>(cache_bytes);
    sim::EventEngine event_engine(*g, eo);
    batch = event_engine.Run(system_ptrs, *w);
  } else {
    sim::SimOptions so;
    so.threads = threads;
    so.repeat = repeat;
    so.loss = broadcast::LossModel::Of(loss, burst, corrupt);
    so.fec = fec;
    so.loss_seed = seed;
    so.deterministic = deterministic;
    so.schedule = schedule;
    so.schedule_demand = schedule_demand;
    so.encoding = params.build.encoding;
    sim::Simulator simulator(*g, so);
    batch = simulator.Run(system_ptrs, *w);
  }

  if (emit_json) {
    const std::string json = sim::ToJson(batch);
    if (json_path.empty()) {
      std::fputs(json.c_str(), stdout);
    } else {
      std::FILE* f = std::fopen(json_path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
        return 1;
      }
      std::fputs(json.c_str(), f);
      std::fclose(f);
      std::printf("wrote %s\n", json_path.c_str());
    }
  } else {
    std::printf("# %s at scale %.2f: %zu nodes, %zu arcs\n", argv[2], scale,
                g->num_nodes(), g->num_arcs());
    std::fputs(sim::ToText(batch).c_str(), stdout);
  }
  for (const auto& r : batch.systems) {
    if (r.aggregate.failures > 0) return 1;
  }
  return 0;
}

/// Reads a whole file into a string; nullopt (with a message) on failure.
bool ReadFile(const char* path, std::string* out) {
  std::FILE* f = std::fopen(path, "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return false;
  }
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out->append(buf, n);
  std::fclose(f);
  return true;
}

int ListScenarios() {
  std::printf("%-20s %-10s %7s %7s %7s  %s\n", "name", "network", "scale",
              "queries", "groups", "description");
  for (const sim::Scenario& s : sim::ScenarioCatalog()) {
    std::printf("%-20s %-10s %7.2f %7zu %7zu  %s\n", s.name.c_str(),
                s.network.c_str(), s.scale, s.total_queries,
                s.groups.size(), s.description.c_str());
  }
  std::printf("\ndevice profiles:\n");
  for (const device::ProfileSpec& p : device::ProfileCatalog()) {
    std::printf("  %-12s %s\n", std::string(p.name).c_str(),
                std::string(p.description).c_str());
  }
  return 0;
}

int RunScenario(int argc, char** argv) {
  bool list = false;
  std::string name;
  std::string file;
  unsigned threads = 0;
  unsigned repeat = 1;
  bool deterministic = false;
  bool emit_json = false;
  std::string json_path;
  std::string engine_override;
  double scale_override = 0.0;
  size_t queries_override = 0;
  sim::SchedulePolicy schedule_override;
  bool has_schedule_override = false;

  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--list") == 0) {
      list = true;
    } else if (std::strncmp(arg, "--engine=", 9) == 0) {
      engine_override = arg + 9;
    } else if (std::strncmp(arg, "--schedule=", 11) == 0) {
      if (!ParseScheduleFlag(arg + 11, &schedule_override)) return 2;
      has_schedule_override = true;
    } else if (std::strncmp(arg, "--name=", 7) == 0) {
      name = arg + 7;
    } else if (std::strncmp(arg, "--file=", 7) == 0) {
      file = arg + 7;
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      uint64_t u = 0;
      if (!ParseUintFlag(arg, 10, &u, UINT_MAX)) return Usage();
      threads = static_cast<unsigned>(u);
    } else if (std::strncmp(arg, "--repeat=", 9) == 0) {
      uint64_t u = 0;
      if (!ParseUintFlag(arg, 9, &u, UINT_MAX)) return Usage();
      repeat = u > 1 ? static_cast<unsigned>(u) : 1;
    } else if (std::strncmp(arg, "--scale=", 8) == 0) {
      if (!ParseDoubleFlag(arg, 8, &scale_override)) return Usage();
    } else if (std::strncmp(arg, "--queries=", 10) == 0) {
      uint64_t u = 0;
      if (!ParseUintFlag(arg, 10, &u)) return Usage();
      queries_override = static_cast<size_t>(u);
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      emit_json = true;
      json_path = arg + 7;
    } else if (std::strcmp(arg, "--json") == 0) {
      emit_json = true;
    } else if (std::strcmp(arg, "--deterministic") == 0) {
      deterministic = true;
    } else {
      return Usage();
    }
  }
  if (list) return ListScenarios();
  if (name.empty() == file.empty()) return Usage();  // exactly one source

  sim::Scenario scenario;
  if (!name.empty()) {
    auto found = sim::FindScenario(name);
    if (!found.ok()) {
      std::fprintf(stderr, "%s\n", found.status().ToString().c_str());
      return 1;
    }
    scenario = std::move(found).value();
  } else {
    std::string text;
    if (!ReadFile(file.c_str(), &text)) return 1;
    auto parsed = sim::ScenarioFromJson(text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
      return 1;
    }
    scenario = std::move(parsed).value();
  }
  if (has_schedule_override) scenario.schedule = schedule_override;
  if (scale_override > 0.0) scenario.scale = scale_override;
  if (queries_override > 0) {
    // Rescale the fleet: explicit group counts become weights so the
    // override budget splits in the spec's proportions.
    for (auto& g : scenario.groups) {
      if (g.queries > 0) {
        g.weight = static_cast<double>(g.queries);
        g.queries = 0;
      }
    }
    scenario.total_queries = queries_override;
  }

  sim::ScenarioRunner::RunOptions ro;
  ro.threads = threads;
  ro.repeat = repeat;
  ro.deterministic = deterministic;
  ro.engine = engine_override;
  auto result = sim::ScenarioRunner(ro).Run(scenario);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }

  if (emit_json) {
    const std::string json = sim::ScenarioReportToJson(*result);
    if (json_path.empty()) {
      std::fputs(json.c_str(), stdout);
    } else {
      std::FILE* f = std::fopen(json_path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
        return 1;
      }
      std::fputs(json.c_str(), f);
      std::fclose(f);
      std::printf("wrote %s\n", json_path.c_str());
    }
  } else {
    std::fputs(sim::ScenarioToText(*result).c_str(), stdout);
  }
  // Query failures are scenario data (harsh channels make some methods
  // drop queries — the report records them); only a wholesale breakdown
  // of a system, or a runner error, is an unhealthy exit.
  for (const auto& fleet : result->fleet) {
    if (fleet.aggregate.failures > 0) {
      std::fprintf(stderr, "note: %s failed %zu/%zu queries\n",
                   fleet.system.c_str(), fleet.aggregate.failures,
                   fleet.aggregate.queries);
    }
    if (fleet.aggregate.queries > 0 &&
        fleet.aggregate.failures == fleet.aggregate.queries) {
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  if (std::strcmp(argv[1], "--help") == 0 || std::strcmp(argv[1], "-h") == 0 ||
      std::strcmp(argv[1], "help") == 0) {
    PrintUsage(stdout);
    return 0;
  }
  if (std::strcmp(argv[1], "generate") == 0) return Generate(argc, argv);
  if (std::strcmp(argv[1], "gen") == 0) return Gen(argc, argv);
  if (std::strcmp(argv[1], "inspect") == 0) return Inspect(argc, argv);
  if (std::strcmp(argv[1], "query") == 0) return Query(argc, argv);
  if (std::strcmp(argv[1], "run") == 0) return Run(argc, argv);
  if (std::strcmp(argv[1], "scenario") == 0) return RunScenario(argc, argv);
  return Usage();
}
