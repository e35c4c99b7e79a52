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
//
//   airindex_cli paper <experiment>... | all [flags]
//       Reproduce the paper's tables, figures and ablations (tools/paper.h
//       holds the table of experiments).
//
// The flag-taking commands (gen, run, scenario, paper) read their flags
// from one table, kFlags; each command lists the entries it accepts.

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
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
#include "paper.h"

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
               "      (--threads=0 uses every available CPU; --burst=N groups "
               "losses into\n"
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
               "      override the spec's engine/schedule fields.\n"
               "  airindex_cli paper <experiment>... | all [--scale=F] "
               "[--queries=N]\n"
               "      [--seed=N] [--loss=F] [--burst=N] [--corrupt=F] "
               "[--threads=N]\n"
               "      [--repeat=N]\n"
               "      Reproduce the paper's results; experiments: table1 "
               "table2 table3\n"
               "      fig10 fig11 fig12 fig13 fig14 ablation-crossborder\n"
               "      ablation-partitioning (defaults --scale=0.2 "
               "--queries=100\n"
               "      --threads=1; --scale=1 --queries=400 is the paper's "
               "setting).\n");
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
    // A ladder whose macro cycle cannot compile would run flat while the
    // report says "static".
    auto compiles = [&]() {
      const auto cycles = broadcast::MacroMinorCycles(
          broadcast::SpinLadder(out->disks, out->rates));
      if (cycles.ok()) return true;
      std::fprintf(stderr, "invalid --schedule value \"%s\": %s\n", value,
                   cycles.status().message().c_str());
      return false;
    };
    const char* rest = value + 5;
    if (*rest == '\0') return true;
    if (*rest != ':') return fail();
    ++rest;
    char* end = nullptr;
    unsigned long k = 0;
    if (!number(rest, &end, &k) || k < 1 || k > 16) return fail();
    out->disks = static_cast<uint32_t>(k);
    if (*end == '\0') return compiles();
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
    return compiles();
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

/// Splits a comma-separated --systems= value into views of `csv`.
std::vector<std::string_view> SplitNames(std::string_view csv) {
  std::vector<std::string_view> names;
  while (!csv.empty()) {
    const size_t comma = std::min(csv.find(','), csv.size());
    if (comma > 0) names.push_back(csv.substr(0, comma));
    csv.remove_prefix(std::min(comma + 1, csv.size()));
  }
  return names;
}

/// Every value the flag-taking commands read. The initializers are `run`'s
/// defaults; the other commands set the ones they differ in before
/// parsing.
struct Flags {
  double scale = 0.2;
  size_t queries = 100;
  uint64_t seed = 20100913;
  double loss = 0.0;
  uint32_t burst = 1;
  double corrupt = 0.0;
  unsigned threads = 0;  // every available CPU: the engine's reason to exist
  unsigned repeat = 1;
  bool json = false;
  std::string json_path;  // empty: the JSON document goes to stdout
  bool deterministic = false;
  std::string engine = "batch";
  sim::SchedulePolicy schedule;
  bool has_schedule = false;
  // run
  double fec_rate = 0.0;
  uint32_t regions = 32;
  uint32_t landmarks = 4;
  std::vector<std::string_view> systems{core::kMainSystems.begin(),
                                        core::kMainSystems.end()};
  std::string arrival = "none";
  double rate = 50.0;
  uint32_t subchannels = 1;
  double zipf = 0.0;
  uint32_t sessions = 1;
  uint64_t cache_bytes = 0;
  // scenario
  bool list = false;
  std::string name;
  std::string file;
  // gen
  uint32_t nodes = 0;
  uint32_t levels = graph::GenSpec{}.highway_levels;
  double jitter = graph::GenSpec{}.weight_jitter;
  std::string out;
};

using Name = std::string_view;
using Value = const char*;

/// How one flag parsed. kBadValue: the value did not parse and the parser
/// printed `invalid value for NAME: "VALUE"`. kFatal: the value parsed but
/// is out of the flag's range, and the reason is printed.
enum class Parsed { kOk, kBadValue, kFatal };

struct Flag {
  std::string_view name;
  /// kSwitch takes the bare name, kValue only NAME=VALUE, kOptional both.
  enum Form { kSwitch, kValue, kOptional } form;
  /// A bad value exits 2 without the usage text, even in a command that
  /// prints it.
  bool quiet;
  /// `value` is the text after '=', null for a bare name.
  Parsed (*parse)(Name name, Value value, Flags* f);
};

Parsed Double(Name name, Value value, double* out) {
  return ParseDouble(name, value, out) ? Parsed::kOk : Parsed::kBadValue;
}

/// Strict unsigned parse into a T; a value past T is rejected by name
/// instead of wrapping in the cast.
template <typename T>
Parsed Uint(Name name, Value value, T* out) {
  uint64_t u = 0;
  if (!ParseUint(name, value, &u, std::numeric_limits<T>::max())) {
    return Parsed::kBadValue;
  }
  *out = static_cast<T>(u);
  return Parsed::kOk;
}

/// A count where 0 and 1 both mean "once".
template <typename T>
Parsed AtLeastOne(Name name, Value value, T* out) {
  const Parsed p = Uint(name, value, out);
  if (*out < 1) *out = 1;
  return p;
}

/// kOk when the parsed value is in range, else prints `reason`.
Parsed InRange(bool in_range, const char* reason) {
  if (in_range) return Parsed::kOk;
  std::fprintf(stderr, "%s\n", reason);
  return Parsed::kFatal;
}

Parsed Text(Value value, std::string* out) {
  *out = value;
  return Parsed::kOk;
}

Parsed Set(bool* out) {
  *out = true;
  return Parsed::kOk;
}

/// The one flag table of the CLI.
constexpr Flag kFlags[] = {
    {"--scale", Flag::kValue, false,
     [](Name n, Value v, Flags* f) { return Double(n, v, &f->scale); }},
    {"--queries", Flag::kValue, false,
     [](Name n, Value v, Flags* f) { return Uint(n, v, &f->queries); }},
    {"--seed", Flag::kValue, false,
     [](Name n, Value v, Flags* f) { return Uint(n, v, &f->seed); }},
    {"--loss", Flag::kValue, false,
     [](Name n, Value v, Flags* f) { return Double(n, v, &f->loss); }},
    {"--burst", Flag::kValue, false,
     [](Name n, Value v, Flags* f) { return AtLeastOne(n, v, &f->burst); }},
    {"--corrupt", Flag::kValue, false,
     [](Name n, Value v, Flags* f) {
       if (Double(n, v, &f->corrupt) != Parsed::kOk) return Parsed::kBadValue;
       return InRange(f->corrupt >= 0.0 && f->corrupt < 1.0,
                      "--corrupt must be in [0, 1)");
     }},
    {"--threads", Flag::kValue, false,
     [](Name n, Value v, Flags* f) { return Uint(n, v, &f->threads); }},
    {"--repeat", Flag::kValue, false,
     [](Name n, Value v, Flags* f) { return AtLeastOne(n, v, &f->repeat); }},
    {"--json", Flag::kOptional, false,
     [](Name, Value v, Flags* f) {
       f->json = true;
       return Text(v != nullptr ? v : "", &f->json_path);
     }},
    {"--deterministic", Flag::kSwitch, false,
     [](Name, Value, Flags* f) { return Set(&f->deterministic); }},
    {"--engine", Flag::kValue, false,
     [](Name, Value v, Flags* f) { return Text(v, &f->engine); }},
    {"--schedule", Flag::kValue, true,
     [](Name, Value v, Flags* f) {
       if (!ParseScheduleFlag(v, &f->schedule)) return Parsed::kBadValue;
       return Set(&f->has_schedule);
     }},
    {"--fec-rate", Flag::kValue, false,
     [](Name n, Value v, Flags* f) {
       if (Double(n, v, &f->fec_rate) != Parsed::kOk) return Parsed::kBadValue;
       return InRange(f->fec_rate >= 0.0 && f->fec_rate <= 1.0,
                      "--fec-rate must be in [0, 1]");
     }},
    {"--regions", Flag::kValue, false,
     [](Name n, Value v, Flags* f) { return Uint(n, v, &f->regions); }},
    {"--landmarks", Flag::kValue, false,
     [](Name n, Value v, Flags* f) { return Uint(n, v, &f->landmarks); }},
    {"--systems", Flag::kValue, false,
     [](Name, Value v, Flags* f) {
       f->systems = SplitNames(v);
       return Parsed::kOk;
     }},
    {"--arrival", Flag::kValue, false,
     [](Name, Value v, Flags* f) { return Text(v, &f->arrival); }},
    {"--rate", Flag::kValue, false,
     [](Name n, Value v, Flags* f) { return Double(n, v, &f->rate); }},
    {"--subchannels", Flag::kValue, false,
     [](Name n, Value v, Flags* f) {
       if (Uint(n, v, &f->subchannels) != Parsed::kOk) return Parsed::kBadValue;
       return InRange(f->subchannels >= 1, "--subchannels must be >= 1");
     }},
    {"--zipf", Flag::kValue, false,
     [](Name n, Value v, Flags* f) {
       if (Double(n, v, &f->zipf) != Parsed::kOk) return Parsed::kBadValue;
       return InRange(f->zipf >= 0.0, "--zipf must be >= 0");
     }},
    {"--sessions", Flag::kValue, true,
     [](Name n, Value v, Flags* f) {
       if (Uint(n, v, &f->sessions) != Parsed::kOk) return Parsed::kBadValue;
       return InRange(f->sessions >= 1, "--sessions must be >= 1");
     }},
    {"--cache-bytes", Flag::kValue, true,
     [](Name n, Value v, Flags* f) { return Uint(n, v, &f->cache_bytes); }},
    {"--list", Flag::kSwitch, false,
     [](Name, Value, Flags* f) { return Set(&f->list); }},
    {"--name", Flag::kValue, false,
     [](Name, Value v, Flags* f) { return Text(v, &f->name); }},
    {"--file", Flag::kValue, false,
     [](Name, Value v, Flags* f) { return Text(v, &f->file); }},
    {"--nodes", Flag::kValue, false,
     [](Name n, Value v, Flags* f) {
       uint64_t u = 0;
       if (Uint(n, v, &u) != Parsed::kOk) return Parsed::kBadValue;
       f->nodes = static_cast<uint32_t>(u);
       return InRange(u >= 2 && u <= 0xFFFFFFFFull,
                      "--nodes must be in [2, 2^32)");
     }},
    {"--levels", Flag::kValue, false,
     [](Name n, Value v, Flags* f) { return Uint(n, v, &f->levels); }},
    {"--jitter", Flag::kValue, false,
     [](Name n, Value v, Flags* f) { return Double(n, v, &f->jitter); }},
    {"--out", Flag::kValue, false,
     [](Name, Value v, Flags* f) { return Text(v, &f->out); }},
};

/// The kFlags entries one command accepts, and how it reports a bad one.
struct CommandFlags {
  std::span<const std::string_view> accepted;
  /// A bad value or an unknown flag prints the usage text (exit 2). Off
  /// (gen): a bad value exits 2 after its own message, and an unknown flag
  /// is named.
  bool usage_on_error;
};

constexpr std::string_view kGenFlags[] = {
    "--nodes", "--seed", "--levels", "--jitter", "--threads", "--out"};
constexpr std::string_view kRunFlags[] = {
    "--scale", "--queries", "--seed", "--loss", "--burst", "--corrupt",
    "--fec-rate", "--threads", "--repeat", "--regions", "--landmarks",
    "--systems", "--engine", "--arrival", "--rate", "--subchannels",
    "--zipf", "--sessions", "--cache-bytes", "--schedule", "--json",
    "--deterministic"};
constexpr std::string_view kScenarioFlags[] = {
    "--list", "--engine", "--schedule", "--name", "--file", "--threads",
    "--repeat", "--scale", "--queries", "--json", "--deterministic"};
/// `run`'s loss and workload flags; no system or engine knob, since each
/// experiment fixes its own.
constexpr std::string_view kPaperFlags[] = {
    "--scale", "--queries", "--seed", "--loss",
    "--burst", "--corrupt", "--threads", "--repeat"};

/// The kFlags entry `arg` names (bare or with "=value") among `accepted`;
/// `value` is set to the text after '=', or null.
const Flag* MatchFlag(std::string_view arg,
                      std::span<const std::string_view> accepted,
                      const char** value) {
  for (const Flag& flag : kFlags) {
    if (!arg.starts_with(flag.name) ||
        std::find(accepted.begin(), accepted.end(), flag.name) ==
            accepted.end()) {
      continue;
    }
    const std::string_view rest = arg.substr(flag.name.size());
    if (rest.empty() && flag.form != Flag::kValue) {
      *value = nullptr;
      return &flag;
    }
    if (rest.starts_with('=') && flag.form != Flag::kSwitch) {
      *value = arg.data() + flag.name.size() + 1;
      return &flag;
    }
  }
  return nullptr;
}

/// Parses argv[first..argc) into `f`. Returns -1 when every argument
/// parsed, else the exit code.
int ParseFlags(int argc, char** argv, int first, const CommandFlags& command,
               Flags* f) {
  for (int i = first; i < argc; ++i) {
    const char* value = nullptr;
    const Flag* flag = MatchFlag(argv[i], command.accepted, &value);
    if (flag == nullptr) {
      if (command.usage_on_error) return Usage();
      std::fprintf(stderr, "unknown flag \"%s\"\n", argv[i]);
      return 2;
    }
    switch (flag->parse(flag->name, value, f)) {
      case Parsed::kOk:
        break;
      case Parsed::kBadValue:
        return command.usage_on_error && !flag->quiet ? Usage() : 2;
      case Parsed::kFatal:
        return 2;
    }
  }
  return -1;
}

/// Writes a JSON report to --json=FILE, or to stdout for a bare --json.
int EmitJson(const Flags& f, const std::string& json) {
  if (f.json_path.empty()) {
    std::fputs(json.c_str(), stdout);
    return 0;
  }
  std::FILE* out = std::fopen(f.json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", f.json_path.c_str());
    return 1;
  }
  std::fputs(json.c_str(), out);
  std::fclose(out);
  std::printf("wrote %s\n", f.json_path.c_str());
  return 0;
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
    const graph::Graph& g, std::string_view method, uint32_t regions,
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
  Flags f;
  f.seed = graph::GenSpec{}.seed;
  f.threads = graph::GenSpec{}.threads;
  if (const int rc = ParseFlags(argc, argv, 2, {kGenFlags, false}, &f);
      rc >= 0) {
    return rc;
  }
  if (f.nodes == 0 || f.out.empty()) {
    std::fprintf(stderr, "gen requires --nodes= and --out=\n");
    return 2;
  }
  graph::GenSpec spec;
  spec.num_nodes = f.nodes;
  spec.seed = f.seed;
  spec.highway_levels = f.levels;
  spec.weight_jitter = f.jitter;
  spec.threads = f.threads;
  auto g = graph::GenerateRoadNetwork(spec);
  if (!g.ok()) {
    std::fprintf(stderr, "%s\n", g.status().ToString().c_str());
    return 1;
  }
  const std::string gr = f.out + ".gr";
  const std::string co = f.out + ".co";
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
    for (std::string_view m : core::kAllSystems) {
      auto sys = BuildMethod(*g, m, regions, encoding);
      if (!sys.ok()) {
        std::fprintf(stderr, "%s\n", sys.status().ToString().c_str());
        return 1;
      }
      const CycleBytes b = CycleBytesOf((*sys)->cycle());
      std::printf("%-5.*s %9zu %12zu %9zu %12zu %12zu\n",
                  static_cast<int>(m.size()), m.data(),
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
    bool audit_flat = false;
    broadcast::ScheduleSpec sspec =
        sim::PlanStaticSpec(cycle, demand, schedule, &audit_flat);
    if (sspec.flat()) {
      std::printf("schedule: planner collapsed to the flat cycle (%s %u "
                  "disks)\n",
                  audit_flat ? "no plan shortens the wait for an index on"
                             : "demand too even for",
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

int Run(int argc, char** argv) {
  if (argc < 3) return Usage();
  Flags f;
  if (const int rc = ParseFlags(argc, argv, 3, {kRunFlags, true}, &f);
      rc >= 0) {
    return rc;
  }
  if (f.systems.empty()) return Usage();
  if (!sim::IsKnownEngine(f.engine)) {
    std::fprintf(stderr, "unknown engine \"%s\" (batch|event)\n",
                 f.engine.c_str());
    return 2;
  }
  if (f.engine != "event" && (f.arrival != "none" || f.subchannels > 1)) {
    // The batch engine replays a private channel per query and would
    // silently ignore arrival timing / station sharding — refuse instead
    // of printing numbers that do not measure what the flags imply.
    std::fprintf(stderr,
                 "--arrival/--rate/--subchannels need --engine=event (the "
                 "batch engine has no shared station timeline)\n");
    return 2;
  }
  if (const Status combination = sim::CheckEngineCombination(
          f.engine, f.schedule, f.sessions > 1 || f.cache_bytes > 0);
      !combination.ok()) {
    std::fprintf(stderr, "%s\n", combination.ToString().c_str());
    return 2;
  }

  auto spec = graph::FindNetwork(argv[2]);
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return 1;
  }
  auto g = graph::MakeNetwork(*spec, f.scale);
  if (!g.ok()) {
    std::fprintf(stderr, "%s\n", g.status().ToString().c_str());
    return 1;
  }

  core::SystemParams params;
  params.nr_regions = f.regions;
  params.eb_regions = f.regions;
  params.arcflag_regions = f.regions;
  params.hiti_regions = f.regions;
  params.landmarks = f.landmarks;
  auto systems = core::BuildSystems(*g, f.systems, params);
  if (!systems.ok()) {
    std::fprintf(stderr, "%s\n", systems.status().ToString().c_str());
    return 1;
  }
  std::vector<const core::AirSystem*> system_ptrs;
  for (const auto& sys : *systems) system_ptrs.push_back(sys.get());

  workload::WorkloadSpec wspec;
  wspec.count = f.queries;
  wspec.seed = f.seed;
  if (f.zipf > 0.0) {
    wspec.dest = workload::WorkloadSpec::Dest::kZipf;
    wspec.zipf_s = f.zipf;
  }
  auto arrival_kind = workload::ParseArrivalKind(f.arrival);
  if (!arrival_kind.ok()) {
    std::fprintf(stderr, "%s\n", arrival_kind.status().ToString().c_str());
    return 2;
  }
  wspec.arrival.kind = *arrival_kind;
  wspec.arrival.rate_per_second = f.rate;
  auto w = workload::GenerateWorkload(*g, wspec);
  if (!w.ok()) {
    std::fprintf(stderr, "%s\n", w.status().ToString().c_str());
    return 1;
  }

  sim::EngineOptions base;
  base.threads = f.threads;
  base.repeat = f.repeat;
  base.loss = broadcast::LossModel::Of(f.loss, f.burst, f.corrupt);
  base.fec = broadcast::FecScheme::OfRate(f.fec_rate);
  base.deterministic = f.deterministic;
  base.schedule = f.schedule;
  // Static disk planning weights content by the run's analytic destination
  // distribution (uniform demand plans the flat timeline).
  if (f.schedule.mode == sim::SchedulePolicy::Mode::kStatic) {
    base.schedule_demand = workload::DestinationWeights(g->num_nodes(), wspec);
  }
  sim::BatchResult batch;
  if (f.engine == "event") {
    sim::EventOptions eo(std::move(base));
    eo.station_seed = f.seed;
    eo.subchannels = f.subchannels;
    eo.session.queries = f.sessions;
    eo.cache_bytes = static_cast<size_t>(f.cache_bytes);
    batch = sim::EventEngine(*g, std::move(eo)).Run(system_ptrs, *w);
  } else {
    sim::SimOptions so(std::move(base));
    so.loss_seed = f.seed;
    batch = sim::Simulator(*g, std::move(so)).Run(system_ptrs, *w);
  }

  if (f.json) {
    if (EmitJson(f, sim::ToJson(batch)) != 0) return 1;
  } else {
    std::printf("# %s at scale %.2f: %zu nodes, %zu arcs\n", argv[2],
                f.scale, g->num_nodes(), g->num_arcs());
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
  // --scale and --queries override the spec only when given.
  Flags f;
  f.scale = 0.0;
  f.queries = 0;
  f.engine.clear();
  if (const int rc = ParseFlags(argc, argv, 2, {kScenarioFlags, true}, &f);
      rc >= 0) {
    return rc;
  }
  if (f.list) return ListScenarios();
  if (f.name.empty() == f.file.empty()) return Usage();  // exactly one source

  sim::Scenario scenario;
  if (!f.name.empty()) {
    auto found = sim::FindScenario(f.name);
    if (!found.ok()) {
      std::fprintf(stderr, "%s\n", found.status().ToString().c_str());
      return 1;
    }
    scenario = std::move(found).value();
  } else {
    std::string text;
    if (!ReadFile(f.file.c_str(), &text)) return 1;
    auto parsed = sim::ScenarioFromJson(text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
      return 1;
    }
    scenario = std::move(parsed).value();
  }
  if (f.has_schedule) scenario.schedule = f.schedule;
  if (f.scale > 0.0) scenario.scale = f.scale;
  if (f.queries > 0) {
    // Rescale the fleet: explicit group counts become weights so the
    // override budget splits in the spec's proportions.
    for (auto& g : scenario.groups) {
      if (g.queries > 0) {
        g.weight = static_cast<double>(g.queries);
        g.queries = 0;
      }
    }
    scenario.total_queries = f.queries;
  }

  sim::ScenarioRunner::RunOptions ro;
  ro.threads = f.threads;
  ro.repeat = f.repeat;
  ro.deterministic = f.deterministic;
  ro.engine = f.engine;
  auto result = sim::ScenarioRunner(ro).Run(scenario);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }

  if (f.json) {
    if (EmitJson(f, sim::ScenarioReportToJson(*result)) != 0) return 1;
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

int Paper(int argc, char** argv) {
  std::vector<const paper::Experiment*> chosen;
  int i = 2;
  for (; i < argc && std::strncmp(argv[i], "--", 2) != 0; ++i) {
    if (std::strcmp(argv[i], "all") == 0) {
      for (const paper::Experiment& e : paper::Experiments()) {
        chosen.push_back(&e);
      }
    } else if (const paper::Experiment* e = paper::FindExperiment(argv[i])) {
      chosen.push_back(e);
    } else {
      std::fprintf(stderr, "unknown experiment \"%s\" (", argv[i]);
      for (const paper::Experiment& known : paper::Experiments()) {
        std::fprintf(stderr, "%.*s | ", static_cast<int>(known.name.size()),
                     known.name.data());
      }
      std::fprintf(stderr, "all)\n");
      return 2;
    }
  }
  if (chosen.empty()) return Usage();
  Flags f;
  f.threads = 1;
  if (const int rc = ParseFlags(argc, argv, i, {kPaperFlags, true}, &f);
      rc >= 0) {
    return rc;
  }
  paper::Options o;
  o.scale = f.scale;
  o.queries = f.queries;
  o.seed = f.seed;
  o.loss = f.loss;
  o.burst = f.burst;
  o.corrupt = f.corrupt;
  o.threads = f.threads;
  o.repeat = f.repeat;
  for (const paper::Experiment* e : chosen) {
    if (const Status st = paper::Run(*e, o); !st.ok()) {
      std::fflush(stdout);
      std::fprintf(stderr, "%.*s: %s\n", static_cast<int>(e->name.size()),
                   e->name.data(), st.ToString().c_str());
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
  if (std::strcmp(argv[1], "paper") == 0) return Paper(argc, argv);
  return Usage();
}
