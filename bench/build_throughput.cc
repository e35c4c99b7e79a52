// Build-pipeline throughput sweep: how fast can the server side go from
// nothing to a broadcast-ready cycle at continental scale?
//
// For each generated network size the sweep measures
//   * the synthetic generator itself (nodes/s),
//   * the border pre-computation, serial vs work-stealing (nodes/s and the
//     parallel speedup, the evidence for the >=1.5x-at-4-threads claim),
//   * each requested method's full build (nodes/s, cycle bytes/node),
//   * the network-data footprint under both cycle encodings (the compact
//     varint/delta encoding's bytes/node next to the legacy fixed-width
//     one).
//
// Results print as a table on stdout.
//
//   build_throughput [--sizes=10000,100000] [--methods=DJ,NR]
//       [--regions=32] [--gen-threads=0] [--precompute-threads=4]
//       [--repeat=1] [--serial-max=200000]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "broadcast/serialization.h"
#include "common/flags.h"
#include "core/border_precompute.h"
#include "core/systems.h"
#include "graph/generator.h"
#include "graph/graph.h"
#include "partition/kd_tree.h"

using namespace airindex;  // NOLINT: experiment binary

namespace {

struct Options {
  std::vector<uint32_t> sizes = {10000, 100000};
  std::vector<std::string> methods = {"DJ", "NR"};
  uint32_t regions = 32;
  unsigned gen_threads = 0;
  unsigned precompute_threads = 4;
  unsigned repeat = 1;
  /// Sizes above this skip the serial precompute baseline (and therefore
  /// the speedup column): at 1e6 nodes the serial pass alone runs for the
  /// better part of an hour, which only the work-stealing path needs to
  /// prove it can cover.
  uint32_t serial_max = 200000;
};

[[noreturn]] void UsageExit() {
  std::fprintf(stderr,
               "usage: build_throughput [--sizes=N,N,...] "
               "[--methods=DJ,NR,...]\n"
               "  [--regions=N] [--gen-threads=N] [--precompute-threads=N]\n"
               "  [--repeat=N] [--serial-max=N]\n");
  std::exit(2);
}

/// Strict unsigned parse of a --flag=value argument that must fit in 32
/// bits; a malformed value names the flag and exits with usage.
uint32_t ParseUint32Flag(const char* arg, size_t prefix) {
  uint64_t v = 0;
  if (!ParseUint(std::string_view(arg, prefix - 1), arg + prefix, &v,
                 0xFFFFFFFFull)) {
    UsageExit();
  }
  return static_cast<uint32_t>(v);
}

std::vector<std::string> SplitCsv(const char* csv) {
  std::vector<std::string> out;
  std::string current;
  for (const char* p = csv; *p != '\0'; ++p) {
    if (*p == ',') {
      if (!current.empty()) out.push_back(current);
      current.clear();
    } else {
      current += *p;
    }
  }
  if (!current.empty()) out.push_back(current);
  return out;
}

Options Parse(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--sizes=", 8) == 0) {
      opts.sizes.clear();
      for (const std::string& s : SplitCsv(arg + 8)) {
        uint64_t v = 0;
        if (!ParseUint("--sizes", s.c_str(), &v, 0xFFFFFFFFull) || v < 2) {
          UsageExit();
        }
        opts.sizes.push_back(static_cast<uint32_t>(v));
      }
      if (opts.sizes.empty()) UsageExit();
    } else if (std::strncmp(arg, "--methods=", 10) == 0) {
      opts.methods = SplitCsv(arg + 10);
      if (opts.methods.empty()) UsageExit();
    } else if (std::strncmp(arg, "--regions=", 10) == 0) {
      opts.regions = ParseUint32Flag(arg, 10);
    } else if (std::strncmp(arg, "--gen-threads=", 14) == 0) {
      opts.gen_threads = ParseUint32Flag(arg, 14);
    } else if (std::strncmp(arg, "--precompute-threads=", 21) == 0) {
      opts.precompute_threads = ParseUint32Flag(arg, 21);
    } else if (std::strncmp(arg, "--repeat=", 9) == 0) {
      opts.repeat = std::max(ParseUint32Flag(arg, 9), 1u);
    } else if (std::strncmp(arg, "--serial-max=", 13) == 0) {
      opts.serial_max = ParseUint32Flag(arg, 13);
    } else {
      std::fprintf(stderr, "unknown flag \"%s\"\n", arg);
      UsageExit();
    }
  }
  return opts;
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Peak resident set size in bytes (VmHWM) of the whole sweep, 0 where
/// /proc is unavailable.
uint64_t PeakRssBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10) * 1024;
    }
  }
  return 0;
}

/// Minimum wall time of `repeat` runs of `fn` (min-of-N: noise only ever
/// slows a run down).
template <typename Fn>
double MinSeconds(unsigned repeat, Fn&& fn) {
  double best = -1.0;
  for (unsigned r = 0; r < repeat; ++r) {
    const double t0 = Now();
    fn();
    const double dt = Now() - t0;
    if (best < 0.0 || dt < best) best = dt;
  }
  return best;
}

/// One table row; a negative `seconds` or `bytes_per_node` prints "-".
void PrintRow(const std::string& name, uint64_t nodes, double seconds,
              double bytes_per_node, const std::string& note = "") {
  char sec[16] = "-";
  char rate[16] = "-";
  char bytes[16] = "-";
  if (seconds >= 0.0) {
    std::snprintf(sec, sizeof(sec), "%.3f", seconds);
    std::snprintf(rate, sizeof(rate), "%.0f",
                  static_cast<double>(nodes) / seconds);
  }
  if (bytes_per_node >= 0.0) {
    std::snprintf(bytes, sizeof(bytes), "%.1f", bytes_per_node);
  }
  std::printf("%-28s %10llu %10s %12s %12s%s\n", name.c_str(),
              static_cast<unsigned long long>(nodes), sec, rate, bytes,
              note.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = Parse(argc, argv);

  std::printf("# build-pipeline throughput (precompute-threads=%u, "
              "repeat=%u)\n",
              opts.precompute_threads, opts.repeat);
  std::printf("%-28s %10s %10s %12s %12s\n", "stage", "nodes", "sec",
              "nodes/s", "bytes/node");

  for (uint32_t n : opts.sizes) {
    std::string suffix = "/";
    suffix += std::to_string(n);
    graph::GenSpec spec;
    spec.num_nodes = n;
    spec.seed = 1;
    spec.threads = opts.gen_threads;

    graph::Graph g;
    const double gen_seconds = MinSeconds(opts.repeat, [&] {
      auto built = graph::GenerateRoadNetwork(spec);
      if (!built.ok()) {
        std::fprintf(stderr, "%s\n", built.status().ToString().c_str());
        std::exit(1);
      }
      g = std::move(built).value();
    });
    const uint64_t nodes = g.num_nodes();
    PrintRow("gen" + suffix, nodes, gen_seconds, -1.0);

    // Network-data footprint under both encodings (server-side sizing
    // only; no cycle build needed).
    const double legacy =
        static_cast<double>(broadcast::NetworkDataBytes(
            g, broadcast::CycleEncoding::kLegacy)) /
        static_cast<double>(nodes);
    const double compact =
        static_cast<double>(broadcast::NetworkDataBytes(
            g, broadcast::CycleEncoding::kCompact)) /
        static_cast<double>(nodes);
    PrintRow("network_bytes_legacy" + suffix, nodes, -1.0, legacy);
    char note[64];
    std::snprintf(note, sizeof(note), "  (%.1f%% of legacy)",
                  100.0 * compact / legacy);
    PrintRow("network_bytes_compact" + suffix, nodes, -1.0, compact, note);

    // Border pre-computation: serial baseline vs the work-stealing pool.
    // The outputs are byte-identical (pinned by test); only the wall time
    // may differ.
    {
      auto kd = partition::KdTreePartitioner::Build(g, opts.regions).value();
      const partition::Partitioning part = kd.Partition(g);
      double serial_seconds = -1.0;
      if (n <= opts.serial_max) {
        serial_seconds = MinSeconds(opts.repeat, [&] {
          auto pre =
              core::ComputeBorderPrecompute(g, part, /*num_threads=*/1);
          if (!pre.ok()) std::exit(1);
        });
        PrintRow("precompute_serial" + suffix, nodes, serial_seconds, -1.0);
      }
      const double par_seconds = MinSeconds(opts.repeat, [&] {
        auto pre =
            core::ComputeBorderPrecompute(g, part, opts.precompute_threads);
        if (!pre.ok()) std::exit(1);
      });
      note[0] = '\0';
      if (serial_seconds >= 0.0) {
        std::snprintf(note, sizeof(note), "  (%.2fx serial)",
                      serial_seconds / par_seconds);
      }
      PrintRow("precompute_parallel" + suffix, nodes, par_seconds, -1.0,
               note);
    }

    // Full system builds (legacy encoding — the reproduction path).
    core::SystemParams params;
    params.nr_regions = opts.regions;
    params.eb_regions = opts.regions;
    params.arcflag_regions = opts.regions;
    params.hiti_regions = opts.regions;
    params.build.precompute_threads = opts.precompute_threads;
    for (const std::string& method : opts.methods) {
      std::unique_ptr<core::AirSystem> sys;
      const double seconds = MinSeconds(opts.repeat, [&] {
        auto built = core::BuildSystem(g, method, params);
        if (!built.ok()) {
          std::fprintf(stderr, "%s\n", built.status().ToString().c_str());
          std::exit(1);
        }
        sys = std::move(built).value();
      });
      PrintRow(method + suffix, nodes, seconds,
               static_cast<double>(sys->cycle().TotalPayloadBytes()) /
                   static_cast<double>(nodes));
    }
  }

  std::printf("# peak RSS: %.1f MB\n", PeakRssBytes() / (1024.0 * 1024.0));
  return 0;
}
