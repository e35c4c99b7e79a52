#ifndef AIRINDEX_BENCH_COMMON_OPTIONS_H_
#define AIRINDEX_BENCH_COMMON_OPTIONS_H_

#include <cstdint>
#include <string>

#include "broadcast/channel.h"

namespace airindex::bench {

/// Command-line options shared by every experiment binary.
///
/// The default `scale` shrinks the paper's networks (same topology style and
/// edge/node ratio) so the whole suite runs in minutes; pass --full (or
/// --scale=1) to reproduce at paper scale. The device heap is scaled with
/// the network (ScaledHeapBytes: the paper's 8 MB heap times `scale`) so
/// Table-2-style applicability keeps its shape.
struct BenchOptions {
  double scale = 0.2;
  size_t queries = 100;
  uint64_t seed = 20100913;  // VLDB'10 opening day
  double loss = 0.0;
  /// Loss burst length: 1 = independent losses, >1 groups losses into
  /// fade bursts of that many packets at the same long-run rate.
  uint32_t burst = 1;
  /// Per-bit corruption rate of packets that survive erasure (CRC-detected
  /// on the client; 0 = pristine payloads).
  double corrupt = 0.0;
  bool full = false;
  /// Skip SPQ/HiTi (whose pre-computation is all-pairs-flavoured) even in
  /// benches that normally include them.
  bool no_heavy = false;
  /// Simulation engine worker threads (0 = hardware concurrency). The
  /// engine is bit-deterministic across thread counts, so parallel runs
  /// report the same packet/memory numbers as serial ones; only the
  /// wall-clock cpu_ms measurement is subject to scheduling noise.
  unsigned threads = 1;
  /// Run each measured batch N times and report the minimum wall time
  /// (min-of-N): scheduler/cache noise only ever slows a run down, so the
  /// minimum is the stable number to compare. Metrics other
  /// than wall time and the wall-clock-measured cpu_ms (which comes from
  /// the last repetition) are identical across repetitions.
  unsigned repeat = 1;

  /// Device heap budget scaled with the network.
  size_t ScaledHeapBytes() const;

  /// The configured channel loss model (--loss + --burst + --corrupt).
  broadcast::LossModel Loss() const {
    return broadcast::LossModel::Of(loss, burst, corrupt);
  }
};

/// Parses --scale=, --queries=, --seed=, --loss=, --burst=, --corrupt=,
/// --threads=, --repeat=, --full, --no-heavy. Numeric values
/// are validated strictly; a malformed or unknown flag aborts with a usage
/// message (exit 2).
BenchOptions ParseBenchOptions(int argc, char** argv);

}  // namespace airindex::bench

#endif  // AIRINDEX_BENCH_COMMON_OPTIONS_H_
