#ifndef AIRINDEX_TOOLS_PAPER_H_
#define AIRINDEX_TOOLS_PAPER_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

#include "broadcast/channel.h"
#include "common/status.h"
#include "graph/graph.h"

namespace airindex::paper {

/// The knobs every experiment shares: `airindex_cli paper`'s flags.
///
/// The default `scale` shrinks the paper's networks (same topology style
/// and edge/node ratio) so the whole suite runs in seconds; --scale=1
/// --queries=400 is the paper's setting. The device heap scales with the
/// network (HeapBytes: the paper's 8 MB J2ME heap times `scale`) so
/// Table-2-style applicability keeps its shape.
struct Options {
  double scale = 0.2;
  size_t queries = 100;
  uint64_t seed = 20100913;  // VLDB'10 opening day
  double loss = 0.0;
  /// Loss burst length: 1 = independent losses, >1 groups losses into
  /// fade bursts of that many packets at the same long-run rate.
  uint32_t burst = 1;
  /// Per-bit corruption rate of packets that survive erasure.
  double corrupt = 0.0;
  /// Simulation worker threads (0 = one per available CPU). The engine is
  /// bit-deterministic across thread counts; only the wall-clock cpu_ms
  /// columns vary.
  unsigned threads = 1;
  /// Runs each measured batch N times and prints the min-of-N wall time
  /// as a `#` line.
  unsigned repeat = 1;

  broadcast::LossModel Loss() const {
    return broadcast::LossModel::Of(loss, burst, corrupt);
  }
  size_t HeapBytes() const {
    return static_cast<size_t>(8.0 * 1024 * 1024 * scale);
  }
};

/// One row of the reproduction table: a figure, table or ablation of the
/// paper, what it runs on, how it prints, and the shape the paper reports.
struct Experiment {
  /// Command-line name ("table1", "fig10", "ablation-crossborder", ...).
  std::string_view name;
  std::string_view title;
  /// Catalog network the driver loads and hands to `print`; empty when
  /// the routine walks graph::PaperNetworks() or runs a catalog scenario.
  std::string_view network;
  /// Methods the routine builds, with the default core::SystemParams (the
  /// paper's §7 knobs: ArcFlag 16 regions, EB/NR/HiTi 32, Landmark 4);
  /// fig11 sweeps the knobs of its methods.
  std::span<const std::string_view> systems;
  /// What the routine reads beyond --scale, which is what the header
  /// names: nothing more (cycles, pre-computation), a workload of
  /// --queries at --seed, or that workload over a channel of --loss,
  /// --burst and --corrupt.
  enum class Reads { kNetwork, kWorkload, kLossyWorkload } reads;
  /// Loss rates swept in place of --loss (fig14); the header names them.
  std::span<const double> loss_sweep;
  /// Prints the experiment's table. `g` is the loaded `network`, or null.
  Status (*print)(const Experiment& e, const Options& o,
                  const graph::Graph* g);
  /// The shape the paper reports, printed under the table.
  std::string_view footer;
};

/// Every experiment, in the order `paper all` runs them.
std::span<const Experiment> Experiments();

/// The experiment called `name`, or null.
const Experiment* FindExperiment(std::string_view name);

/// Prints `e`'s header, loads its network, runs its print routine and
/// prints its footer.
Status Run(const Experiment& e, const Options& o);

}  // namespace airindex::paper

#endif  // AIRINDEX_TOOLS_PAPER_H_
