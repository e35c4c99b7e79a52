#ifndef AIRINDEX_CORE_AIR_SYSTEM_H_
#define AIRINDEX_CORE_AIR_SYSTEM_H_

#include <cstddef>
#include <string_view>

#include "broadcast/channel.h"
#include "broadcast/cycle.h"
#include "device/device_profile.h"
#include "device/metrics.h"
#include "graph/types.h"
#include "workload/workload.h"

namespace airindex::core {

/// "This query has no absolute arrival": the client tunes in at a private,
/// cycle-relative phase (the batch engine's replay model).
inline constexpr uint64_t kNoArrivalPos = ~uint64_t{0};

/// A query as the client sees it: it knows where it is and where it wants to
/// go (node ids double as record keys; coordinates drive the kd-tree region
/// mapping), and the instant it tunes in. Two tune-in models coexist:
///   * phase-relative (`tune_phase`, the historical model): each query
///     privately replays its own cycle from a fractional offset;
///   * absolute (`arrival_pos` != kNoArrivalPos, the event engine's model):
///     the client joins a shared station timeline at that absolute packet
///     position, mid-cycle, wherever the transmitter happens to be.
struct AirQuery {
  graph::NodeId source = graph::kInvalidNode;
  graph::NodeId target = graph::kInvalidNode;
  graph::Point source_coord;
  graph::Point target_coord;
  double tune_phase = 0.0;
  /// Absolute tune-in position on a shared station timeline; overrides
  /// tune_phase when set (see StartPosition).
  uint64_t arrival_pos = kNoArrivalPos;
};

/// Converts a workload query (coordinates looked up in the graph).
AirQuery MakeAirQuery(const graph::Graph& g, const workload::Query& q);

/// Per-query client configuration.
struct ClientOptions {
  /// Device heap budget (Table 2's applicability criterion).
  size_t heap_bytes = device::DeviceProfile{}.heap_bytes;
  /// §6.1 memory-bound processing: collapse received regions into
  /// super-edges instead of keeping their full data (EB/NR only).
  bool memory_bound = false;
  /// §4.1 optimization: intermediate regions contribute only their
  /// cross-border segment (EB only; ablation toggle).
  bool cross_border_opt = true;
  /// How many extra cycles a client may spend re-listening to lost packets
  /// before giving up.
  int max_repair_cycles = 8;
  /// Opt-in fix for the AF header gap (ROADMAP): also repair the
  /// header/global-index segment of methods whose query cannot run without
  /// it (ArcFlag's kd-split header). Off by default — the §6.2
  /// reproduction numbers assume only adjacency data is repaired, and a
  /// lost header then fails the query (~2-5% at 2% loss).
  bool repair_header = false;
};

/// Caller-owned reusable scratch for RunQuery (core/query_scratch.h).
struct QueryScratch;

/// One broadcast method: a server-built cycle plus the matching client
/// algorithm. Implementations: DijkstraOnAir, LandmarkOnAir, ArcFlagOnAir,
/// HiTiOnAir, SpqOnAir, EbSystem, NrSystem.
///
/// Thread-safety contract: after Build() returns, an AirSystem is
/// immutable — RunQuery and every accessor are const and touch no hidden
/// mutable state (no caches, no scratch members, no const_cast, no
/// function-local statics). Any number of threads may therefore call
/// RunQuery concurrently on one instance against a shared
/// broadcast::BroadcastChannel (itself a pure function of (seed,
/// position) — see channel.h). Each call keeps all client state — the
/// ClientSession, partial graph, decode buffers — on its own stack *or* in
/// the caller-owned QueryScratch passed in: scratch is explicit, never
/// hidden in the system, so the immutability guarantee is unchanged. A
/// scratch instance itself is single-threaded — callers that fan out give
/// each worker thread its own (sim::TimedFanOut, both engines' fan-out,
/// keeps one per worker and reuses it across the worker's whole slice),
/// and results are byte-identical whether a scratch is shared across
/// queries or fresh.
/// Implementers of new methods must preserve both guarantees; the way to
/// do so is to build RunQuery on core::ClientRun (core/client_run.h),
/// which owns the per-query session, memory account and scratch binding
/// and emits the QueryMetrics.
class AirSystem {
 public:
  virtual ~AirSystem() = default;

  /// Short method name as used in the paper's tables ("DJ", "NR", "EB",
  /// "LD", "AF", "SPQ", "HiTi").
  virtual std::string_view name() const = 0;

  /// The broadcast cycle this method's server transmits.
  virtual const broadcast::BroadcastCycle& cycle() const = 0;

  /// Executes one client query against a channel carrying this system's
  /// cycle. Never throws; failures surface as !metrics.ok. `scratch` must
  /// not be null: it supplies every reusable client buffer (reset on
  /// entry), so a caller that keeps one scratch per thread runs the
  /// steady-state query path without allocating.
  virtual device::QueryMetrics RunQuery(
      const broadcast::BroadcastChannel& channel, const AirQuery& query,
      const ClientOptions& options, QueryScratch* scratch) const = 0;

  /// Server-side pre-computation wall time in seconds (Table 3).
  virtual double precompute_seconds() const { return 0.0; }
};

/// Where a query's client session starts on the channel's timeline: the
/// absolute arrival position when the query carries one (shared-station
/// model), else the phase-relative tune-in (private-replay model) on the
/// channel's *session* timeline — the macro cycle when a broadcast-disk
/// schedule is on, the flat cycle otherwise — so a private replay spreads
/// its phases over the whole transmitted pattern. Phases are nominally in
/// [0, 1); an inclusive 1.0 (or floating-point round-up) is clamped to the
/// last packet instead of indexing one past the end. Every RunQuery
/// implementation opens its session here, so both engines drive the same
/// client code.
inline uint64_t StartPosition(const broadcast::BroadcastChannel& channel,
                              const AirQuery& query) {
  if (query.arrival_pos != kNoArrivalPos) return query.arrival_pos;
  const uint64_t total = channel.session_cycle_packets();
  if (total == 0) return 0;
  const auto pos =
      static_cast<uint64_t>(query.tune_phase * static_cast<double>(total));
  return pos >= total ? total - 1 : pos;
}

}  // namespace airindex::core

#endif  // AIRINDEX_CORE_AIR_SYSTEM_H_
