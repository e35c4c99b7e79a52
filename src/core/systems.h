#ifndef AIRINDEX_CORE_SYSTEMS_H_
#define AIRINDEX_CORE_SYSTEMS_H_

#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/air_system.h"
#include "core/cycle_common.h"
#include "graph/graph.h"

namespace airindex::core {

/// Tuning knobs of the evaluated methods (paper §7 defaults for the Germany
/// network: ArcFlag 16 regions, EB 32, NR 32, Landmark 4 anchors).
struct SystemParams {
  uint32_t arcflag_regions = 16;
  uint32_t eb_regions = 32;
  uint32_t nr_regions = 32;
  uint32_t landmarks = 4;
  uint32_t hiti_regions = 32;
  /// SPQ/HiTi pre-computation is all-pairs-ish; skip them for large inputs
  /// unless the experiment needs their cycle sizes (Table 1).
  bool include_spq = false;
  bool include_hiti = false;

  /// Cycle encoding and build-time parallelism knobs shared by every
  /// method (see BuildConfig). `build.encoding` changes the broadcast
  /// cycle and therefore joins the registry cache key;
  /// `build.precompute_threads` does not (precompute output is
  /// byte-identical for any thread count).
  BuildConfig build;

  bool operator==(const SystemParams&) const = default;
};

/// Method names in the paper's Table 1 order, honouring the params'
/// include_spq/include_hiti flags: DJ, NR, EB, LD, AF (, SPQ, HiTi).
std::vector<std::string_view> SystemNames(const SystemParams& params);

/// Builds one method by its paper name ("DJ", "NR", "EB", "LD", "AF",
/// "SPQ", "HiTi"), taking its knob from `params`.
Result<std::unique_ptr<AirSystem>> BuildSystem(const graph::Graph& g,
                                               std::string_view method,
                                               const SystemParams& params);

/// Builds the evaluated systems in the paper's Table 1 order
/// (DJ, NR, EB, LD, AF, then optionally SPQ and HiTi).
Result<std::vector<std::unique_ptr<AirSystem>>> BuildSystems(
    const graph::Graph& g, const SystemParams& params);

/// A list of ready broadcast systems, shared with the registry cache.
using SharedSystems = std::vector<std::shared_ptr<const AirSystem>>;

/// Process-wide cache of built systems keyed by (graph content, method,
/// relevant parameter). Building a method's broadcast cycle dominates
/// experiment start-up (border-pair Dijkstras, kd-tree splits, cycle
/// layout); the registry pays that cost once per (graph, config) and hands
/// every caller the same immutable instance. Thread-safe; the returned
/// systems are safe for concurrent RunQuery calls (see air_system.h).
///
/// The cache key identifies the graph by content (graph::Fingerprint plus
/// its node/arc counts), not by address: a freed graph's successor at the
/// same address gets its own systems, and equal graphs share theirs.
/// Systems hold no reference to the graph. The first Get on a graph
/// hashes it, an O(n + m) pass the graph then caches, so later Gets are
/// O(1) in its size. Call Clear() when discarding graphs wholesale (e.g.
/// between networks of a memory-tight sweep).
class SystemRegistry {
 public:
  /// The process-wide instance used by benches and the CLI.
  static SystemRegistry& Global();

  /// Returns the cached system for `method` on `g`, building it on miss.
  Result<std::shared_ptr<const AirSystem>> Get(const graph::Graph& g,
                                               std::string_view method,
                                               const SystemParams& params = {});

  /// Table-1-ordered systems per `params` (cache-backed, one Get each).
  Result<SharedSystems> GetAll(const graph::Graph& g,
                               const SystemParams& params = {});

  /// Number of cached systems.
  size_t size() const;

  /// Most cached systems kept at once (default kDefaultCapacity). When an
  /// insert pushes the cache past the cap, the least-recently-used entries
  /// are dropped — parameter sweeps that vary knobs/encodings/schedules
  /// across many graphs stop accumulating dead pre-computations. Shrinking
  /// the cap evicts immediately. Outstanding shared_ptrs keep evicted
  /// systems alive; a later Get simply rebuilds.
  size_t capacity() const;
  void set_capacity(size_t capacity);

  /// Generous default: a full seven-system fleet on a handful of graphs
  /// and knob settings fits without any eviction.
  static constexpr size_t kDefaultCapacity = 256;

  /// Drops every cached system.
  void Clear();

  /// Drops the cached systems of one graph (all methods/knobs), matched by
  /// content, so an equal graph's entries go too. Callers that own a graph
  /// with a narrower lifetime than the process — the scenario runner,
  /// per-network bench loops — evict on teardown instead of clearing other
  /// graphs' caches wholesale.
  void Evict(const graph::Graph& g);

 private:
  struct Key {
    uint64_t fingerprint = 0;
    size_t nodes = 0;
    size_t arcs = 0;
    std::string method;
    uint32_t knob = 0;
    broadcast::CycleEncoding encoding = broadcast::CycleEncoding::kLegacy;

    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const;
  };

  struct Entry {
    std::shared_ptr<const AirSystem> system;
    /// Last-touch stamp from use_tick_ (monotonic, under mu_).
    uint64_t tick = 0;
  };

  /// Drops least-recently-used entries until size() <= capacity_.
  /// Caller holds mu_ exclusively.
  void EvictOverCapacityLocked();

  /// Reader-writer lock: Get hits take only the shared side while the
  /// cache is under capacity (recency stamps don't matter until an
  /// eviction is possible), so concurrent simulation workers stop
  /// serializing on every registry lookup. Misses, inserts, and all
  /// mutations take the exclusive side.
  mutable std::shared_mutex mu_;
  std::unordered_map<Key, Entry, KeyHash> cache_;
  size_t capacity_ = kDefaultCapacity;
  uint64_t use_tick_ = 0;
};

}  // namespace airindex::core

#endif  // AIRINDEX_CORE_SYSTEMS_H_
