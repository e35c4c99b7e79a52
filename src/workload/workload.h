#ifndef AIRINDEX_WORKLOAD_WORKLOAD_H_
#define AIRINDEX_WORKLOAD_WORKLOAD_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "workload/arrival.h"

namespace airindex::workload {

/// One shortest-path query (§7: random source/destination nodes).
struct Query {
  graph::NodeId source = graph::kInvalidNode;
  graph::NodeId target = graph::kInvalidNode;
  /// Ground-truth distance: the exact shortest-path distance source ->
  /// target over the full graph (graph::DistanceOracle).
  graph::Dist true_dist = graph::kInfDist;
  /// When the client tunes in, as a fraction of the broadcast cycle
  /// (method cycles differ in length, so the instant is stored
  /// cycle-relative).
  double tune_phase = 0.0;
  /// When the client poses the query on the shared station clock,
  /// milliseconds since the station started (event-engine model). Negative
  /// means "no arrival process": the event engine derives the arrival from
  /// tune_phase, and the batch engine ignores it either way.
  double arrival_ms = -1.0;
};

struct Workload {
  std::vector<Query> queries;
};

/// Declarative description of a query population. The paper evaluates one
/// homogeneous population (uniform random s/t, uniform tune-in); the spec
/// generalizes each axis independently so scenario client groups can model
/// hotspot destinations, commuter source clusters, and rush-hour tune-in
/// bursts without new generator code per combination.
struct WorkloadSpec {
  size_t count = 100;
  uint64_t seed = 20100913;

  /// Destination choice. kZipf ranks nodes by a seed-derived permutation
  /// and samples rank r with probability ∝ 1/(r+1)^zipf_s, concentrating
  /// queries onto a few hotspot destinations (downtown, the stadium).
  enum class Dest { kUniform, kZipf } dest = Dest::kUniform;
  double zipf_s = 1.1;

  /// Source choice. kClustered draws sources only from the nodes of the
  /// named kd-tree cells (the same §4.1 partitioner the indexes broadcast),
  /// modelling clients concentrated in a few districts.
  enum class Source { kUniform, kClustered } source = Source::kUniform;
  /// Kd-tree leaf count used to resolve source_regions (power of two >= 2).
  uint32_t partition_regions = 16;
  /// Cells sources are drawn from (required non-empty for kClustered).
  std::vector<uint32_t> source_regions;

  /// Tune-in instant. kRushHour concentrates phases in a triangular burst
  /// of half-width phase_width around phase_peak (wrapped mod 1), modelling
  /// synchronized commute-time tune-ins.
  enum class Phase { kUniform, kRushHour } phase = Phase::kUniform;
  double phase_peak = 0.35;
  double phase_width = 0.08;

  /// Arrival process on the shared station clock (event engine). Sampled
  /// from its own salted stream, so enabling arrivals never perturbs the
  /// query population above — the batch path stays bit-identical.
  ArrivalSpec arrival;

  /// Client sessions (event engine). A session is a run of `queries`
  /// consecutive workload queries posed by one persistent client: the
  /// first query arrives per the arrival process above, each later one
  /// `think_ms` after the previous answer, and the client's SessionCache
  /// carries decoded segments across them (warm queries). queries = 1 is
  /// the historical one-shot fleet. Purely a grouping of the generated
  /// sequence — enabling sessions never perturbs the query population.
  struct SessionSpec {
    uint32_t queries = 1;
    double think_ms = 0.0;

    bool operator==(const SessionSpec&) const = default;
  } session;

  bool operator==(const WorkloadSpec&) const = default;
};

/// Generates a workload per `spec` with ground truth (one
/// graph::DistanceOracle, queried in parallel; the sampling pass is serial,
/// so results are identical for every thread count). FailedPrecondition
/// when some sampled pair is unreachable. A default-constructed spec reproduces the paper's
/// population — and the exact query sequence of the (count, seed) overload.
Result<Workload> GenerateWorkload(const graph::Graph& g,
                                  const WorkloadSpec& spec);

/// Generates `count` uniform random s != t queries with ground truth and
/// uniform tune-in phases (the paper's §7 population).
Result<Workload> GenerateWorkload(const graph::Graph& g, size_t count,
                                  uint64_t seed);

/// Per-node destination probability mass of `spec` over `num_nodes` nodes —
/// the analytic form of the distribution GenerateWorkload samples from
/// (uniform: 1/n everywhere; zipf: the seed-derived rank permutation with
/// p(rank r) ∝ 1/(r+1)^zipf_s). Lets a broadcast planner weight content by
/// expected demand without sampling a workload first.
std::vector<double> DestinationWeights(size_t num_nodes,
                                       const WorkloadSpec& spec);

/// Buckets query indexes by true shortest-path length into `buckets`
/// equal-width ranges over [0, max_dist] (Fig. 10's "SP Range" axis). The
/// paper uses 4 buckets over the observed path lengths.
std::vector<std::vector<size_t>> BucketizeByLength(const Workload& w,
                                                   int buckets);

/// Largest ground-truth distance in the workload.
graph::Dist MaxTrueDist(const Workload& w);

}  // namespace airindex::workload

#endif  // AIRINDEX_WORKLOAD_WORKLOAD_H_
