#include "workload/workload.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "graph/kernel_search.h"
#include "partition/kd_tree.h"

namespace airindex::workload {

namespace {

/// Node pool the sources of a spec are drawn from: every node for kUniform,
/// the union of the requested kd-cells for kClustered.
Result<std::vector<graph::NodeId>> SourcePool(const graph::Graph& g,
                                              const WorkloadSpec& spec) {
  if (spec.source == WorkloadSpec::Source::kUniform) return std::vector<graph::NodeId>{};
  if (spec.source_regions.empty()) {
    return Status::InvalidArgument(
        "clustered sources require at least one source region");
  }
  AIRINDEX_ASSIGN_OR_RETURN(
      partition::KdTreePartitioner tree,
      partition::KdTreePartitioner::Build(g, spec.partition_regions));
  partition::Partitioning part = tree.Partition(g);
  std::vector<graph::NodeId> pool;
  for (uint32_t cell : spec.source_regions) {
    if (cell >= part.num_regions) {
      return Status::InvalidArgument("source region id out of range");
    }
    const auto& nodes = part.region_nodes[cell];
    pool.insert(pool.end(), nodes.begin(), nodes.end());
  }
  if (pool.empty()) {
    return Status::InvalidArgument("requested source regions hold no nodes");
  }
  std::sort(pool.begin(), pool.end());
  return pool;
}

/// Zipf destination sampler: node ids are ranked by a seed-derived
/// Fisher-Yates permutation; rank r is drawn with probability
/// ∝ 1/(r+1)^s via inverse-CDF binary search.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s, uint64_t seed) : perm_(n), cdf_(n) {
    std::iota(perm_.begin(), perm_.end(), graph::NodeId{0});
    Rng rng(seed ^ 0x5a1fD15Cull);
    for (size_t i = n - 1; i > 0; --i) {
      std::swap(perm_[i], perm_[rng.NextBounded(i + 1)]);
    }
    double total = 0.0;
    for (size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  graph::NodeId Sample(Rng& rng) const {
    const double u = rng.NextDouble();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    const size_t rank = it == cdf_.end() ? cdf_.size() - 1
                                         : static_cast<size_t>(it - cdf_.begin());
    return perm_[rank];
  }

 private:
  std::vector<graph::NodeId> perm_;
  std::vector<double> cdf_;
};

double WrapUnit(double x) {
  x -= std::floor(x);
  return x >= 1.0 ? 0.0 : x;
}

}  // namespace

Result<Workload> GenerateWorkload(const graph::Graph& g,
                                  const WorkloadSpec& spec) {
  if (g.num_nodes() < 2) return Status::InvalidArgument("graph too small");
  if (spec.dest == WorkloadSpec::Dest::kZipf && spec.zipf_s <= 0.0) {
    return Status::InvalidArgument("zipf exponent must be positive");
  }
  AIRINDEX_ASSIGN_OR_RETURN(std::vector<graph::NodeId> source_pool,
                            SourcePool(g, spec));
  std::unique_ptr<ZipfSampler> zipf;
  if (spec.dest == WorkloadSpec::Dest::kZipf) {
    zipf = std::make_unique<ZipfSampler>(g.num_nodes(), spec.zipf_s,
                                         spec.seed);
  }

  Rng rng(spec.seed);
  Workload w;
  w.queries.resize(spec.count);
  for (auto& q : w.queries) {
    if (source_pool.empty()) {
      q.source = static_cast<graph::NodeId>(rng.NextBounded(g.num_nodes()));
    } else {
      q.source = source_pool[rng.NextBounded(source_pool.size())];
    }
    do {
      q.target = zipf ? zipf->Sample(rng)
                      : static_cast<graph::NodeId>(
                            rng.NextBounded(g.num_nodes()));
    } while (q.target == q.source);
    if (spec.phase == WorkloadSpec::Phase::kRushHour) {
      // Sum of two uniforms -> triangular on [-1, 1] around the peak.
      const double jitter = rng.NextDouble() + rng.NextDouble() - 1.0;
      q.tune_phase = WrapUnit(spec.phase_peak + jitter * spec.phase_width);
    } else {
      q.tune_phase = rng.NextDouble();
    }
  }
  if (spec.arrival.kind != ArrivalSpec::Kind::kNone) {
    // Arrivals come from their own salted stream *after* the query
    // sampling above, so specs with and without an arrival process draw
    // the exact same query population.
    AIRINDEX_ASSIGN_OR_RETURN(
        std::vector<double> arrivals,
        GenerateArrivals(spec.arrival, spec.count, spec.seed));
    for (size_t i = 0; i < spec.count; ++i) {
      w.queries[i].arrival_ms = arrivals[i];
    }
  }
  // Ground truth: one shared oracle, and one searcher per worker, so a
  // query costs its search on the chain kernel and nothing else. The first
  // worker to start builds the oracle, and each worker its own searcher, so
  // their memory lies in the workers' heaps (docs/perf.md, "Workload
  // ground truth").
  std::optional<graph::DistanceOracle> oracle;
  std::once_flag built;
  std::vector<std::optional<graph::DistanceOracle::Searcher>> searchers(
      ResolveWorkers(spec.count, 0));
  ParallelForWorker(spec.count, [&](unsigned worker, size_t i) {
    std::call_once(built, [&] { oracle.emplace(g); });
    auto& searcher = searchers[worker];
    if (!searcher) searcher.emplace(*oracle);
    auto& q = w.queries[i];
    q.true_dist = searcher->Distance(q.source, q.target);
  });
  for (const auto& q : w.queries) {
    if (q.true_dist == graph::kInfDist) {
      return Status::FailedPrecondition(
          "workload contains an unreachable pair; the network is not "
          "strongly connected");
    }
  }
  return w;
}

Result<Workload> GenerateWorkload(const graph::Graph& g, size_t count,
                                  uint64_t seed) {
  WorkloadSpec spec;
  spec.count = count;
  spec.seed = seed;
  return GenerateWorkload(g, spec);
}

std::vector<double> DestinationWeights(size_t num_nodes,
                                       const WorkloadSpec& spec) {
  std::vector<double> w(num_nodes, 0.0);
  if (num_nodes == 0) return w;
  if (spec.dest == WorkloadSpec::Dest::kUniform || spec.zipf_s <= 0.0) {
    const double u = 1.0 / static_cast<double>(num_nodes);
    std::fill(w.begin(), w.end(), u);
    return w;
  }
  // Mirror ZipfSampler exactly: same permutation stream, same pmf.
  std::vector<graph::NodeId> perm(num_nodes);
  std::iota(perm.begin(), perm.end(), graph::NodeId{0});
  Rng rng(spec.seed ^ 0x5a1fD15Cull);
  for (size_t i = num_nodes - 1; i > 0; --i) {
    std::swap(perm[i], perm[rng.NextBounded(i + 1)]);
  }
  double total = 0.0;
  for (size_t r = 0; r < num_nodes; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), spec.zipf_s);
  }
  for (size_t r = 0; r < num_nodes; ++r) {
    w[perm[r]] =
        1.0 / std::pow(static_cast<double>(r + 1), spec.zipf_s) / total;
  }
  return w;
}

std::vector<std::vector<size_t>> BucketizeByLength(const Workload& w,
                                                   int buckets) {
  std::vector<std::vector<size_t>> out(buckets);
  const graph::Dist max_dist = MaxTrueDist(w);
  if (max_dist == 0) return out;
  for (size_t i = 0; i < w.queries.size(); ++i) {
    const auto b = static_cast<int>(
        static_cast<unsigned long long>(w.queries[i].true_dist) * buckets /
        (max_dist + 1));
    out[std::min(b, buckets - 1)].push_back(i);
  }
  return out;
}

graph::Dist MaxTrueDist(const Workload& w) {
  graph::Dist max_dist = 0;
  for (const auto& q : w.queries) max_dist = std::max(max_dist, q.true_dist);
  return max_dist;
}

}  // namespace airindex::workload
