#include "graph/generator.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"

namespace airindex::graph {
namespace {

double Sq(double v) { return v * v; }

double EuclidDist(const Point& a, const Point& b) {
  return std::sqrt(Sq(a.x - b.x) + Sq(a.y - b.y));
}

Weight ToWeight(double d) {
  auto w = static_cast<Weight>(std::llround(d));
  return w == 0 ? 1 : w;
}

/// Union-find over node ids.
class DisjointSets {
 public:
  explicit DisjointSets(size_t n) : parent_(n), rank_(n, 0) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }

  uint32_t Find(uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  bool Union(uint32_t a, uint32_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return false;
    if (rank_[a] < rank_[b]) std::swap(a, b);
    parent_[b] = a;
    if (rank_[a] == rank_[b]) ++rank_[a];
    return true;
  }

 private:
  std::vector<uint32_t> parent_;
  std::vector<uint8_t> rank_;
};

/// Spatial hash grid used to find nearest-neighbour candidates in roughly
/// O(1) per query on uniform points.
class PointGrid {
 public:
  PointGrid(const std::vector<Point>& pts, double extent)
      : pts_(pts),
        cells_per_side_(std::max<uint32_t>(
            1, static_cast<uint32_t>(std::sqrt(
                   static_cast<double>(pts.size()) / 2.0)))),
        cell_size_(extent / cells_per_side_) {
    buckets_.resize(static_cast<size_t>(cells_per_side_) * cells_per_side_);
    for (uint32_t i = 0; i < pts.size(); ++i) {
      buckets_[CellOf(pts[i])].push_back(i);
    }
  }

  /// Writes to `out` the `out.size()` points nearest to pts_[v] (excluding
  /// v itself) among those in the rings of cells scanned, nearest first and
  /// ties by id. Rings are scanned outwards until at least ring 1 is done
  /// and enough points are found. There must be that many other points.
  void KNearest(uint32_t v, std::span<uint32_t> out) {
    found_.clear();
    const Point& p = pts_[v];
    const int cx = CellX(p);
    const int cy = CellY(p);
    const int max_ring = static_cast<int>(cells_per_side_);
    for (int ring = 0; ring <= max_ring; ++ring) {
      CollectRing(cx, cy, ring, v);
      // Not an exact kNN: a point in ring r+1 can be nearer than one found
      // in ring r. Every catalog replica is built from these rows.
      if (found_.size() >= out.size() && ring >= 1) break;
    }
    const auto kth = found_.begin() + static_cast<ptrdiff_t>(out.size());
    std::partial_sort(found_.begin(), kth, found_.end());
    for (size_t i = 0; i < out.size(); ++i) out[i] = found_[i].second;
  }

 private:
  size_t CellOf(const Point& p) const {
    return static_cast<size_t>(CellY(p)) * cells_per_side_ + CellX(p);
  }
  int CellX(const Point& p) const {
    return std::min<int>(cells_per_side_ - 1,
                         std::max(0, static_cast<int>(p.x / cell_size_)));
  }
  int CellY(const Point& p) const {
    return std::min<int>(cells_per_side_ - 1,
                         std::max(0, static_cast<int>(p.y / cell_size_)));
  }

  void CollectRing(int cx, int cy, int ring, uint32_t self) {
    const int lo_x = cx - ring, hi_x = cx + ring;
    const int lo_y = cy - ring, hi_y = cy + ring;
    for (int y = lo_y; y <= hi_y; ++y) {
      if (y < 0 || y >= static_cast<int>(cells_per_side_)) continue;
      for (int x = lo_x; x <= hi_x; ++x) {
        if (x < 0 || x >= static_cast<int>(cells_per_side_)) continue;
        // Only the border of the ring (interior was collected earlier).
        if (ring > 0 && x != lo_x && x != hi_x && y != lo_y && y != hi_y) {
          continue;
        }
        for (uint32_t id :
             buckets_[static_cast<size_t>(y) * cells_per_side_ + x]) {
          if (id == self) continue;
          found_.emplace_back(EuclidDist(pts_[self], pts_[id]), id);
        }
      }
    }
  }

  const std::vector<Point>& pts_;
  uint32_t cells_per_side_;
  double cell_size_;
  std::vector<std::vector<uint32_t>> buckets_;
  std::vector<std::pair<double, uint32_t>> found_;  // KNearest's scratch
};

/// A candidate undirected edge and its Euclidean length.
struct Cand {
  double len;
  uint32_t a, b;
};

/// Candidate undirected edges: the `knn` nearest neighbours of every node,
/// each pair once, sorted by length. Equal lengths end in an order that
/// std::sort derives from the admission order, so that order is part of
/// the output.
std::vector<Cand> NearestNeighbourCandidates(const std::vector<Point>& pts,
                                             double extent, uint32_t knn) {
  const auto n = static_cast<uint32_t>(pts.size());
  knn = std::min(knn, n - 1);
  // Row v holds v's knn nearest ids, nearest first.
  std::vector<uint32_t> nearest(size_t{n} * knn);
  auto row = [&](uint32_t v) {
    return std::span(nearest).subspan(size_t{v} * knn, knn);
  };
  PointGrid grid(pts, extent);
  for (uint32_t v = 0; v < n; ++v) grid.KNearest(v, row(v));

  // Rows are read in node order, and the pair {v, u} appears only in rows
  // v and u, so it is first seen at v unless u < v and u's row names v.
  // Each pair is admitted at its first sighting.
  auto admitted = [&](uint32_t v, uint32_t u) {
    if (u > v) return true;
    const auto r = row(u);
    return std::find(r.begin(), r.end(), v) == r.end();
  };
  size_t count = 0;
  for (uint32_t v = 0; v < n; ++v) {
    for (uint32_t u : row(v)) count += admitted(v, u);
  }
  std::vector<Cand> cands;
  cands.reserve(count);
  for (uint32_t v = 0; v < n; ++v) {
    for (uint32_t u : row(v)) {
      if (admitted(v, u)) cands.push_back({EuclidDist(pts[v], pts[u]), v, u});
    }
  }
  std::sort(cands.begin(), cands.end(),
            [](const Cand& x, const Cand& y) { return x.len < y.len; });
  return cands;
}

uint64_t UndirectedKey(uint32_t a, uint32_t b) {
  if (a > b) std::swap(a, b);
  return (static_cast<uint64_t>(a) << 32) | b;
}

/// SplitMix64 finalizer: the stateless hash behind the GenSpec generator.
/// Every random quantity is HashMix of a (seed, id) key, so any subset of
/// the graph can be generated independently, in any order, on any thread.
uint64_t HashMix(uint64_t x) {
  x += 0x9E3779B97f4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Uniform double in [0, 1) from a hash value.
double HashUnit(uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// Stream tags keeping node-coordinate and edge-weight hash streams
// disjoint even for overlapping keys.
constexpr uint64_t kCoordStream = 0x636F6F7264ULL;   // "coord"
constexpr uint64_t kWeightStream = 0x7765696768ULL;  // "weigh"

/// Per-edge jittered weight: Euclidean length times `scale`, times a
/// seeded factor in [1 - jitter, 1 + jitter], floored at 1.
Weight JitteredWeight(const Point& a, const Point& b, double scale,
                      double jitter, uint64_t stream_seed, uint64_t key) {
  const double u = HashUnit(HashMix(stream_seed ^ key));
  const double factor = 1.0 + jitter * (2.0 * u - 1.0);
  return ToWeight(EuclidDist(a, b) * scale * factor);
}

}  // namespace

Result<Graph> GenerateRoadNetwork(const GeneratorOptions& options) {
  const uint32_t n = options.num_nodes;
  const uint32_t m = options.num_edges;
  if (n < 2) return Status::InvalidArgument("num_nodes must be > 1");
  if (m < n - 1) {
    return Status::InvalidArgument(
        "num_edges must be >= num_nodes - 1 for a connected network");
  }

  Rng rng(options.seed);
  std::vector<Point> pts(n);
  for (auto& p : pts) {
    p.x = rng.NextDouble() * options.extent;
    p.y = rng.NextDouble() * options.extent;
  }

  const std::vector<Cand> cands =
      NearestNeighbourCandidates(pts, options.extent, options.knn);

  // Kruskal over candidates: short edges first => road-like local links.
  DisjointSets dsu(n);
  std::vector<uint8_t> used(cands.size(), 0);
  std::vector<EdgeTriplet> arcs;
  arcs.reserve(static_cast<size_t>(m) * 2);
  uint32_t picked = 0;
  auto add_edge = [&](uint32_t a, uint32_t b, double len) {
    Weight w = ToWeight(len);
    arcs.push_back({a, b, w});
    arcs.push_back({b, a, w});
    ++picked;
  };

  uint32_t components = n;
  for (size_t i = 0; i < cands.size() && components > 1; ++i) {
    if (dsu.Union(cands[i].a, cands[i].b)) {
      used[i] = 1;
      add_edge(cands[i].a, cands[i].b, cands[i].len);
      --components;
    }
  }

  // kNN graphs on uniform points are almost always connected, but bridge any
  // leftover components explicitly: link each remaining component's first
  // node to its nearest node in node 0's component. Kruskal has seen every
  // candidate by now, so each bridge joins two components and is new.
  if (components > 1) {
    uint32_t root0 = dsu.Find(0);
    for (uint32_t v = 0; v < n && components > 1; ++v) {
      if (dsu.Find(v) == root0) continue;
      // Brute-force nearest node of the root component.
      double best = std::numeric_limits<double>::max();
      uint32_t best_u = kInvalidNode;
      for (uint32_t u = 0; u < n; ++u) {
        if (dsu.Find(u) != root0) continue;
        double d = EuclidDist(pts[v], pts[u]);
        if (d < best) {
          best = d;
          best_u = u;
        }
      }
      dsu.Union(v, best_u);
      add_edge(v, best_u, best);
      --components;
      // The union may have re-rooted node 0's component.
      root0 = dsu.Find(0);
    }
  }

  // Fill the remaining budget with the shortest unused candidates.
  for (size_t i = 0; i < cands.size() && picked < m; ++i) {
    if (used[i]) continue;
    used[i] = 1;
    add_edge(cands[i].a, cands[i].b, cands[i].len);
  }
  if (picked < m) {
    return Status::FailedPrecondition(
        "candidate pool exhausted; raise GeneratorOptions::knn for this "
        "edge density");
  }

  return Graph::Build(std::move(pts), arcs);
}

Result<Graph> GenerateRoadNetwork(const GenSpec& spec) {
  const uint32_t n = spec.num_nodes;
  if (n < 2) return Status::InvalidArgument("num_nodes must be > 1");
  if (!(spec.weight_jitter >= 0.0) || spec.weight_jitter >= 1.0) {
    return Status::InvalidArgument("weight_jitter must be in [0, 1)");
  }
  if (!(spec.extent > 0.0)) {
    return Status::InvalidArgument("extent must be positive");
  }
  // Strides are 4^level; cap so the stride fits in 32 bits with room.
  if (spec.highway_levels > 12) {
    return Status::InvalidArgument("highway_levels must be <= 12");
  }

  const uint32_t cols = static_cast<uint32_t>(
      std::ceil(std::sqrt(static_cast<double>(n))));
  const uint32_t rows = (n + cols - 1) / cols;
  const double cell = spec.extent / cols;
  const uint64_t coord_seed = HashMix(spec.seed ^ kCoordStream);
  const uint64_t weight_seed = HashMix(spec.seed ^ kWeightStream);

  // Coordinates: cell centres plus seeded jitter of up to ±0.3 cells, so
  // the layout stays planar-ish (no two nodes swap cells) but weights and
  // kd-tree splits are not degenerate. Pure per-node hash => any thread
  // count yields the same bytes.
  std::vector<Point> pts(n);
  ParallelForWorker(
      rows,
      [&](unsigned, size_t r) {
        for (uint32_t c = 0; c < cols; ++c) {
          const uint64_t v = r * cols + c;
          if (v >= n) break;
          const uint64_t h1 = HashMix(coord_seed ^ v);
          const uint64_t h2 = HashMix(h1);
          pts[v] = {(c + 0.5 + 0.6 * (HashUnit(h1) - 0.5)) * cell,
                    (r + 0.5 + 0.6 * (HashUnit(h2) - 0.5)) * cell};
        }
      },
      spec.threads);

  // Edges are generated into per-row buckets (each row's edges are a pure
  // function of the spec) and concatenated in row order, so the arc list —
  // and hence the built CSR — is independent of the thread count.
  std::vector<std::vector<EdgeTriplet>> row_edges(rows);
  ParallelForWorker(
      rows,
      [&](unsigned, size_t r) {
        auto& out = row_edges[r];
        auto add_undirected = [&](uint32_t a, uint32_t b, double scale) {
          const Weight w = JitteredWeight(pts[a], pts[b], scale,
                                          spec.weight_jitter, weight_seed,
                                          UndirectedKey(a, b));
          out.push_back({a, b, w});
          out.push_back({b, a, w});
        };
        // Grid base layer: right + down neighbours. The partial last row
        // stays connected through its up-links (row above is full).
        for (uint32_t c = 0; c < cols; ++c) {
          const uint64_t v64 = r * cols + c;
          if (v64 >= n) break;
          const auto v = static_cast<uint32_t>(v64);
          if (c + 1 < cols && v64 + 1 < n) add_undirected(v, v + 1, 1.0);
          if (v64 + cols < n) add_undirected(v, v + cols, 1.0);
        }
        // Highway overlays: level l links every stride-th grid point along
        // rows and columns at stride 4^l, at 0.6x surface weight. Strides
        // differ per level and are always >= 4, so no overlay duplicates a
        // base edge or another overlay.
        for (uint32_t level = 1; level <= spec.highway_levels; ++level) {
          const uint64_t stride = 1ULL << (2 * level);
          if (r % stride != 0) continue;
          for (uint64_t c = 0; c < cols; c += stride) {
            const uint64_t v64 = r * cols + c;
            if (v64 >= n) break;
            const auto v = static_cast<uint32_t>(v64);
            if (c + stride < cols && v64 + stride < n) {
              add_undirected(v, static_cast<uint32_t>(v64 + stride), 0.6);
            }
            const uint64_t down = v64 + stride * cols;
            if (r + stride < rows && down < n) {
              add_undirected(v, static_cast<uint32_t>(down), 0.6);
            }
          }
        }
      },
      spec.threads);

  size_t total = 0;
  for (const auto& re : row_edges) total += re.size();
  std::vector<EdgeTriplet> arcs;
  arcs.reserve(total);
  for (const auto& re : row_edges) {
    arcs.insert(arcs.end(), re.begin(), re.end());
  }
  return Graph::Build(std::move(pts), arcs);
}

}  // namespace airindex::graph
