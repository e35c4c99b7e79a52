#include "partition/kd_tree.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace airindex::partition {

namespace {

bool IsPowerOfTwo(uint32_t v) { return v != 0 && (v & (v - 1)) == 0; }

/// Axis of a heap level: the paper's example splits on y first.
bool SplitsOnY(uint32_t level) { return level % 2 == 0; }

double CoordOnAxis(const graph::Point& p, bool on_y) {
  return on_y ? p.y : p.x;
}

/// Whether `count` splits form a complete tree: 2^d - 1 for d >= 1.
bool ValidSplitCount(size_t count) {
  return count != 0 && std::has_single_bit(count + 1);
}

/// Descends the implicit tree over `splits` (heap node i+1 at index i) for
/// `depth` levels. Region ids are the top-down concatenation of the
/// below/above decisions.
graph::RegionId Descend(const double* splits, uint32_t depth,
                        graph::Point p) {
  uint32_t heap = 1;
  graph::RegionId region = 0;
  for (uint32_t level = 0; level < depth; ++level) {
    const bool on_y = SplitsOnY(level);
    const bool above = CoordOnAxis(p, on_y) >= splits[heap - 1];
    region = (region << 1) | static_cast<graph::RegionId>(above);
    heap = 2 * heap + (above ? 1 : 0);
  }
  return region;
}

}  // namespace

Result<KdTreePartitioner> KdTreePartitioner::Build(const graph::Graph& g,
                                                   uint32_t num_regions) {
  if (!IsPowerOfTwo(num_regions) || num_regions < 2) {
    return Status::InvalidArgument(
        "num_regions must be a power of two >= 2");
  }
  if (g.num_nodes() < num_regions) {
    return Status::InvalidArgument(
        "graph has fewer nodes than requested regions");
  }

  KdTreePartitioner kd;
  kd.num_regions_ = num_regions;
  kd.depth_ = static_cast<uint32_t>(std::countr_zero(num_regions));
  kd.splits_.assign(num_regions - 1, 0.0);

  // Work queue of (heap index, node subset); split each internal node at the
  // median of its subset on the level's axis. Subsets are materialized index
  // vectors — at most O(n log regions) total work.
  std::vector<std::vector<graph::NodeId>> subsets(2 * num_regions);
  subsets[1].resize(g.num_nodes());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) subsets[1][v] = v;

  for (uint32_t heap = 1; heap < num_regions; ++heap) {
    const uint32_t level =
        static_cast<uint32_t>(std::bit_width(heap)) - 1;
    const bool on_y = SplitsOnY(level);
    auto& subset = subsets[heap];
    const size_t mid = subset.size() / 2;
    std::nth_element(subset.begin(), subset.begin() + mid, subset.end(),
                     [&](graph::NodeId a, graph::NodeId b) {
                       return CoordOnAxis(g.Coord(a), on_y) <
                              CoordOnAxis(g.Coord(b), on_y);
                     });
    const double split = CoordOnAxis(g.Coord(subset[mid]), on_y);
    kd.splits_[heap - 1] = split;

    auto& lo = subsets[2 * heap];
    auto& hi = subsets[2 * heap + 1];
    for (graph::NodeId v : subset) {
      if (CoordOnAxis(g.Coord(v), on_y) < split) {
        lo.push_back(v);
      } else {
        hi.push_back(v);
      }
    }
    subset.clear();
    subset.shrink_to_fit();
  }
  return kd;
}

Result<KdTreePartitioner> KdTreePartitioner::FromSplits(
    std::vector<double> splits_bfs) {
  const size_t count = splits_bfs.size();
  if (!ValidSplitCount(count)) {
    return Status::InvalidArgument(
        "split sequence length must be 2^d - 1 for d >= 1");
  }
  KdTreePartitioner kd;
  kd.splits_ = std::move(splits_bfs);
  kd.num_regions_ = static_cast<uint32_t>(count + 1);
  kd.depth_ = static_cast<uint32_t>(std::countr_zero(kd.num_regions_));
  return kd;
}

graph::RegionId KdTreePartitioner::RegionOf(graph::Point p) const {
  return Descend(splits_.data(), depth_, p);
}

Partitioning KdTreePartitioner::Partition(const graph::Graph& g) const {
  std::vector<graph::RegionId> labels(g.num_nodes());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    labels[v] = RegionOf(g.Coord(v));
  }
  return MakePartitioning(std::move(labels), num_regions_);
}

Result<graph::RegionId> KdRegionOf(std::span<const double> splits_bfs,
                                   graph::Point p) {
  if (!ValidSplitCount(splits_bfs.size())) {
    return Status::InvalidArgument(
        "split sequence length must be 2^d - 1 for d >= 1");
  }
  const auto depth =
      static_cast<uint32_t>(std::countr_zero(splits_bfs.size() + 1));
  return Descend(splits_bfs.data(), depth, p);
}

}  // namespace airindex::partition
