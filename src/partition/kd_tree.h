#ifndef AIRINDEX_PARTITION_KD_TREE_H_
#define AIRINDEX_PARTITION_KD_TREE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "partition/partitioning.h"

namespace airindex::partition {

/// Kd-tree partitioning (§4.1, Fig. 2): the network is split recursively by
/// axis-parallel lines through the median coordinate of the contained nodes,
/// alternating axes. The paper's example starts with a horizontal line
/// (split on y), so depth-even levels split on y and depth-odd levels on x.
///
/// The tree is *implicit*: the index's first component is just the n-1 split
/// values in breadth-first order, from which a client rebuilds the whole
/// partitioning (this class is constructible from that sequence alone).
/// Region numbering follows the paper's convention — leaves left-to-right,
/// where the below/left child precedes the above/right child — which makes
/// region ids the top-down concatenation of split decisions.
class KdTreePartitioner {
 public:
  /// Builds a partitioner with `num_regions` (a power of two >= 2) leaves by
  /// recursive median splits of the node coordinates.
  static Result<KdTreePartitioner> Build(const graph::Graph& g,
                                         uint32_t num_regions);

  /// Rebuilds a partitioner from the broadcast split sequence (num_regions-1
  /// values in BFS order). This is the client-side path.
  static Result<KdTreePartitioner> FromSplits(std::vector<double> splits_bfs);

  uint32_t num_regions() const { return num_regions_; }
  uint32_t depth() const { return depth_; }

  /// Split values in breadth-first order; exactly num_regions()-1 values.
  /// This is what goes on air as the index's first component.
  const std::vector<double>& splits_bfs() const { return splits_; }

  /// Region containing an arbitrary Euclidean location. The paper's clients
  /// call this to locate R_s and R_t from the query coordinates.
  graph::RegionId RegionOf(graph::Point p) const;

  /// Labels every node of `g` (RegionOf applied to each coordinate).
  Partitioning Partition(const graph::Graph& g) const;

 private:
  KdTreePartitioner() = default;

  // splits_ is a 1-based implicit complete binary tree flattened in BFS
  // order: entry i (0-based) is heap node i+1 with children 2(i+1) and
  // 2(i+1)+1. Axis of heap level L (root = level 0): y when L is even.
  std::vector<double> splits_;
  uint32_t num_regions_ = 0;
  uint32_t depth_ = 0;
};

/// Region of `p` under a broadcast split sequence (`splits_bfs`, BFS order,
/// 2^d - 1 values for d >= 1): the descent RegionOf makes, read straight
/// from the caller's splits, so a client maps a coordinate without copying
/// the sequence or allocating. A sequence of any other length is an error.
Result<graph::RegionId> KdRegionOf(std::span<const double> splits_bfs,
                                   graph::Point p);

}  // namespace airindex::partition

#endif  // AIRINDEX_PARTITION_KD_TREE_H_
