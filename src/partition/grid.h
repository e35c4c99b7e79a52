#ifndef AIRINDEX_PARTITION_GRID_H_
#define AIRINDEX_PARTITION_GRID_H_

#include <cstdint>

#include "common/result.h"
#include "graph/graph.h"
#include "partition/partitioning.h"

namespace airindex::partition {

/// Regular-grid partitioning (§4.1's "straightforward approach"): a k x m
/// grid of equi-sized cells over the network extent. The paper dismisses it
/// because cell populations are highly skewed; we keep it as the ablation
/// baseline (`airindex_cli paper ablation-partitioning`).
class GridPartitioner {
 public:
  /// Builds a cols x rows grid covering the bounding box of `g`'s nodes.
  static Result<GridPartitioner> Build(const graph::Graph& g, uint32_t cols,
                                       uint32_t rows);

  uint32_t num_regions() const { return cols_ * rows_; }
  uint32_t cols() const { return cols_; }
  uint32_t rows() const { return rows_; }

  /// Cell containing `p` (clamped to the grid). Region id is
  /// row-major: row * cols + col.
  graph::RegionId RegionOf(graph::Point p) const;

  Partitioning Partition(const graph::Graph& g) const;

 private:
  GridPartitioner() = default;

  uint32_t cols_ = 0, rows_ = 0;
  double min_x_ = 0, min_y_ = 0, cell_w_ = 1, cell_h_ = 1;
};

}  // namespace airindex::partition

#endif  // AIRINDEX_PARTITION_GRID_H_
