#include "algo/spq.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <numeric>

#include "algo/dijkstra.h"
#include "common/thread_pool.h"

namespace airindex::algo {
namespace {

using graph::NodeId;
using graph::Point;

constexpr int kMaxDepth = 60;

/// Recursive coloured-quadtree builder over point indexes. Splits until a
/// cell is empty, single-coloured, or (pathologically, e.g. duplicate
/// coordinates in imported data) kMaxDepth is hit, in which case the first
/// colour wins — documented limitation, unreachable for generated networks.
struct QtBuilder {
  const std::vector<Point>& pts;
  const std::vector<int32_t>& colors;
  std::vector<SpqIndex::QtNode>* out;

  int32_t BuildCell(std::vector<uint32_t>& items, double x, double y,
                    double size, int depth) {
    const auto idx = static_cast<int32_t>(out->size());
    out->emplace_back();
    if (items.empty()) {
      (*out)[idx].color = SpqIndex::QtNode::kNoColor;
      return idx;
    }
    bool uniform = true;
    for (uint32_t i : items) {
      if (colors[i] != colors[items[0]]) {
        uniform = false;
        break;
      }
    }
    if (uniform || depth >= kMaxDepth) {
      (*out)[idx].color = colors[items[0]];
      return idx;
    }

    const double half = size / 2;
    std::vector<uint32_t> quads[4];
    for (uint32_t i : items) {
      const int q = (pts[i].x >= x + half ? 1 : 0) +
                    (pts[i].y >= y + half ? 2 : 0);
      quads[q].push_back(i);
    }
    items.clear();
    items.shrink_to_fit();
    for (int q = 0; q < 4; ++q) {
      const double cx = x + (q & 1 ? half : 0);
      const double cy = y + (q & 2 ? half : 0);
      const int32_t child = BuildCell(quads[q], cx, cy, half, depth + 1);
      (*out)[idx].child[q] = child;
    }
    (*out)[idx].color = SpqIndex::QtNode::kNoColor;
    return idx;
  }
};

/// First-hop arc ordinal at `source` for every node, derived from one full
/// Dijkstra in `ws`: process nodes by increasing distance and inherit the
/// parent's colour (direct children of source get their arc's ordinal).
std::vector<int32_t> FirstHopColors(const graph::Graph& g, NodeId source,
                                    SearchWorkspace& ws) {
  DijkstraAll(g, source, ws);
  const size_t n = g.num_nodes();
  std::vector<int32_t> colors(n, SpqIndex::QtNode::kNoColor);

  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return ws.DistTo(a) < ws.DistTo(b);
  });

  auto arcs = g.OutArcs(source);
  for (NodeId v : order) {
    if (v == source || ws.DistTo(v) == graph::kInfDist) continue;
    const NodeId p = ws.ParentOf(v);
    if (p == source) {
      // Ordinal of arc source->v (adjacency is sorted by head id).
      size_t lo = 0, hi = arcs.size();
      while (lo < hi) {
        size_t mid = (lo + hi) / 2;
        if (arcs[mid].to < v) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      colors[v] = static_cast<int32_t>(lo);
    } else {
      colors[v] = colors[p];
    }
  }
  return colors;
}

struct RootCell {
  double min_x, min_y, size;
};

RootCell ComputeRootCell(const graph::Graph& g) {
  double min_x = std::numeric_limits<double>::max(), max_x = -min_x;
  double min_y = min_x, max_y = -min_x;
  for (const auto& p : g.coords()) {
    min_x = std::min(min_x, p.x);
    max_x = std::max(max_x, p.x);
    min_y = std::min(min_y, p.y);
    max_y = std::max(max_y, p.y);
  }
  // Slightly padded square so every point is strictly inside.
  const double size = std::max(max_x - min_x, max_y - min_y) * 1.0001 + 1.0;
  return {min_x, min_y, size};
}

SpqIndex::Tree BuildTreeFor(const graph::Graph& g, NodeId source,
                            const RootCell& root, SearchWorkspace& ws) {
  SpqIndex::Tree tree;
  std::vector<int32_t> colors = FirstHopColors(g, source, ws);
  std::vector<uint32_t> items;
  items.reserve(g.num_nodes() - 1);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (v != source) items.push_back(v);
  }
  QtBuilder builder{g.coords(), colors, &tree.nodes};
  builder.BuildCell(items, root.min_x, root.min_y, root.size, 0);
  return tree;
}

}  // namespace

Result<SpqIndex> SpqIndex::Build(const graph::Graph& g,
                                 unsigned num_threads) {
  if (g.num_nodes() < 2) return Status::InvalidArgument("graph too small");
  SpqIndex idx;
  const RootCell root = ComputeRootCell(g);
  idx.min_x_ = root.min_x;
  idx.min_y_ = root.min_y;
  idx.size_ = root.size;
  idx.trees_.resize(g.num_nodes());
  std::vector<SearchWorkspace> ws(ResolveWorkers(g.num_nodes(), num_threads));
  ParallelForWorker(
      g.num_nodes(),
      [&](unsigned worker, size_t v) {
        idx.trees_[v] =
            BuildTreeFor(g, static_cast<NodeId>(v), root, ws[worker]);
      },
      num_threads);
  return idx;
}

Result<size_t> SpqIndex::BuildSizeOnly(const graph::Graph& g) {
  if (g.num_nodes() < 2) return Status::InvalidArgument("graph too small");
  const RootCell root = ComputeRootCell(g);
  std::atomic<size_t> total{0};
  std::vector<SearchWorkspace> ws(ResolveWorkers(g.num_nodes(), 0));
  ParallelForWorker(g.num_nodes(), [&](unsigned worker, size_t v) {
    Tree tree = BuildTreeFor(g, static_cast<NodeId>(v), root, ws[worker]);
    total.fetch_add(TreeBytes(tree), std::memory_order_relaxed);
  });
  return total.load();
}

SpqIndex SpqIndex::FromParts(double min_x, double min_y, double size,
                             std::vector<Tree> trees) {
  SpqIndex idx;
  idx.min_x_ = min_x;
  idx.min_y_ = min_y;
  idx.size_ = size;
  idx.trees_ = std::move(trees);
  return idx;
}

int32_t SpqIndex::ColorOf(graph::NodeId v, graph::Point p) const {
  if (v >= trees_.size() || trees_[v].nodes.empty()) return QtNode::kNoColor;
  const Tree& tree = trees_[v];
  double x = min_x_, y = min_y_, size = size_;
  int32_t cur = 0;
  while (!tree.nodes[cur].is_leaf()) {
    const double half = size / 2;
    const int q = (p.x >= x + half ? 1 : 0) + (p.y >= y + half ? 2 : 0);
    x += (q & 1) ? half : 0;
    y += (q & 2) ? half : 0;
    size = half;
    cur = tree.nodes[cur].child[q];
  }
  return tree.nodes[cur].color;
}

size_t SpqIndex::TreeBytes(const Tree& tree) {
  size_t bytes = 0;
  for (const auto& node : tree.nodes) {
    bytes += node.is_leaf() ? 3 : 1;  // tag + u16 colour for leaves
  }
  return bytes;
}

size_t SpqIndex::IndexBytes() const {
  size_t bytes = 0;
  for (const auto& tree : trees_) bytes += TreeBytes(tree);
  return bytes;
}

size_t SpqIndex::MemoryBytes() const {
  size_t bytes = 0;
  for (const auto& tree : trees_) {
    bytes += tree.nodes.size() * sizeof(QtNode);
  }
  return bytes;
}

}  // namespace airindex::algo
