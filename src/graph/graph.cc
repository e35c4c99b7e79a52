#include "graph/graph.h"

#include <algorithm>
#include <bit>
#include <numeric>

namespace airindex::graph {

Result<Graph> Graph::Build(std::vector<Point> coords,
                           const std::vector<EdgeTriplet>& edges) {
  const size_t n = coords.size();
  for (const auto& e : edges) {
    if (e.from >= n || e.to >= n) {
      return Status::InvalidArgument("edge endpoint out of range");
    }
    if (e.from == e.to) {
      return Status::InvalidArgument("self-loops are not allowed");
    }
  }

  Graph g;
  g.coords_ = std::move(coords);
  const size_t m = edges.size();

  // Adjacency spans must end up sorted by target id (deterministic
  // iteration, binary-searchable adjacency). Instead of placing arcs per
  // source and sorting each span (O(m log d)), run a two-pass stable
  // counting sort over the whole arc list — first by `to`, then by `from` —
  // which is O(n + m) and leaves every span sorted by `to`, with parallel
  // arcs in input order (equivalent to a per-span stable sort by `to`).
  std::vector<EdgeTriplet> by_to(m);
  {
    std::vector<uint32_t> cursor(n + 1, 0);
    for (const auto& e : edges) cursor[e.to + 1]++;
    std::partial_sum(cursor.begin(), cursor.end(), cursor.begin());
    for (const auto& e : edges) by_to[cursor[e.to]++] = e;
  }

  g.offsets_.assign(n + 1, 0);
  for (const auto& e : edges) g.offsets_[e.from + 1]++;
  std::partial_sum(g.offsets_.begin(), g.offsets_.end(), g.offsets_.begin());

  g.arcs_.resize(m);
  std::vector<uint32_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const auto& e : by_to) {
    g.arcs_[cursor[e.from]++] = {e.to, e.weight};
  }
  return g;
}

Graph Graph::Reversed() const {
  // A counting sort of the arcs by target. Sources are visited in
  // ascending order, so every reversed span comes out sorted by its
  // target, parallel arcs in their original order: the graph Build makes
  // of the reversed triplets, without the triplets or Build's sort.
  const size_t n = num_nodes();
  Graph r;
  r.coords_ = coords_;
  r.offsets_.assign(n + 1, 0);
  for (const Arc& a : arcs_) ++r.offsets_[a.to + 1];
  std::partial_sum(r.offsets_.begin(), r.offsets_.end(), r.offsets_.begin());
  r.arcs_.resize(arcs_.size());
  std::vector<uint32_t> cursor(r.offsets_.begin(), r.offsets_.end() - 1);
  for (NodeId v = 0; v < n; ++v) {
    for (const Arc& a : OutArcs(v)) r.arcs_[cursor[a.to]++] = {v, a.weight};
  }
  return r;
}

size_t Graph::MemoryBytes() const {
  return offsets_.size() * sizeof(uint32_t) + arcs_.size() * sizeof(Arc) +
         coords_.size() * sizeof(Point);
}

uint64_t Fingerprint(const Graph& g) {
  // One multiply-xorshift step per 64-bit word (each step is a bijection of
  // the state for a fixed word), then a splitmix64 finalizer.
  uint64_t h = 0x243F6A8885A308D3ULL;
  auto add = [&h](uint64_t word) {
    h = (h ^ word) * 0x9E3779B97F4A7C15ULL;
    h ^= h >> 29;
  };
  add(g.num_nodes());
  add(g.num_arcs());
  for (uint32_t offset : g.offsets_) add(offset);
  for (const Graph::Arc& a : g.arcs_) {
    add(uint64_t{a.to} << 32 | a.weight);
  }
  for (const Point& p : g.coords_) {
    add(std::bit_cast<uint64_t>(p.x));
    add(std::bit_cast<uint64_t>(p.y));
  }
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBULL;
  h ^= h >> 31;
  return h;
}

bool Graph::IsStronglyConnected() const {
  const size_t n = num_nodes();
  if (n == 0) return true;

  // BFS reachability from node 0 in G and in G^T.
  auto reaches_all = [n](const Graph& g) {
    std::vector<uint8_t> seen(n, 0);
    std::vector<NodeId> stack = {0};
    seen[0] = 1;
    size_t count = 1;
    while (!stack.empty()) {
      NodeId v = stack.back();
      stack.pop_back();
      for (const Arc& a : g.OutArcs(v)) {
        if (!seen[a.to]) {
          seen[a.to] = 1;
          ++count;
          stack.push_back(a.to);
        }
      }
    }
    return count == n;
  };

  if (!reaches_all(*this)) return false;
  return reaches_all(Reversed());
}

}  // namespace airindex::graph
