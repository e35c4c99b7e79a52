#include "algo/landmark.h"

#include <algorithm>

#include "algo/dijkstra.h"
#include "common/rng.h"

namespace airindex::algo {

Result<LandmarkIndex> LandmarkIndex::Build(const graph::Graph& g,
                                           uint32_t num_landmarks,
                                           uint64_t seed) {
  const size_t n = g.num_nodes();
  if (n == 0) return Status::InvalidArgument("empty graph");
  if (num_landmarks == 0 || num_landmarks > n) {
    return Status::InvalidArgument("num_landmarks out of range");
  }

  LandmarkIndex idx;
  graph::Graph rev = g.Reversed();
  Rng rng(seed);

  // Farthest-point selection: the first landmark is the node farthest from a
  // random start; each next landmark maximizes the minimum distance to the
  // already-chosen set. This is the selection heuristic of Goldberg &
  // Harrelson that the paper cites. A landmark's forward search is both its
  // distance vector and what the next round folds into `min_dist`, so
  // selection costs one search beyond the vectors' own.
  SearchWorkspace ws;
  auto all_dists = [&](const graph::Graph& graph, NodeId source) {
    DijkstraAll(graph, source, ws);
    std::vector<Dist> dist(n);
    for (NodeId v = 0; v < n; ++v) dist[v] = ws.DistTo(v);
    return dist;
  };
  const NodeId start = static_cast<NodeId>(rng.NextBounded(n));
  const std::vector<Dist> from_start = all_dists(g, start);
  std::vector<Dist> min_dist(n, kInfDist);
  idx.from_.reserve(num_landmarks);
  for (uint32_t l = 0; l < num_landmarks; ++l) {
    // Distances from the start (round 0) or from the last landmark.
    const std::vector<Dist>& dist = l == 0 ? from_start : idx.from_.back();
    NodeId farthest = l == 0 ? start : idx.landmarks_.back();
    Dist best = 0;
    for (NodeId v = 0; v < n; ++v) {
      if (dist[v] == kInfDist) continue;
      min_dist[v] = std::min(min_dist[v], dist[v]);
      if (min_dist[v] >= best &&
          std::find(idx.landmarks_.begin(), idx.landmarks_.end(), v) ==
              idx.landmarks_.end()) {
        best = min_dist[v];
        farthest = v;
      }
    }
    if (l == 0) {
      // Restart the min-distance bookkeeping from the true first landmark.
      min_dist.assign(n, kInfDist);
    }
    idx.landmarks_.push_back(farthest);
    idx.from_.push_back(all_dists(g, farthest));
  }
  idx.to_.reserve(num_landmarks);
  for (NodeId landmark : idx.landmarks_) {
    idx.to_.push_back(all_dists(rev, landmark));
  }
  return idx;
}

LandmarkIndex LandmarkIndex::FromVectors(
    std::vector<graph::NodeId> landmarks,
    std::vector<std::vector<graph::Dist>> from,
    std::vector<std::vector<graph::Dist>> to) {
  LandmarkIndex idx;
  idx.landmarks_ = std::move(landmarks);
  idx.from_ = std::move(from);
  idx.to_ = std::move(to);
  return idx;
}

graph::Dist LandmarkIndex::LowerBound(graph::NodeId v,
                                      graph::NodeId t) const {
  Dist best = 0;
  for (uint32_t l = 0; l < num_landmarks(); ++l) {
    const Dist vt_to = to_[l][v];    // d(v, L)
    const Dist tt_to = to_[l][t];    // d(t, L)
    const Dist vf = from_[l][v];     // d(L, v)
    const Dist tf = from_[l][t];     // d(L, t)
    if (vt_to != kInfDist && tt_to != kInfDist && vt_to > tt_to) {
      best = std::max(best, vt_to - tt_to);
    }
    if (vf != kInfDist && tf != kInfDist && tf > vf) {
      best = std::max(best, tf - vf);
    }
  }
  return best;
}

size_t LandmarkIndex::MemoryBytes() const {
  size_t bytes = landmarks_.size() * sizeof(graph::NodeId);
  for (const auto& v : from_) bytes += v.size() * sizeof(graph::Dist);
  for (const auto& v : to_) bytes += v.size() * sizeof(graph::Dist);
  return bytes;
}

}  // namespace airindex::algo
