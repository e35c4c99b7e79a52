#ifndef AIRINDEX_ALGO_LANDMARK_H_
#define AIRINDEX_ALGO_LANDMARK_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace airindex::algo {

/// Landmark (ALT) pre-computation (§2.1): a handful of anchor nodes are
/// chosen and every node stores its graph distance to and from each anchor.
/// The triangle inequality over these vectors yields an admissible lower
/// bound that guides A*.
class LandmarkIndex {
 public:
  /// Builds an index with `num_landmarks` anchors chosen by farthest-point
  /// selection (seeded deterministically), running 2*num_landmarks + 1 full
  /// Dijkstras: one from a random start, then one per landmark forward and
  /// one on the reverse graph.
  static Result<LandmarkIndex> Build(const graph::Graph& g,
                                     uint32_t num_landmarks,
                                     uint64_t seed = 17);

  uint32_t num_landmarks() const {
    return static_cast<uint32_t>(landmarks_.size());
  }
  const std::vector<graph::NodeId>& landmarks() const { return landmarks_; }

  /// d(landmark[l] -> v).
  graph::Dist FromLandmark(uint32_t l, graph::NodeId v) const {
    return from_[l][v];
  }
  /// d(v -> landmark[l]).
  graph::Dist ToLandmark(uint32_t l, graph::NodeId v) const {
    return to_[l][v];
  }

  /// Admissible lower bound on d(v, t):
  ///   max_l max( d(v,L) - d(t,L),  d(L,t) - d(L,v) ).
  graph::Dist LowerBound(graph::NodeId v, graph::NodeId t) const;

  /// Bytes of pre-computed data per node when broadcast: 2 distance values
  /// (to + from) of 4 bytes per landmark. Drives the LD cycle size (Table 1).
  size_t BytesPerNode() const { return num_landmarks() * 2 * 4; }

  /// Total in-memory size of the distance vectors.
  size_t MemoryBytes() const;

  /// Constructs an index directly from distance vectors (used by the
  /// broadcast client after deserialization).
  static LandmarkIndex FromVectors(std::vector<graph::NodeId> landmarks,
                                   std::vector<std::vector<graph::Dist>> from,
                                   std::vector<std::vector<graph::Dist>> to);

 private:
  LandmarkIndex() = default;

  std::vector<graph::NodeId> landmarks_;
  // from_[l][v] = d(landmark_l, v); to_[l][v] = d(v, landmark_l).
  std::vector<std::vector<graph::Dist>> from_;
  std::vector<std::vector<graph::Dist>> to_;
};

}  // namespace airindex::algo

#endif  // AIRINDEX_ALGO_LANDMARK_H_
