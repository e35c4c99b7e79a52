#ifndef AIRINDEX_ALGO_ARC_FLAGS_H_
#define AIRINDEX_ALGO_ARC_FLAGS_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "algo/search_workspace.h"
#include "common/byte_io.h"
#include "common/result.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace airindex::algo {

/// ArcFlag pre-computation (§2.1, Köhler et al.): given a node partition,
/// every arc carries a bit vector with one bit per region; the bit for
/// region R is set iff the arc lies on a shortest path toward some node in
/// R. A query toward target t then only relaxes arcs whose bit for t's
/// region is set.
///
/// Flags are computed from backward shortest-path trees: for every border
/// node b (an endpoint of an arc that crosses regions, so every node a
/// query can enter its target region at), every arc of the backward tree
/// toward b is flagged for b's region. Arcs whose head lies in R are
/// flagged for R unconditionally so the search can move within the target
/// region.
class ArcFlagIndex {
 public:
  /// `node_region[v]` maps each node to its region id in
  /// [0, num_regions). Works on the network's 2-core with its chains
  /// contracted: one backward graph::KernelSearch per root that border
  /// nodes reach (a core border node is its own root), on up to
  /// `num_threads` workers (0 = one per available CPU), then one sweep
  /// per chain and linear passes over the pendant trees. The flags do not
  /// depend on `num_threads`.
  static Result<ArcFlagIndex> Build(const graph::Graph& g,
                                    const std::vector<graph::RegionId>&
                                        node_region,
                                    uint32_t num_regions,
                                    unsigned num_threads = 0);

  uint32_t num_regions() const { return num_regions_; }
  size_t words_per_arc() const { return words_per_arc_; }

  /// True iff arc #`arc_index` (position in the graph's CSR arc array) may
  /// lie on a shortest path into `region`.
  bool ArcAllowed(size_t arc_index, graph::RegionId region) const {
    const uint64_t word =
        flags_[arc_index * words_per_arc_ + region / 64];
    return (word >> (region % 64)) & 1;
  }

  /// Sets the flag (used when deserializing broadcast data and by the
  /// packet-loss fallback that treats lost flag packets as all-ones).
  void SetArcFlag(size_t arc_index, graph::RegionId region) {
    flags_[arc_index * words_per_arc_ + region / 64] |=
        uint64_t{1} << (region % 64);
  }

  /// Marks every region bit of an arc (the §6.2 loss fallback).
  void SetAllFlags(size_t arc_index);

  /// Dijkstra restricted to arcs flagged for `t`'s region, run inside the
  /// caller's workspace (no allocation in steady state beyond the returned
  /// path; ws.settled() counts the settled nodes).
  graph::Path Query(const graph::Graph& g, graph::NodeId s, graph::NodeId t,
                    SearchWorkspace& ws) const;

  /// Bytes of flag data per arc when broadcast: two bytes per region.
  /// Working the paper's own Table 1 backwards — (29233 - 14019) packets x
  /// 128 B over Germany's 60 858 directed arcs at the tuned 16 regions —
  /// gives almost exactly 2 bytes per region per arc, so that is the wire
  /// format we reproduce. Drives the AF row of Table 1.
  size_t BytesPerArc() const { return 2 * static_cast<size_t>(num_regions_); }

  size_t MemoryBytes() const { return flags_.size() * sizeof(uint64_t); }

  /// Raw flag words for arc `arc_index` (serialization helper).
  const uint64_t* ArcWords(size_t arc_index) const {
    return flags_.data() + arc_index * words_per_arc_;
  }

  /// Creates an empty (all-zero) index to be filled via SetArcFlag
  /// (deserialization path).
  static ArcFlagIndex MakeEmpty(size_t num_arcs, uint32_t num_regions,
                                std::vector<graph::RegionId> node_region);

  const std::vector<graph::RegionId>& node_region() const {
    return node_region_;
  }

 private:
  ArcFlagIndex() = default;

  uint32_t num_regions_ = 0;
  size_t words_per_arc_ = 0;
  std::vector<graph::RegionId> node_region_;
  // flags_[arc * words_per_arc_ + w]: bit r%64 of word r/64 = region r.
  std::vector<uint64_t> flags_;
};

/// Flag words per arc for `num_regions` regions (bit r % 64 of word r / 64
/// is region r), as ArcFlagIndex lays them out.
inline size_t ArcFlagWords(uint32_t num_regions) {
  return (static_cast<size_t>(num_regions) + 63) / 64;
}

/// Packs one arc's broadcast flag vector — `num_regions` little-endian u16
/// lanes at `wire` (ArcFlagIndex::BytesPerArc bytes), a nonzero lane
/// meaning the region's flag is set — into its ArcFlagWords(num_regions)
/// flag words at `out`, overwriting them. Four lanes at a time, without a
/// branch per region: fold each lane's high byte into its low byte, turn
/// "low byte nonzero" into the lane's bit 0 by a carry out of +0xFF, then
/// gather the four lane bits (at 0, 16, 32, 48) into bits 45..48 with one
/// multiply.
inline void PackArcFlags(const uint8_t* wire, uint32_t num_regions,
                         uint64_t* out) {
  constexpr uint64_t kLowBytes = 0x00FF00FF00FF00FFULL;
  constexpr uint64_t kLaneBit0 = 0x0001000100010001ULL;
  // Lane bit j (at 16j) lands at 16j + 45 - 15j = 45 + j; no two partial
  // products share a bit position, so nothing carries into 45..48.
  constexpr uint64_t kGather = 0x0000200040008001ULL;
  const size_t words = ArcFlagWords(num_regions);
  uint32_t r = 0;
  for (size_t w = 0; w < words; ++w) {
    // A word holds 64 lanes, a multiple of four: no group straddles two.
    const uint32_t end =
        static_cast<uint32_t>(std::min<size_t>(num_regions, 64 * (w + 1)));
    uint64_t word = 0;
    for (; r + 4 <= end; r += 4) {
      const uint64_t x = GetU64(wire + 2 * static_cast<size_t>(r));
      const uint64_t nonzero = (x | (x >> 8)) & kLowBytes;
      const uint64_t bits = ((nonzero + kLowBytes) >> 8) & kLaneBit0;
      word |= ((bits * kGather) >> 45 & 0xF) << (r % 64);
    }
    for (; r < end; ++r) {
      word |= static_cast<uint64_t>(
                  GetU16(wire + 2 * static_cast<size_t>(r)) != 0)
              << (r % 64);
    }
    out[w] = word;
  }
}

}  // namespace airindex::algo

#endif  // AIRINDEX_ALGO_ARC_FLAGS_H_
