#ifndef AIRINDEX_CORE_ARCFLAG_ON_AIR_H_
#define AIRINDEX_CORE_ARCFLAG_ON_AIR_H_

#include <cstdint>
#include <memory>
#include <span>

#include "algo/arc_flags.h"
#include "broadcast/channel.h"
#include "common/result.h"
#include "core/air_system.h"
#include "core/cycle_common.h"
#include "graph/graph.h"
#include "partition/kd_tree.h"

namespace airindex::core {

/// Broadcast adaptation of ArcFlag (§3.2): the cycle carries the network
/// data plus one flag vector per arc (a bit per kd-tree region), kept in
/// separate segments from the adjacency so a single lost packet cannot take
/// out both (§6.2). The client listens to the whole cycle and then runs the
/// flag-restricted Dijkstra.
///
/// Packet-loss fallback (§6.2): lost flag packets make the affected arcs'
/// vectors all-ones (never pruned — correct, just slower); lost adjacency is
/// repaired on later cycles.
class ArcFlagOnAir : public AirSystem {
 public:
  static Result<std::unique_ptr<ArcFlagOnAir>> Build(
      const graph::Graph& g, uint32_t num_regions,
      const BuildConfig& config = {});

  std::string_view name() const override { return "AF"; }
  const broadcast::BroadcastCycle& cycle() const override { return cycle_; }
  device::QueryMetrics RunQuery(const broadcast::BroadcastChannel& channel,
                                const AirQuery& query,
                                const ClientOptions& options,
                                QueryScratch* scratch) const override;
  double precompute_seconds() const override { return precompute_seconds_; }

  const algo::ArcFlagIndex& index() const { return index_; }

 private:
  ArcFlagOnAir()
      : index_(algo::ArcFlagIndex::MakeEmpty(0, 1, {})) {}

  broadcast::BroadcastCycle cycle_;
  algo::ArcFlagIndex index_;
  std::vector<double> splits_;
  uint32_t num_regions_ = 0;
  uint32_t num_nodes_ = 0;
  uint32_t num_arcs_ = 0;
  double precompute_seconds_ = 0.0;
};

/// Decodes one received AF flag segment (aux segment id >= 1; its arcs
/// start at (id - 1) * 4096 in the server's CSR order) into `flags`, a
/// flag array of algo::ArcFlagWords(num_regions) words per arc, via
/// algo::PackArcFlags. Arcs whose bytes a lost packet touched become
/// all-ones (§6.2); arcs past the end of `flags` are ignored.
void DecodeArcFlagSegment(const broadcast::ReceivedSegment& seg,
                          uint32_t num_regions, std::span<uint64_t> flags);

}  // namespace airindex::core

#endif  // AIRINDEX_CORE_ARCFLAG_ON_AIR_H_
