#ifndef AIRINDEX_CORE_CLIENT_RUN_H_
#define AIRINDEX_CORE_CLIENT_RUN_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>

#include "broadcast/channel.h"
#include "broadcast/serialization.h"
#include "common/status.h"
#include "core/air_system.h"
#include "core/query_scratch.h"
#include "device/memory_tracker.h"
#include "device/metrics.h"
#include "graph/types.h"

namespace airindex::core {

/// The graph the paper's AF, SPQ and HiTi clients rebuild (§3.2) from the
/// cycle's records: an edge list, then a CSR graph::Graph. These clients
/// search scratch().partial_graph instead (docs/perf.md, "Full-cycle
/// clients without a per-query graph rebuild"); CsrRebuild models the
/// rebuild's memory and the records it rejects. DecodeIntoPartialGraph
/// fills it.
struct CsrRebuild {
  /// Modeled client memory of a record decoded into the edge list: the
  /// <id, x, y> tuple per record, a <from, to, weight> triplet per arc.
  static constexpr size_t kEdgeListRecordBytes = 20;
  static constexpr size_t kEdgeListArcBytes = 12;

  /// The node count the system was built with.
  size_t network_nodes = 0;
  /// What the decoded records hold: arcs, one past the largest record id
  /// and arc head, and whether an arc is a self-loop.
  size_t arcs = 0;
  size_t id_bound = 0;
  size_t head_bound = 0;
  bool self_loop = false;

  /// The rebuilt graph's node count: a node per id up to the largest
  /// received one, at least the network's. A node without a record holds
  /// no arcs and sits at Point{}.
  size_t nodes() const { return std::max(network_nodes, id_bound); }

  /// Whether the rebuild rejects the records, as graph::Graph's CSR build
  /// does: an arc head at or past nodes(), or a self-loop.
  bool Rejected() const { return self_loop || head_bound > nodes(); }

  /// The rebuilt graph as graph::Graph::MemoryBytes counts it: (n + 1)
  /// four-byte offsets, m eight-byte arcs and n 16-byte coordinates.
  size_t ModeledCsrBytes() const {
    const size_t n = nodes();
    return (n + 1) * 4 + arcs * 8 + n * 16;
  }
};

/// The skeleton every client query is built on. The paper's methods share
/// one client protocol (tune in, doze, receive, decode, search locally)
/// and are scored by the same numbers; ClientRun holds the state that
/// protocol keeps and turns it into QueryMetrics, so a RunQuery body is
/// only its algorithm:
///   * `session`: the radio, opened at the start position the caller
///     passes (StartPosition);
///   * `memory`: the client working-memory account, budgeted by
///     ClientOptions::heap_bytes;
///   * `scratch()`: the caller's QueryScratch;
///   * `cpu_ms`: the client computation time the body accumulates.
///
/// Construction readies the scratch for the query (BeginQuery and the
/// session cache's per-query counters).
class ClientRun {
 public:
  ClientRun(const broadcast::BroadcastChannel& channel, uint64_t start_pos,
            const ClientOptions& options, QueryScratch& scratch);

  QueryScratch& scratch() const { return scratch_; }

  /// Tunes in on an indexed cycle: listens until a packet arrives (at most
  /// `max_probes` packets), then receives the index copy its header points
  /// at into `out` (that very copy when the packet starts one). Returns the
  /// copy's start, or nullopt when every probe was lost.
  std::optional<uint32_t> ReceiveNextIndex(broadcast::ReceivedSegment* out,
                                           int max_probes);

  /// The gate every decode of network data passes: the segment is
  /// complete, and its payload is well-formed in the cycle's own format
  /// (BroadcastCycle::encoding and data_layout; memoized through
  /// scratch().decode_cache). An incomplete segment, force-delivered once
  /// the repair budget ran out, has zero bytes for holes that can still
  /// parse, as garbage ids and arcs; the receive already reports DataLoss
  /// for it.
  bool Decodable(const broadcast::ReceivedSegment& seg) const;

  /// Decodes a record-blob segment into scratch().partial_graph. With a
  /// `rebuild` (AF, SPQ, HiTi), also charges the edge list it models to
  /// `memory` and grows its counts and extent. A segment Decodable rejects
  /// adds nothing.
  void DecodeIntoPartialGraph(const broadcast::ReceivedSegment& seg,
                              CsrRebuild* rebuild = nullptr);

  /// The query's metrics: every radio, memory and cache field from this
  /// run, plus the answer. Method-specific fields (regions_received) are
  /// the caller's to set on the result. Failed queries report what the
  /// radio did too: call Finish(graph::kInfDist, false).
  device::QueryMetrics Finish(graph::Dist distance, bool ok) const;

  /// Finish for the full-cycle methods (DJ, LD, AF, SPQ, HiTi): ok only
  /// when the `receive` status is ok, the search reached the target, and
  /// the decoded records cover the system's `network_nodes` nodes. A
  /// segment the cycle lacks never arrives and one Decodable refuses adds
  /// nothing, both with the receive status ok; a search over the remaining
  /// records can still reach the target, over a longer path.
  device::QueryMetrics FinishFullCycle(graph::Dist distance,
                                       const Status& receive,
                                       size_t network_nodes) const;

  broadcast::ClientSession session;
  device::MemoryTracker memory;
  double cpu_ms = 0.0;

 private:
  QueryScratch& scratch_;
};

}  // namespace airindex::core

#endif  // AIRINDEX_CORE_CLIENT_RUN_H_
