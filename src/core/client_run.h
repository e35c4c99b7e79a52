#ifndef AIRINDEX_CORE_CLIENT_RUN_H_
#define AIRINDEX_CORE_CLIENT_RUN_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "broadcast/channel.h"
#include "broadcast/serialization.h"
#include "core/air_system.h"
#include "core/query_scratch.h"
#include "device/memory_tracker.h"
#include "device/metrics.h"
#include "graph/types.h"

namespace airindex::core {

/// The skeleton every client query is built on. The paper's methods share
/// one client protocol (tune in, doze, receive, decode, search locally)
/// and are scored by the same numbers; ClientRun holds the state that
/// protocol keeps and turns it into QueryMetrics, so a RunQuery body is
/// only its algorithm:
///   * `session`: the radio, opened at the start position the caller
///     passes (StartPosition for RunQuery, TuneInPosition for the kNN and
///     range clients);
///   * `memory`: the client working-memory account, budgeted by
///     ClientOptions::heap_bytes;
///   * `scratch()`: the caller's QueryScratch, or a throwaway one this run
///     owns when the caller passed null. This is the one place that
///     handles a null scratch;
///   * `cpu_ms`: the client computation time the body accumulates.
///
/// Construction readies the scratch for the query (BeginQuery and the
/// session cache's per-query counters).
class ClientRun {
 public:
  ClientRun(const broadcast::BroadcastChannel& channel, uint64_t start_pos,
            const ClientOptions& options, QueryScratch* scratch);

  QueryScratch& scratch() const { return *scratch_; }

  /// Tunes in on an indexed cycle: listens until a packet arrives (at most
  /// `max_probes` packets), then receives the index copy its header points
  /// at into `out` (that very copy when the packet starts one). Returns the
  /// copy's start, or nullopt when every probe was lost.
  std::optional<uint32_t> ReceiveNextIndex(broadcast::ReceivedSegment* out,
                                           int max_probes);

  /// Modeled client memory of a network record decoded into an edge list:
  /// the <id, x, y> tuple per record, a <from, to, weight> triplet per arc.
  static constexpr size_t kEdgeListRecordBytes = 20;
  static constexpr size_t kEdgeListArcBytes = 12;

  /// What one network-data segment added: its counts, and the extent a
  /// client that rebuilds a CSR graph checks (the node count must cover
  /// every id and head; a self-loop is rejected).
  struct DecodedRecords {
    size_t records = 0;
    size_t arcs = 0;
    size_t id_bound = 0;    // one past the largest record id
    size_t head_bound = 0;  // one past the largest arc head
    bool self_loop = false;
  };

  /// Decodes a network-data segment into scratch().partial_graph (DJ, LD,
  /// AF) and returns what it added; the modeled charge is the caller's. A
  /// segment that is incomplete (force-delivered once the repair budget
  /// ran out: its holes are zero bytes) or fails validation adds nothing.
  DecodedRecords DecodeIntoPartialGraph(const broadcast::ReceivedSegment& seg,
                                        broadcast::CycleEncoding encoding);

  /// Decodes a network-data segment for the clients that rebuild a
  /// graph::Graph (SPQ, HiTi): each record's coordinate into `coords`
  /// (grown as ids need) and its arcs onto scratch().edges, charging
  /// kEdgeListRecordBytes per node and kEdgeListArcBytes per arc. A segment
  /// that is incomplete or fails validation adds nothing.
  void DecodeNetworkRecords(const broadcast::ReceivedSegment& seg,
                            broadcast::CycleEncoding encoding,
                            std::vector<graph::Point>& coords);

  /// The query's metrics: every radio, memory and cache field from this
  /// run, plus the answer. Method-specific fields (regions_received) are
  /// the caller's to set on the result. Failed queries report what the
  /// radio did too: call Finish(graph::kInfDist, false).
  device::QueryMetrics Finish(graph::Dist distance, bool ok) const;

  broadcast::ClientSession session;
  device::MemoryTracker memory;
  double cpu_ms = 0.0;

 private:
  /// Whether a network-data segment may be decoded: complete, and its
  /// records well-formed (memoized through scratch().decode_cache).
  bool Decodable(const broadcast::ReceivedSegment& seg,
                 broadcast::CycleEncoding encoding) const;

  std::unique_ptr<QueryScratch> local_;
  QueryScratch* scratch_;
};

}  // namespace airindex::core

#endif  // AIRINDEX_CORE_CLIENT_RUN_H_
