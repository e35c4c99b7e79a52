#ifndef AIRINDEX_BROADCAST_SERIALIZATION_H_
#define AIRINDEX_BROADCAST_SERIALIZATION_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "broadcast/packet.h"
#include "common/result.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace airindex::broadcast {

/// Wire format of the network data (adjacency lists; §2.1's <id, x, y> node
/// plus <id_i, id_j, w_ij> edges, grouped per node).
///
/// Two encodings exist, selected out-of-band (each air index knows which
/// encoding its cycle was built with; payloads do not self-describe beyond
/// the compact blob's version byte):
///
/// kLegacy — all integers little-endian fixed-width; coordinates are raw
/// IEEE-754 doubles so the client-side kd-tree mapping agrees bit-for-bit
/// with the server's. This is the format every reproduction number was
/// measured with, and it stays the default:
///
///   NodeRecord := id:u32  x:f64  y:f64  deg:u16  { to:u32 weight:u32 }^deg
///
/// kCompact — varint + delta coding for continental-scale cycles. A record
/// sequence is prefixed with a single version byte (kCompactBlobVersion) as
/// a cheap self-check against decoding with the wrong setting; coordinates
/// stay raw doubles (bit-exactness is load-bearing); adjacency exploits the
/// CSR invariant that each span is sorted by target id, encoding gaps:
///
///   CompactBlob   := version:u8  CompactRecord*
///   CompactRecord := id:varint  x:f64  y:f64  deg:varint
///                    { gap:varint  weight:varint }^deg
///   gap_0 = zigzag(to_0 - id); gap_k = to_k - to_{k-1}  (k > 0)
///
/// On road networks neighbour ids cluster near the node id, so gaps and
/// jittered weights fit 1-3 varint bytes instead of 4 fixed — 25-40%
/// smaller cycles (see docs/perf.md).
///
/// Records are concatenated; a record may span packet boundaries (standard
/// air-index practice; the paper's 128-byte packets are smaller than many
/// adjacency lists anyway).
struct NodeRecord {
  graph::NodeId id = graph::kInvalidNode;
  graph::Point coord;
  std::vector<graph::Graph::Arc> arcs;
};

/// First byte of every compact record blob.
inline constexpr uint8_t kCompactBlobVersion = 0xC1;

/// Serialized size of `v`'s record (excluding, for kCompact, the one
/// version byte the enclosing blob carries).
size_t NodeRecordBytes(const graph::Graph& g, graph::NodeId v,
                       CycleEncoding encoding = CycleEncoding::kLegacy);

/// Appends `v`'s record to `out` (record only — the blob version byte is
/// EncodeNodeRecords' job).
void EncodeNodeRecord(const graph::Graph& g, graph::NodeId v,
                      std::vector<uint8_t>* out,
                      CycleEncoding encoding = CycleEncoding::kLegacy);

/// Encodes the records of `nodes` in order; a kCompact blob is prefixed
/// with kCompactBlobVersion.
std::vector<uint8_t> EncodeNodeRecords(
    const graph::Graph& g, const std::vector<graph::NodeId>& nodes,
    CycleEncoding encoding = CycleEncoding::kLegacy);

/// Checks that `[data, data + size)` is a well-formed record sequence
/// without materializing anything (the exact checks NodeRecordCursor
/// applies). Clients validate a segment first and then stream it with a
/// NodeRecordCursor, preserving the historical all-or-nothing ingest on
/// damaged payloads while allocating nothing per record.
Status ValidateNodeRecords(const uint8_t* data, size_t size,
                           CycleEncoding encoding = CycleEncoding::kLegacy);
inline Status ValidateNodeRecords(
    std::span<const uint8_t> buf,
    CycleEncoding encoding = CycleEncoding::kLegacy) {
  return ValidateNodeRecords(buf.data(), buf.size(), encoding);
}

/// Streaming decoder: yields one record at a time into a caller-provided
/// NodeRecord whose arc storage is reused across calls (and across cursors
/// when the caller also reuses the record). Usage:
///
///   NodeRecordCursor cur(seg.payload, encoding);
///   while (cur.Next(&rec)) Ingest(rec);
///   // cur.status() tells a clean end from a truncated payload.
class NodeRecordCursor {
 public:
  NodeRecordCursor(const uint8_t* data, size_t size,
                   CycleEncoding encoding = CycleEncoding::kLegacy)
      : data_(data), size_(size), encoding_(encoding) {}
  explicit NodeRecordCursor(std::span<const uint8_t> buf,
                            CycleEncoding encoding = CycleEncoding::kLegacy)
      : NodeRecordCursor(buf.data(), buf.size(), encoding) {}

  /// Decodes the next record into `*rec` (rec->arcs is clear()ed, keeping
  /// its capacity). Returns false at end of input or on malformed input;
  /// distinguish via status(). For kCompact the blob version byte is
  /// checked and consumed on the first call.
  bool Next(NodeRecord* rec);

  const Status& status() const { return status_; }

 private:
  bool NextLegacy(NodeRecord* rec);
  bool NextCompact(NodeRecord* rec);

  const uint8_t* data_;
  size_t size_;
  CycleEncoding encoding_;
  size_t pos_ = 0;
  Status status_ = Status::OK();
};

/// Serialized bytes of the whole network data (all records; for kCompact
/// plus the version byte of a single enclosing blob — callers that chunk
/// records into several blobs pay one extra byte per chunk).
size_t NetworkDataBytes(const graph::Graph& g,
                        CycleEncoding encoding = CycleEncoding::kLegacy);

}  // namespace airindex::broadcast

#endif  // AIRINDEX_BROADCAST_SERIALIZATION_H_
