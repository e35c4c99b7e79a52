#include "core/spq_on_air.h"

#include <bit>
#include <chrono>
#include <span>

#include "common/byte_io.h"
#include "core/client_run.h"
#include "core/cycle_common.h"
#include "core/full_cycle.h"
#include "core/partial_graph.h"

namespace airindex::core {
namespace {

constexpr uint32_t kHeaderSegment = 0;
constexpr uint32_t kTreesPerChunk = 64;
constexpr uint16_t kNoColorU16 = 0xFFFF;

/// Pre-order, self-delimiting cell encoding: tag 0 = leaf (color:u16
/// follows), tag 1 = internal (the 4 child subtrees follow).
void EncodeCell(const algo::SpqIndex::Tree& tree, int32_t cell,
                std::vector<uint8_t>* out) {
  const auto& node = tree.nodes[cell];
  if (node.is_leaf()) {
    out->push_back(0);
    const uint16_t color = node.color == algo::SpqIndex::QtNode::kNoColor
                               ? kNoColorU16
                               : static_cast<uint16_t>(node.color);
    PutU16(out, color);
    return;
  }
  out->push_back(1);
  for (int q = 0; q < 4; ++q) EncodeCell(tree, node.child[q], out);
}

/// Recursive decoder; returns the new cell's index or -1 on truncation.
int32_t DecodeCellImpl(std::span<const uint8_t> buf, size_t* pos,
                       algo::SpqIndex::Tree* tree) {
  if (*pos >= buf.size()) return -1;
  const uint8_t tag = buf[(*pos)++];
  const auto idx = static_cast<int32_t>(tree->nodes.size());
  tree->nodes.emplace_back();
  if (tag == 0) {
    if (*pos + 2 > buf.size()) return -1;
    const uint16_t color = GetU16(buf.data() + *pos);
    *pos += 2;
    tree->nodes[idx].color = color == kNoColorU16
                                 ? algo::SpqIndex::QtNode::kNoColor
                                 : color;
    return idx;
  }
  for (int q = 0; q < 4; ++q) {
    const int32_t child = DecodeCellImpl(buf, pos, tree);
    if (child < 0) return -1;
    tree->nodes[idx].child[q] = child;
  }
  return idx;
}

}  // namespace

Result<std::unique_ptr<SpqOnAir>> SpqOnAir::Build(const graph::Graph& g,
                                                  const BuildConfig& config) {
  auto sys = std::unique_ptr<SpqOnAir>(new SpqOnAir());
  sys->num_nodes_ = static_cast<uint32_t>(g.num_nodes());

  const auto start = std::chrono::steady_clock::now();
  AIRINDEX_ASSIGN_OR_RETURN(
      auto idx, algo::SpqIndex::Build(g, config.precompute_threads));
  sys->index_ = std::make_unique<algo::SpqIndex>(std::move(idx));
  sys->precompute_seconds_ =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  broadcast::CycleBuilder builder(config.encoding);
  AppendNetworkSegments(g, &builder);

  {
    broadcast::Segment seg;
    seg.type = broadcast::SegmentType::kAuxData;
    seg.id = kHeaderSegment;
    PutU64(&seg.payload, std::bit_cast<uint64_t>(sys->index_->root_min_x()));
    PutU64(&seg.payload, std::bit_cast<uint64_t>(sys->index_->root_min_y()));
    PutU64(&seg.payload, std::bit_cast<uint64_t>(sys->index_->root_size()));
    PutU32(&seg.payload, sys->num_nodes_);
    PutU32(&seg.payload, kTreesPerChunk);
    builder.Add(std::move(seg));
  }
  for (uint32_t first = 0; first < g.num_nodes(); first += kTreesPerChunk) {
    broadcast::Segment seg;
    seg.type = broadcast::SegmentType::kAuxData;
    seg.id = 1 + first / kTreesPerChunk;
    const uint32_t last =
        std::min<uint32_t>(first + kTreesPerChunk, sys->num_nodes_);
    for (uint32_t v = first; v < last; ++v) {
      EncodeCell(sys->index_->TreeOf(v), 0, &seg.payload);
    }
    builder.Add(std::move(seg));
  }
  AIRINDEX_ASSIGN_OR_RETURN(sys->cycle_, std::move(builder).Finalize(
                                             /*require_index=*/false));
  return sys;
}

device::QueryMetrics SpqOnAir::RunQuery(
    const broadcast::BroadcastChannel& channel, const AirQuery& query,
    const ClientOptions& options, QueryScratch* scratch) const {
  ClientRun run(channel, StartPosition(channel, query), options, *scratch);
  QueryScratch& s = run.scratch();
  device::MemoryTracker& memory = run.memory;

  CsrRebuild rebuild{num_nodes_};
  // The trees are moved into the query-time SpqIndex below.
  std::vector<algo::SpqIndex::Tree> trees(num_nodes_);
  double root[3] = {0, 0, 1};
  bool header_ok = false;

  Status receive_status = ReceiveFullCycleCached(
      run.session, memory, &s.session,
      [](const broadcast::ReceivedSegment&) { return true; },
      [&](const broadcast::ReceivedSegment& seg) {
        device::Stopwatch sw;
        if (seg.type == broadcast::SegmentType::kNetworkData) {
          run.DecodeIntoPartialGraph(seg, &rebuild);
        } else if (seg.segment_id == kHeaderSegment) {
          if (seg.complete && seg.payload.size() >= 32) {
            root[0] = std::bit_cast<double>(GetU64(seg.payload.data()));
            root[1] = std::bit_cast<double>(GetU64(seg.payload.data() + 8));
            root[2] = std::bit_cast<double>(GetU64(seg.payload.data() + 16));
            header_ok = true;
          }
        } else {
          const uint32_t first = (seg.segment_id - 1) * kTreesPerChunk;
          size_t pos = 0;
          for (uint32_t v = first; v < num_nodes_ && pos < seg.payload.size();
               ++v) {
            algo::SpqIndex::Tree tree;
            if (DecodeCellImpl(seg.payload, &pos, &tree) < 0) break;
            memory.Charge(tree.nodes.size() *
                          sizeof(algo::SpqIndex::QtNode));
            trees[v] = std::move(tree);
          }
        }
        memory.Release(seg.payload.size());
        run.cpu_ms += sw.ElapsedMs();
      },
      options.max_repair_cycles, s.full_cycle);

  device::Stopwatch sw;
  graph::Dist dist = graph::kInfDist;
  if (!rebuild.Rejected() && header_ok) {
    memory.Charge(rebuild.ModeledCsrBytes());
    // A colour is an arc ordinal at the owning node, which the partial
    // graph's OutArcs keep as the rebuilt graph did (docs/perf.md).
    PartialGraph& pg = s.partial_graph;
    pg.ReserveNodes(rebuild.nodes());
    algo::SpqIndex idx = algo::SpqIndex::FromParts(root[0], root[1], root[2],
                                                   std::move(trees));
    dist = idx.Query(pg, query.source, query.target).dist;
  }
  run.cpu_ms += sw.ElapsedMs();
  return run.FinishFullCycle(dist, receive_status, num_nodes_);
}

}  // namespace airindex::core
