#include "core/partial_graph.h"

#include <algorithm>

namespace airindex::core {

void PartialGraph::Reset() {
  ++generation_;
  if (generation_ == 0) {  // stamp wrap: hard-reset once
    std::fill(node_gen_.begin(), node_gen_.end(), 0);
    generation_ = 1;
  }
  for (auto& chunk : chunks_) chunk.clear();  // keeps each reservation
  active_chunk_ = 0;
  known_count_ = 0;
  arc_count_ = 0;
}

std::vector<graph::Graph::Arc>& PartialGraph::ChunkWithRoom(size_t need) {
  while (active_chunk_ < chunks_.size()) {
    auto& chunk = chunks_[active_chunk_];
    if (chunk.capacity() - chunk.size() >= need) return chunk;
    ++active_chunk_;
  }
  chunks_.emplace_back().reserve(std::max(kArcChunk, need));
  return chunks_.back();
}

void PartialGraph::ReserveNodes(size_t n) {
  if (n <= entries_.size()) return;
  entries_.resize(n);
  coords_.resize(n);
  node_gen_.resize(n, 0);
}

void PartialGraph::AddRecord(const broadcast::NodeRecord& rec) {
  ReserveNodes(size_t{rec.id} + 1);
  if (node_gen_[rec.id] == generation_) return;
  node_gen_[rec.id] = generation_;
  ++known_count_;
  coords_[rec.id] = rec.coord;

  NodeEntry& e = entries_[rec.id];
  if (rec.arcs.empty()) {
    e = NodeEntry{};
  } else {
    auto& chunk = ChunkWithRoom(rec.arcs.size());
    e.chunk = static_cast<uint32_t>(active_chunk_);
    e.offset = static_cast<uint32_t>(chunk.size());
    e.count = static_cast<uint32_t>(rec.arcs.size());
    chunk.insert(chunk.end(), rec.arcs.begin(), rec.arcs.end());
  }
  arc_count_ += rec.arcs.size();
}

}  // namespace airindex::core
