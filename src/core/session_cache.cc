#include "core/session_cache.h"

namespace airindex::core {

void SessionCache::BeginSession(size_t budget_bytes) {
  budget_bytes_ = budget_bytes;
  cycle_ = nullptr;
  ClearContent();
  query_hits_ = 0;
}

bool SessionCache::Ready(const broadcast::BroadcastChannel& channel) {
  if (budget_bytes_ == 0) return false;
  const broadcast::BroadcastCycle* cycle = &channel.cycle();
  const uint64_t version = channel.cycle_version();
  if (cycle != cycle_ || version != cycle_version_) {
    // A different cycle object or a bumped cycle_version means the world
    // this cache describes is gone — drop everything rather than serve a
    // stale segment.
    ClearContent();
    cycle_ = cycle;
    cycle_version_ = version;
    links_.assign(cycle->num_segments(), Link{});
  }
  return true;
}

void SessionCache::ClearContent() {
  head_ = kNone;
  tail_ = kNone;
  entries_ = 0;
  used_bytes_ = 0;
  has_index_ = false;
  index_start_ = 0;
}

uint32_t SessionCache::SegmentOf(uint32_t segment_start) const {
  if (cycle_ == nullptr || segment_start >= cycle_->total_packets()) {
    return kNone;
  }
  const uint32_t si = cycle_->SegmentAt(segment_start);
  return cycle_->SegmentStart(si) == segment_start ? si : kNone;
}

void SessionCache::Unlink(uint32_t si) {
  Link& link = links_[si];
  (link.prev == kNone ? head_ : links_[link.prev].next) = link.next;
  (link.next == kNone ? tail_ : links_[link.next].prev) = link.prev;
  link = Link{};
  --entries_;
  used_bytes_ -= cycle_->segment(si).payload.size();
}

void SessionCache::PushFront(uint32_t si) {
  links_[si] = Link{kNone, head_, true};
  (head_ == kNone ? tail_ : links_[head_].prev) = si;
  head_ = si;
  ++entries_;
  used_bytes_ += cycle_->segment(si).payload.size();
}

bool SessionCache::Load(uint32_t segment_start,
                        broadcast::ReceivedSegment* out) {
  const uint32_t si = SegmentOf(segment_start);
  if (si == kNone || !links_[si].cached) return false;
  Unlink(si);  // refresh recency
  PushFront(si);
  broadcast::PrimeSegment(*cycle_, si, out);
  out->packet_ok.flip();
  out->received = static_cast<uint32_t>(out->packet_ok.size());
  broadcast::SettleSegment(*cycle_, out);
  return true;
}

void SessionCache::EvictToFit(size_t incoming_bytes) {
  while (used_bytes_ + incoming_bytes > budget_bytes_ && tail_ != kNone) {
    Unlink(tail_);
  }
}

void SessionCache::Store(uint32_t segment_start,
                         const broadcast::ReceivedSegment& seg) {
  const uint32_t si = SegmentOf(segment_start);
  if (!seg.complete || si == kNone || si != seg.segment_index) return;
  const size_t bytes = cycle_->segment(si).payload.size();
  if (bytes > budget_bytes_) return;  // would evict the whole session
  if (links_[si].cached) Unlink(si);
  EvictToFit(bytes);
  PushFront(si);
}

void SessionCache::StoreIndex(uint32_t segment_start,
                              const broadcast::ReceivedSegment& seg) {
  index_seg_ = seg;
  index_start_ = segment_start;
  has_index_ = true;
}

bool SessionCache::LoadIndex(broadcast::ReceivedSegment* out) const {
  if (!has_index_) return false;
  *out = index_seg_;
  return true;
}

}  // namespace airindex::core
