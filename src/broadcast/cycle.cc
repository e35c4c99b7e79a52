#include "broadcast/cycle.h"

#include <algorithm>

namespace airindex::broadcast {

uint32_t BroadcastCycle::SegmentAt(uint32_t pos) const {
  // starts_ is ascending with a sentinel at the end; find the covering
  // segment by binary search.
  auto it = std::upper_bound(starts_.begin(), starts_.end(), pos);
  return static_cast<uint32_t>(it - starts_.begin()) - 1;
}

PacketView BroadcastCycle::PacketAt(uint32_t pos) const {
  const uint32_t si = SegmentAt(pos);
  const Segment& seg = segments_[si];
  PacketView view;
  view.cycle_pos = pos;
  view.type = seg.type;
  view.segment_id = seg.id;
  view.segment_index = si;
  view.seq = pos - starts_[si];
  view.segment_packets = seg.PacketCount();
  const size_t chunk_begin = static_cast<size_t>(view.seq) * kPayloadSize;
  const size_t chunk_end =
      std::min(chunk_begin + kPayloadSize, seg.payload.size());
  if (chunk_begin < seg.payload.size()) {
    view.chunk = {seg.payload.data() + chunk_begin, chunk_end - chunk_begin};
  }
  const uint32_t next = NextIndexStartIn(si, pos);
  view.next_index_offset =
      next >= pos ? next - pos : next + total_packets_ - pos;
  return view;
}

uint32_t BroadcastCycle::NextIndexStart(uint32_t pos) const {
  return NextIndexStartIn(SegmentAt(pos), pos);
}

uint32_t BroadcastCycle::NextIndexStartIn(uint32_t si, uint32_t pos) const {
  // An index segment "starts at or after pos" unless pos is inside it past
  // its first packet; otherwise the answer is the next one after si.
  if (segments_[si].is_index && starts_[si] == pos) return pos;
  const uint32_t next = next_index_[si];
  return next == kNoIndex ? pos : next;
}

size_t BroadcastCycle::TotalPayloadBytes() const {
  size_t bytes = 0;
  for (const auto& s : segments_) bytes += s.payload.size();
  return bytes;
}

Result<BroadcastCycle> CycleBuilder::Finalize(bool require_index) && {
  if (segments_.empty()) {
    return Status::FailedPrecondition("cannot finalize an empty cycle");
  }
  if (require_index) {
    const bool has_index =
        std::any_of(segments_.begin(), segments_.end(),
                    [](const Segment& s) { return s.is_index; });
    if (!has_index) {
      return Status::FailedPrecondition(
          "cycle has no index segment; packet headers cannot point "
          "anywhere");
    }
  }
  BroadcastCycle cycle;
  cycle.segments_ = std::move(segments_);
  cycle.encoding_ = encoding_;
  cycle.data_layout_ = data_layout_;
  cycle.starts_.reserve(cycle.segments_.size() + 1);
  uint32_t pos = 0;
  for (const auto& s : cycle.segments_) {
    cycle.starts_.push_back(pos);
    pos += s.PacketCount();
  }
  cycle.starts_.push_back(pos);
  cycle.total_packets_ = pos;

  // next_index_[i] = start of the first index segment among i+1, ..., i+n
  // (mod n). Walking the cycle unrolled twice, backwards, carries the
  // nearest index start seen so far: O(n) instead of a scan per segment.
  const size_t n = cycle.segments_.size();
  cycle.next_index_.assign(n, BroadcastCycle::kNoIndex);
  uint32_t next = BroadcastCycle::kNoIndex;
  for (size_t k = 2 * n; k-- > 0;) {
    const size_t i = k < n ? k : k - n;
    if (k < n) cycle.next_index_[i] = next;
    if (cycle.segments_[i].is_index) next = cycle.starts_[i];
  }
  return cycle;
}

}  // namespace airindex::broadcast
