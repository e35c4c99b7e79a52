#include "broadcast/channel.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace airindex::broadcast {

double LossModel::PacketCorruptProbability() const {
  if (!(corrupt_bit > 0.0)) return 0.0;  // incl. NaN: never corrupted
  if (corrupt_bit >= 1.0) return 1.0;
  constexpr double kBits = kPacketSize * 8;
  // 1 - (1 - p)^bits, computed in log space so tiny bit-error rates
  // don't round to zero.
  return -std::expm1(kBits * std::log1p(-corrupt_bit));
}

std::optional<PacketView> ClientSession::ReceiveCorrupted(uint64_t pos,
                                                          uint64_t slot) {
  const PacketView view = cycle().PacketAt(channel_->CyclePos(pos));
  const size_t n = view.chunk.size();
  if (n == 0) {  // nothing to checksum: drop the mangled packet
    ++corrupted_;
    return std::nullopt;
  }
  const uint32_t stamped = Crc32(view.chunk);
  uint8_t mangled[kPacketSize];
  std::memcpy(mangled, view.chunk.data(), n);
  const uint64_t bit = channel_->CorruptBitIndex(slot, n * 8);
  mangled[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  if (Crc32({mangled, n}) != stamped) {
    ++corrupted_;
    return std::nullopt;
  }
  // CRC-32 detects every single-bit error, so this is unreachable for the
  // one-flip model — but an undetected corruption would be delivered,
  // which is the honest failure mode of a checksum.
  return view;
}

uint32_t ClientSession::ListenGroupParity(uint64_t group_member_pos) {
  const FecLayout& fec = channel_->fec();
  const uint32_t parity = fec.parity_per_group();
  uint32_t heard = 0;
  for (uint32_t j = 0; j < parity; ++j) {
    const uint64_t slot =
        channel_->PhysicalOfFecSlot(fec.ParitySlot(group_member_pos, j));
    ++tuned_;
    if (slot > last_slot_listened_) last_slot_listened_ = slot;
    if (channel_->SlotLost(slot)) continue;
    if (channel_->corruption_enabled() && channel_->SlotCorrupted(slot)) {
      ++corrupted_;
      continue;
    }
    ++heard;
  }
  return heard;
}

ReceivedSegment& ReceivedSegment::operator=(const ReceivedSegment& other) {
  if (this == &other) return *this;
  segment_index = other.segment_index;
  type = other.type;
  segment_id = other.segment_id;
  storage = other.storage;
  payload = materialized() ? std::span<const uint8_t>(storage) : other.payload;
  packet_ok = other.packet_ok;
  received = other.received;
  complete = other.complete;
  return *this;
}

bool ReceivedSegment::RangeOk(size_t begin, size_t end) const {
  if (begin >= end) return true;
  const size_t first = begin / kPayloadSize;
  const size_t last = (end - 1) / kPayloadSize;
  for (size_t p = first; p <= last && p < packet_ok.size(); ++p) {
    if (!packet_ok[p]) return false;
  }
  return last < packet_ok.size();
}

void PrimeSegment(const BroadcastCycle& cycle, uint32_t si,
                  ReceivedSegment* out) {
  const Segment& seg = cycle.segment(si);
  out->segment_index = si;
  out->type = seg.type;
  out->segment_id = seg.id;
  out->payload = {};
  out->storage.clear();
  out->packet_ok.assign(seg.PacketCount(), false);
  out->received = 0;
  out->complete = false;
}

bool AcceptPacket(const PacketView& view, ReceivedSegment* out) {
  if (view.segment_index != out->segment_index ||
      view.seq >= out->packet_ok.size() || out->packet_ok[view.seq]) {
    return false;
  }
  out->packet_ok[view.seq] = true;
  ++out->received;
  if (out->materialized()) {
    std::memcpy(out->storage.data() +
                    static_cast<size_t>(view.seq) * kPayloadSize,
                view.chunk.data(), view.chunk.size());
  }
  return true;
}

void SettleSegment(const BroadcastCycle& cycle, ReceivedSegment* seg) {
  seg->complete = seg->received == seg->packet_ok.size();
  if (seg->materialized() || seg->segment_index >= cycle.num_segments()) {
    return;
  }
  const std::vector<uint8_t>& bytes = cycle.segment(seg->segment_index).payload;
  if (seg->complete) {
    seg->payload = bytes;
    return;
  }
  seg->storage.assign(bytes.size(), 0);
  for (size_t p = 0; p < seg->packet_ok.size(); ++p) {
    if (!seg->packet_ok[p]) continue;
    const size_t begin = p * kPayloadSize;
    const size_t end = std::min(begin + kPayloadSize, bytes.size());
    std::copy(bytes.begin() + begin, bytes.begin() + end,
              seg->storage.begin() + begin);
  }
  seg->payload = seg->storage;
}

namespace {

/// Listens from the session cursor, which is at packet `from` of the
/// segment `out` is primed for, to the segment's end, then settles it.
/// With FEC on, a decoded parity group hands back exactly what the station
/// transmitted; `heard_before` opens the group run with the packet behind
/// the cursor, which the caller already accepted.
void ListenToSegmentEnd(ClientSession& session, uint32_t from,
                        bool heard_before, ReceivedSegment* out) {
  const bool fec_on = session.channel().fec().enabled();
  FecGroupRun fec_run;
  auto fill = [&](uint64_t abs) {
    AcceptPacket(session.cycle().PacketAt(session.channel().CyclePos(abs)),
                 out);
  };
  if (fec_on && heard_before) {
    fec_run.Observe(session, session.position() - 1, true, fill);
  }
  for (uint32_t p = from; p < out->packet_ok.size(); ++p) {
    const uint64_t abs = session.position();
    auto view = session.ReceiveNext();
    if (fec_on) fec_run.Observe(session, abs, view.has_value(), fill);
    if (view.has_value()) AcceptPacket(*view, out);
  }
  if (fec_on) fec_run.Flush(session, fill);
  SettleSegment(session.cycle(), out);
}

}  // namespace

void ReceiveSegmentAt(ClientSession& session, uint32_t segment_start,
                      ReceivedSegment* out) {
  const BroadcastCycle& cycle = session.cycle();
  if (segment_start >= cycle.total_packets()) {
    // No segment starts past the cycle: one missing packet of no segment
    // index, which no packet and so no repair completes.
    *out = ReceivedSegment{};
    out->segment_index = static_cast<uint32_t>(cycle.num_segments());
    out->packet_ok.assign(1, false);
    return;
  }
  session.SleepUntilCyclePos(segment_start);
  // Everything before this packet was wait (probing headers, dozing to the
  // segment); the demanded segment starts here.
  session.MarkContentStart();
  PrimeSegment(cycle, cycle.SegmentAt(segment_start), out);
  ListenToSegmentEnd(session, 0, /*heard_before=*/false, out);
}

void CompleteSegmentFrom(ClientSession& session, const PacketView& first,
                         ReceivedSegment* out) {
  // `first` was already received by the caller — it is the content start
  // (one behind the session cursor).
  session.MarkContentStart(session.position() - 1);
  PrimeSegment(session.cycle(), first.segment_index, out);
  AcceptPacket(first, out);
  ListenToSegmentEnd(session, first.seq + 1, /*heard_before=*/true, out);
}

bool RepairSegment(ClientSession& session, uint32_t segment_start,
                   ReceivedSegment* seg, int max_extra_cycles) {
  if (seg->complete) return true;
  const BroadcastCycle& cycle = session.cycle();
  for (int attempt = 0; attempt < max_extra_cycles; ++attempt) {
    // Visit the missing packets of the segment in broadcast order.
    for (uint32_t p = 0; p < seg->packet_ok.size(); ++p) {
      if (seg->packet_ok[p]) continue;
      session.SleepUntilCyclePos(
          (segment_start + p) % cycle.total_packets());
      auto view = session.ReceiveNext();
      if (view.has_value()) AcceptPacket(*view, seg);
    }
    SettleSegment(cycle, seg);
    if (seg->complete) return true;
  }
  return false;
}

}  // namespace airindex::broadcast
