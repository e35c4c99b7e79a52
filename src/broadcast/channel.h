#ifndef AIRINDEX_BROADCAST_CHANNEL_H_
#define AIRINDEX_BROADCAST_CHANNEL_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "broadcast/cycle.h"
#include "broadcast/fec.h"
#include "broadcast/packet.h"
#include "broadcast/schedule.h"

namespace airindex::broadcast {

/// Packet-loss behaviour of a channel. `rate` is the long-run per-packet
/// loss probability. With `burst_len == 1` losses are independent (the
/// §6.2 model); larger values group losses into fade bursts of that many
/// consecutive packets (wireless losses are bursty in practice — the
/// paper's [15] reference), keeping the same long-run rate.
///
/// `corrupt_bit` is an orthogonal impairment: the probability that any one
/// bit of a packet that *was* received flips in flight. A flipped bit
/// fails the per-packet CRC-32 check, so the packet is discarded like a
/// loss but counted separately (QueryMetrics::corrupted_packets).
struct LossModel {
  double rate = 0.0;
  uint32_t burst_len = 1;
  double corrupt_bit = 0.0;

  static LossModel None() { return {0.0, 1}; }
  static LossModel Independent(double rate) { return {rate, 1}; }
  static LossModel Bursty(double rate, uint32_t burst_len) {
    return {rate, burst_len};
  }
  /// Rate + burst length in one step: burst_len <= 1 means independent.
  static LossModel Of(double rate, uint32_t burst_len) {
    return {rate, burst_len > 1 ? burst_len : 1};
  }
  static LossModel Of(double rate, uint32_t burst_len, double corrupt_bit) {
    return {rate, burst_len > 1 ? burst_len : 1, corrupt_bit};
  }

  /// Probability that a kPacketSize packet takes at least one bit flip:
  /// 1 - (1 - corrupt_bit)^bits.
  double PacketCorruptProbability() const;
};

/// The wireless channel: endlessly replays a broadcast cycle and drops
/// transmitted packets per a LossModel (§6.2). Loss is a deterministic
/// function of (seed, absolute position), so a given channel replays
/// identically for every client and every rerun.
///
/// Thread-safety: a channel is immutable after construction (IsLost is a
/// pure function; there is no per-call state), so any number of client
/// sessions — including sessions on different threads — may share one
/// instance. Per-client progress lives entirely in ClientSession, which is
/// single-threaded by design.
class BroadcastChannel {
 public:
  /// `cycle` must outlive the channel.
  BroadcastChannel(const BroadcastCycle* cycle, double loss_rate = 0.0,
                   uint64_t seed = 0x10552)
      : BroadcastChannel(cycle, LossModel::Independent(loss_rate), seed) {}

  BroadcastChannel(const BroadcastCycle* cycle, LossModel loss,
                   uint64_t seed, FecScheme fec = {},
                   const BroadcastSchedule* schedule = nullptr)
      : BroadcastChannel(cycle, loss, seed, /*slot_stride=*/1,
                         /*slot_offset=*/0, fec, schedule) {}

  /// Sub-channel view of a time-multiplexed station (broadcast::Station):
  /// the client's logical position `p` occupies physical transmission slot
  /// `p * slot_stride + slot_offset`, and loss is decided on physical
  /// slots. All sub-channels of one station share a seed, so a fade burst
  /// on the physical channel interleaves across them — each logical stream
  /// sees shorter holes. A stride of 1 with offset 0 is the plain
  /// single-channel model and makes identical decisions to the historical
  /// constructor for every position. An enabled FecScheme interposes the
  /// FecLayout between logical positions and slots (parity packets occupy
  /// slots of their own), before the stride/offset multiplexing.
  /// `schedule`, when non-null, interposes a compiled broadcast-disk
  /// timeline between positions and cycle content: position `p` carries
  /// the flat cycle packet `schedule->CyclePosAt(p)`, the on-air cycle is
  /// the macro cycle (FEC groups are laid over macro slots), and
  /// occurrence-aware sleeps catch a hot group's next repetition. Null is
  /// the flat broadcast — every decision identical to the historical
  /// channel, bit for bit. The schedule must be compiled against `cycle`
  /// and outlive the channel.
  BroadcastChannel(const BroadcastCycle* cycle, LossModel loss,
                   uint64_t seed, uint64_t slot_stride, uint64_t slot_offset,
                   FecScheme fec = {},
                   const BroadcastSchedule* schedule = nullptr,
                   uint64_t cycle_version = 0)
      : cycle_(cycle),
        loss_(loss),
        seed_(seed),
        loss_threshold_(LossThreshold(loss.rate)),
        corrupt_threshold_(LossThreshold(loss.PacketCorruptProbability())),
        slot_stride_(slot_stride == 0 ? 1 : slot_stride),
        slot_offset_(slot_offset),
        schedule_(schedule),
        cycle_version_(cycle_version),
        fec_(schedule != nullptr ? schedule->macro_packets()
                                 : cycle->total_packets(),
             fec) {}

  const BroadcastCycle& cycle() const { return *cycle_; }
  /// Version stamp of the cycle content this channel is replaying. The
  /// station bumps it when the underlying data changes (live graph
  /// updates); client-side caches key their entries on it so nothing
  /// decoded under an old version is ever served against a new one.
  uint64_t cycle_version() const { return cycle_version_; }
  double loss_rate() const { return loss_.rate; }
  uint64_t slot_stride() const { return slot_stride_; }
  uint64_t slot_offset() const { return slot_offset_; }
  const FecLayout& fec() const { return fec_; }
  bool corruption_enabled() const { return corrupt_threshold_ != 0; }
  bool scheduled() const { return schedule_ != nullptr; }
  const BroadcastSchedule* schedule() const { return schedule_; }

  /// Length of the session timeline's repeating unit: the macro cycle on a
  /// scheduled channel, the flat cycle otherwise. The denominator of every
  /// phase -> position mapping.
  uint64_t session_cycle_packets() const {
    return schedule_ != nullptr ? schedule_->macro_packets()
                                : cycle_->total_packets();
  }

  /// Physical transmission slot of logical position `pos` on this channel.
  uint64_t PhysicalSlot(uint64_t pos) const {
    const uint64_t fs = fec_.enabled() ? fec_.DataSlot(pos) : pos;
    return fs * slot_stride_ + slot_offset_;
  }
  /// Physical slot of a fec slot (parity slots included).
  uint64_t PhysicalOfFecSlot(uint64_t fec_slot) const {
    return fec_slot * slot_stride_ + slot_offset_;
  }

  /// The 53-bit integer threshold equivalent to "uniform [0,1) draw <
  /// rate". The historical formula converted the 53-bit draw to double
  /// (`x * 2^-53 < rate`); both the scaling and the comparison are exact in
  /// IEEE-754, so `x < ceil(rate * 2^53)` makes the identical decision for
  /// every draw — precomputed once here instead of a int->double convert
  /// per packet (see channel_test.cc for the bit-identity proof).
  static uint64_t LossThreshold(double rate) {
    constexpr double kTwo53 = 9007199254740992.0;  // 2^53
    if (!(rate > 0.0)) return 0;                   // incl. NaN: never lost
    if (rate >= 1.0) return 1ULL << 53;            // every draw below
    const double scaled = rate * kTwo53;           // exact: binary scaling
    auto threshold = static_cast<uint64_t>(scaled);
    return threshold == scaled ? threshold : threshold + 1;  // ceil
  }

  /// Whether the packet broadcast at absolute position `abs_pos` is lost.
  /// Bursty mode decides per burst-length block, so losses arrive in runs
  /// of `burst_len` packets while the long-run rate stays `rate`.
  bool IsLost(uint64_t abs_pos) const { return SlotLost(PhysicalSlot(abs_pos)); }

  /// Loss decision for a physical slot (parity slots fade like any other).
  bool SlotLost(uint64_t slot) const {
    if (loss_threshold_ == 0) return false;
    const uint64_t unit = loss_.burst_len > 1 ? slot / loss_.burst_len : slot;
    return Draw53(seed_, unit) < loss_threshold_;
  }

  /// Whether the packet in physical slot `slot`, having survived the loss
  /// draw, takes a bit flip in flight. A separate salted stream so
  /// enabling corruption never perturbs the loss realization.
  bool SlotCorrupted(uint64_t slot) const {
    if (corrupt_threshold_ == 0) return false;
    return Draw53(seed_ ^ kCorruptStreamSalt, slot) < corrupt_threshold_;
  }

  /// Deterministic choice of which bit flips in a corrupted packet.
  uint64_t CorruptBitIndex(uint64_t slot, uint64_t bits) const {
    return Draw53(seed_ ^ kCorruptStreamSalt, ~slot) % bits;
  }

  uint32_t CyclePos(uint64_t abs_pos) const {
    if (schedule_ != nullptr) return schedule_->CyclePosAt(abs_pos);
    return static_cast<uint32_t>(abs_pos % cycle_->total_packets());
  }

 private:
  static constexpr uint64_t kCorruptStreamSalt = 0x6B8E9C4D2F5A3E1DULL;

  /// SplitMix64 of (seed, unit) -> uniform 53-bit draw.
  static uint64_t Draw53(uint64_t seed, uint64_t unit) {
    uint64_t z = seed ^ (unit + 0x9E3779B97f4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
    return z >> 11;
  }

  const BroadcastCycle* cycle_;
  LossModel loss_;
  uint64_t seed_;
  uint64_t loss_threshold_;
  uint64_t corrupt_threshold_;
  uint64_t slot_stride_ = 1;
  uint64_t slot_offset_ = 0;
  const BroadcastSchedule* schedule_ = nullptr;
  uint64_t cycle_version_ = 0;
  FecLayout fec_;
};

/// One client's view of the channel during one query. Tracks the paper's
/// §3.1 cost factors at packet granularity:
///   * tuning time  = packets the radio was awake for (received or lost),
///   * access latency = packets elapsed from tune-in to the last packet the
///     client needed.
/// Sleeping (skipping forward without listening) is free apart from wall
/// clock. Positions are absolute (monotonic across cycle wrap-arounds).
///
/// The access latency additionally splits into a *wait* prefix and a
/// *listen* remainder at the content-start mark (MarkContentStart): the
/// packets between tune-in and the first packet of the first segment the
/// client actually demands are pure wait — header probes and dozing toward
/// the next index copy — while everything after is retrieval. The segment
/// helpers below (ReceiveSegmentAt / CompleteSegmentFrom) and the
/// full-cycle loop place the mark, so every client method reports the
/// split without bespoke bookkeeping.
class ClientSession {
 public:
  ClientSession(const BroadcastChannel* channel, uint64_t start_pos)
      : channel_(channel), start_pos_(start_pos), pos_(start_pos) {}

  /// Absolute position of the next packet to be transmitted.
  uint64_t position() const { return pos_; }
  uint32_t cycle_pos() const { return channel_->CyclePos(pos_); }
  const BroadcastChannel& channel() const { return *channel_; }
  const BroadcastCycle& cycle() const { return channel_->cycle(); }

  /// Listens to the packet at the current position. Counts one packet of
  /// tuning time either way; returns nullopt if the packet was lost on air
  /// or received corrupted (CRC-32 mismatch — counted separately).
  std::optional<PacketView> ReceiveNext() {
    const uint64_t p = pos_++;
    ++tuned_;
    last_listened_ = p;
    const uint64_t slot = channel_->PhysicalSlot(p);
    if (slot > last_slot_listened_) last_slot_listened_ = slot;
    if (channel_->SlotLost(slot)) return std::nullopt;
    if (channel_->corruption_enabled() && channel_->SlotCorrupted(slot)) {
      return ReceiveCorrupted(p, slot);
    }
    return cycle().PacketAt(channel_->CyclePos(p));
  }

  /// Listens to every parity packet of the group containing logical
  /// position `group_member_pos` (an atomic side-channel read at the group
  /// boundary: the cursor does not move, tuning time is charged per parity
  /// packet, and parity fades/corrupts like any other packet). Returns how
  /// many parity packets arrived intact.
  uint32_t ListenGroupParity(uint64_t group_member_pos);

  /// Sleeps until cycle position `cpos` is about to be transmitted (the
  /// next occurrence at or after the current position). On a scheduled
  /// channel this is the occurrence index's soonest repetition — a hot
  /// group's packet may be minutes of flat-cycle time away yet one chunk
  /// ahead on the disks.
  void SleepUntilCyclePos(uint32_t cpos) {
    if (channel_->scheduled()) {
      pos_ = channel_->schedule()->NextSlotOf(pos_, cpos);
      return;
    }
    const uint32_t total = cycle().total_packets();
    const uint32_t cur = cycle_pos();
    const uint32_t ahead = cpos >= cur ? cpos - cur : cpos + total - cur;
    pos_ += ahead;
  }

  /// Sleeps for exactly `n` packets.
  void SleepPackets(uint64_t n) { pos_ += n; }

  /// Paper metric: number of packets received (energy proxy).
  uint64_t tuned_packets() const { return tuned_; }

  /// Packets that arrived but failed the CRC-32 check (corruption model).
  uint64_t corrupted_packets() const { return corrupted_; }
  /// Data packets reconstructed from FEC parity instead of rebroadcast.
  uint64_t fec_recovered() const { return fec_recovered_; }
  void AddFecRecovered(uint64_t n) { fec_recovered_ += n; }

  /// Paper metric: packets between posing the query and the end of the last
  /// packet listened to.
  uint64_t latency_packets() const {
    return last_listened_ == 0 && tuned_ == 0
               ? 0
               : last_listened_ - start_pos_ + 1;
  }

  /// latency_packets / wait_packets measured in *physical slots* — the
  /// on-air timeline that FEC parity and sub-channel striding stretch.
  /// On a stride-1 channel without FEC these equal the packet counts.
  uint64_t latency_slots() const {
    return tuned_ == 0 ? 0
                       : last_slot_listened_ -
                             channel_->PhysicalSlot(start_pos_) + 1;
  }
  uint64_t wait_slots() const {
    if (content_marked_) {
      return channel_->PhysicalSlot(content_start_) -
             channel_->PhysicalSlot(start_pos_);
    }
    return latency_slots();
  }

  /// Marks absolute position `abs_pos` as the start of real content: the
  /// first packet of the first segment this client demands. First call
  /// wins; later marks (chained index hops, repairs) are ignored.
  void MarkContentStart(uint64_t abs_pos) {
    if (content_marked_) return;
    content_marked_ = true;
    content_start_ = abs_pos;
  }
  /// Marks the packet about to be transmitted as the content start.
  void MarkContentStart() { MarkContentStart(pos_); }

  /// Packets dozed (or probed) between tune-in and the content-start mark.
  /// A session that never marked — or never listened — waited its whole
  /// latency window for content that never came.
  uint64_t wait_packets() const {
    if (content_marked_) return content_start_ - start_pos_;
    return latency_packets();
  }

 private:
  /// Cold path of ReceiveNext: the slot's corruption draw fired. Flips a
  /// deterministic bit in a local copy of the on-air bytes and runs the
  /// CRC-32 check against the station's stamp; a mismatch discards the
  /// packet as an erasure.
  std::optional<PacketView> ReceiveCorrupted(uint64_t pos, uint64_t slot);

  const BroadcastChannel* channel_;
  uint64_t start_pos_;
  uint64_t pos_;
  uint64_t tuned_ = 0;
  uint64_t last_listened_ = 0;
  uint64_t last_slot_listened_ = 0;
  uint64_t content_start_ = 0;
  uint64_t corrupted_ = 0;
  uint64_t fec_recovered_ = 0;
  bool content_marked_ = false;
};

/// Streaming FEC decoder over one client's listening run: feed it every
/// logical position the client listened to (in order, heard or not) and it
/// settles each parity group as the run crosses the group boundary. A
/// group with no holes costs nothing — its parity is slept over. A group
/// with holes listens to all of the group's parity packets and, when the
/// MDS condition holds (heard data + intact parity >= group data size),
/// reconstructs every missing packet via `fill(abs_pos)`. Fixed-size
/// state — no allocation on the query hot path.
class FecGroupRun {
 public:
  bool active() const { return active_; }

  template <typename Fill>
  void Observe(ClientSession& session, uint64_t abs_pos, bool heard,
               Fill&& fill) {
    const FecLayout& fec = session.channel().fec();
    if (!fec.enabled()) return;
    if (active_ && fec.GroupKey(abs_pos) != key_) Flush(session, fill);
    if (!active_) {
      active_ = true;
      key_ = fec.GroupKey(abs_pos);
      member_ = abs_pos;
      heard_ = 0;
      missing_count_ = 0;
    }
    if (heard) {
      ++heard_;
    } else if (missing_count_ < kMaxGroup) {
      missing_[missing_count_++] = abs_pos;
    }
  }

  /// Settles the open group (call once after the run's last Observe).
  template <typename Fill>
  void Flush(ClientSession& session, Fill&& fill) {
    if (!active_) return;
    active_ = false;
    if (missing_count_ == 0) return;  // intact: parity slept over, free
    const FecLayout& fec = session.channel().fec();
    const uint32_t parity_heard = session.ListenGroupParity(member_);
    // The layout's own cycle length, not the flat cycle's: a scheduled
    // channel lays FEC groups over macro slots.
    const uint32_t group_size =
        fec.GroupDataSize(fec.GroupOf(member_ % fec.cycle_packets()));
    // MDS erasure condition: any `group_size` intact symbols of the
    // group's `group_size + parity` reconstruct the rest. `heard_` only
    // counts this run's packets, so a run that entered the group mid-way
    // (wrap seam, partial segment) simply fails the condition and falls
    // back to next-cycle repair.
    if (heard_ + parity_heard < group_size) return;
    for (uint32_t i = 0; i < missing_count_; ++i) fill(missing_[i]);
    session.AddFecRecovered(missing_count_);
  }

 private:
  static constexpr uint32_t kMaxGroup = 64;  // FecScheme::Valid()'s cap

  bool active_ = false;
  uint64_t key_ = 0;
  uint64_t member_ = 0;
  uint32_t heard_ = 0;
  uint32_t missing_count_ = 0;
  uint64_t missing_[kMaxGroup];
};

/// A segment received from the air: a per-packet mask of what arrived,
/// and how many did, over the station's bytes.
///
/// `payload` is read-only. Every accepted packet is a chunk of the cycle,
/// so a complete segment views `cycle.segment(segment_index).payload`. A
/// segment read while still incomplete is materialized once into
/// `storage` (the station's bytes at packets heard, zeros at holes);
/// repairs copy into it and it stays materialized, so EB's repair from
/// another index copy reads what it heard. A copy of a materialized
/// segment owns its bytes, a copy of a view views the station; a move
/// keeps the source's buffer.
struct ReceivedSegment {
  uint32_t segment_index = 0;
  SegmentType type = SegmentType::kNetworkData;
  uint32_t segment_id = 0;
  std::span<const uint8_t> payload;
  std::vector<uint8_t> storage;
  std::vector<bool> packet_ok;
  /// Packets of `packet_ok` that arrived.
  uint32_t received = 0;
  bool complete = false;

  ReceivedSegment() = default;
  ReceivedSegment(const ReceivedSegment& other) { *this = other; }
  ReceivedSegment& operator=(const ReceivedSegment& other);
  ReceivedSegment(ReceivedSegment&&) noexcept = default;
  ReceivedSegment& operator=(ReceivedSegment&&) noexcept = default;

  /// Whether `payload` is `storage` rather than the station's bytes.
  bool materialized() const { return !storage.empty(); }

  /// True iff the payload byte range [begin, end) was carried by packets
  /// that all arrived.
  bool RangeOk(size_t begin, size_t end) const;
};

/// The receive steps every receive and repair below, the full-cycle
/// receive and the session cache share. PrimeSegment points `out` at
/// segment `si` of the cycle, every packet missing and no payload, reusing
/// its buffers.
void PrimeSegment(const BroadcastCycle& cycle, uint32_t si,
                  ReceivedSegment* out);

/// Marks `view` heard when it is an unheard packet of the segment `out`
/// assembles (same segment index, seq inside the mask), copying its chunk
/// only into a materialized segment. Returns whether it was accepted; any
/// other packet counts as lost.
bool AcceptPacket(const PacketView& view, ReceivedSegment* out);

/// Sets `complete` from the count and points `payload` as ReceivedSegment
/// says, materializing an incomplete segment on first settle. A segment
/// index past the cycle stays incomplete with no payload.
void SettleSegment(const BroadcastCycle& cycle, ReceivedSegment* seg);

/// Sleeps to `segment_start` (a cycle position) and listens to every packet
/// of the segment that starts there into `*out`, reusing its buffers.
/// Lost packets leave holes; retry policy is the caller's. A start past
/// the cycle yields an incomplete segment no repair completes.
void ReceiveSegmentAt(ClientSession& session, uint32_t segment_start,
                      ReceivedSegment* out);

/// Completes the segment a just-received packet belongs to: ingests `first`
/// and listens to the rest of its segment. Packets before `first.seq` are
/// left as holes (equivalent to losses). Lets a client that tuned in right
/// at (or inside) an index segment use it instead of waiting a whole cycle
/// for the next one.
void CompleteSegmentFrom(ClientSession& session, const PacketView& first,
                         ReceivedSegment* out);

/// Re-listens (next cycle) to the still-missing packets of `seg` in
/// broadcast order, up to `max_extra_cycles` additional cycles. Returns true
/// once complete.
bool RepairSegment(ClientSession& session, uint32_t segment_start,
                   ReceivedSegment* seg, int max_extra_cycles = 8);

/// Cycle position of the first index-segment start the session should doze
/// to after probing `view` (the (1,m) "next index" hop). On a flat channel
/// this is the packet header's arithmetic verbatim — `(cycle_pos +
/// next_index_offset) % total`, bit-identical to the historical clients.
/// On a scheduled channel the header's flat-cycle offset undersells the
/// disks (a hot group's index copy may repeat sooner), so the slot map
/// answers instead: the soonest index start airing at or after the cursor.
inline uint32_t NextIndexTarget(const ClientSession& session,
                                const PacketView& view) {
  if (session.channel().scheduled()) {
    return session.channel().schedule()->NextIndexCyclePos(
        session.position());
  }
  return (view.cycle_pos + view.next_index_offset) %
         session.cycle().total_packets();
}

}  // namespace airindex::broadcast

#endif  // AIRINDEX_BROADCAST_CHANNEL_H_
