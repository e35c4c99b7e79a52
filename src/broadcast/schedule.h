#ifndef AIRINDEX_BROADCAST_SCHEDULE_H_
#define AIRINDEX_BROADCAST_SCHEDULE_H_

#include <cstdint>
#include <vector>

#include "broadcast/cycle.h"
#include "common/result.h"

namespace airindex::broadcast {

/// Assignment of a cycle's interleave groups to broadcast disks (Acharya et
/// al.'s multi-disk model): disk `d` spins at integer rate `spin[d]`, so its
/// groups repeat `spin[d]` times per macro cycle. An empty spec means the
/// flat (single-disk, spin-1) broadcast — the historical timeline.
struct ScheduleSpec {
  /// Disk ordinal of each interleave group (size = number of groups).
  std::vector<uint32_t> disk_of_group;
  /// Spin rate of each disk (>= 1). Disk 0 is conventionally the fastest.
  std::vector<uint32_t> spin;

  bool flat() const { return spin.empty(); }
  static ScheduleSpec Flat() { return {}; }

  bool operator==(const ScheduleSpec&) const = default;
};

/// Interleave groups of a cycle: the schedulable units. Every segment is
/// its own group — the finest partition that keeps segment reassembly
/// away from repetition seams (chunks are built from whole groups), which
/// both lets the compiler interleave disks tightly and lets the planner
/// spin index copies (which terminate every client's initial wait)
/// independently of the data runs whose popularity they serve. Returns
/// the group ordinal of every segment (non-decreasing).
std::vector<uint32_t> CycleGroups(const BroadcastCycle& cycle);

/// Number of groups in a CycleGroups result (last ordinal + 1; 0 if empty).
uint32_t NumGroups(const std::vector<uint32_t>& group_of_segment);

/// Packet count of each group.
std::vector<uint32_t> GroupPacketCounts(
    const BroadcastCycle& cycle, const std::vector<uint32_t>& group_of_segment);

/// The spin rates a planner assigns groups to, fastest first: `rates`
/// (a zero rate read as 1), or {2^(disks-1), ..., 2, 1} when empty.
std::vector<uint32_t> SpinLadder(uint32_t disks, std::vector<uint32_t> rates);

/// LCM(spins), the macro cycle in minor cycles; fails when a spin is 0 or
/// the LCM exceeds BroadcastSchedule::kMaxMacroMinorCycles. The one check
/// of a ladder, made by Compile and by the schedule parsers.
Result<uint64_t> MacroMinorCycles(const std::vector<uint32_t>& spins);

/// A compiled broadcast-disk timeline: the deterministic slot program the
/// station transmits instead of the flat cycle. The macro cycle holds
/// spin[disk(g)] repetitions of every group g; each repetition is placed
/// at an ideal macro slot (an exact rational, computed in a
/// stretched-coordinate system that preserves the flat cycle's relative
/// layout, with index-group repetitions snapped to one even lattice so
/// their copies interleave instead of clustering) and the timeline is the
/// stable sort of those ideals with whole groups emitted at each
/// occurrence. Consequences the rest of the stack relies on:
///   * every group appears exactly spin[disk] times per macro cycle;
///   * each repetition airs the group's packets contiguously and in cycle
///     order, so segment reassembly (consecutive ReceiveNext calls after a
///     segment start) never straddles a repetition seam;
///   * the timeline is a pure function of (cycle, spec) — byte-identical
///     for any thread count.
/// Compile-time cost is O(macro packets); the per-position occurrence index
/// makes next-occurrence lookups O(log spin).
class BroadcastSchedule {
 public:
  /// Compiles `spec` against `cycle`. Fails on malformed specs (group/disk
  /// vector size mismatch, spins MacroMinorCycles refuses).
  /// `cycle` must outlive the schedule. A flat spec compiles to the
  /// identity timeline (macro == cycle, slot i carries position i).
  static Result<BroadcastSchedule> Compile(const BroadcastCycle* cycle,
                                           ScheduleSpec spec);

  /// Upper bound on LCM(spins): keeps degenerate specs (coprime spins)
  /// from exploding the macro cycle.
  static constexpr uint64_t kMaxMacroMinorCycles = 4096;

  const BroadcastCycle& cycle() const { return *cycle_; }
  const ScheduleSpec& spec() const { return spec_; }
  const std::vector<uint32_t>& group_of_segment() const {
    return group_of_segment_;
  }
  uint32_t num_groups() const { return num_groups_; }
  uint32_t num_disks() const {
    return static_cast<uint32_t>(spec_.spin.size());
  }
  uint64_t minor_cycles() const { return minor_cycles_; }

  /// Slots per macro cycle = sum over disks of spin * disk packets.
  uint64_t macro_packets() const { return timeline_.size(); }

  /// Physical cycle stretch: macro slots per flat-cycle packet (1.0 for the
  /// identity timeline; hot-group repetition pushes it above 1).
  double Stretch() const {
    return cycle_->total_packets() == 0
               ? 1.0
               : static_cast<double>(timeline_.size()) /
                     static_cast<double>(cycle_->total_packets());
  }

  /// Flat cycle position carried by absolute timeline slot `abs`.
  uint32_t CyclePosAt(uint64_t abs) const {
    return timeline_[abs % timeline_.size()];
  }

  /// First absolute slot at or after `abs` carrying flat cycle position
  /// `cpos` — the occurrence-aware generalization of modular sleep: a
  /// repair hit on a hot group catches the group's *next repetition*, not
  /// the next macro cycle.
  uint64_t NextSlotOf(uint64_t abs, uint32_t cpos) const;

  /// Flat cycle position of the soonest index-segment start airing at or
  /// after `abs` (the slot-map replacement for the packet header's
  /// flat-cycle next_index_offset arithmetic). Falls back to the flat
  /// next-index scan if the cycle has no index segments.
  uint32_t NextIndexCyclePos(uint64_t abs) const;

  /// Per-disk layout report (airindex_cli inspect).
  struct DiskInfo {
    uint32_t spin = 0;
    uint32_t groups = 0;
    uint64_t packets = 0;  // flat packets on the disk (one repetition)
  };
  std::vector<DiskInfo> DiskLayout() const;

 private:
  BroadcastSchedule() = default;

  const BroadcastCycle* cycle_ = nullptr;
  ScheduleSpec spec_;
  std::vector<uint32_t> group_of_segment_;
  uint32_t num_groups_ = 0;
  uint64_t minor_cycles_ = 1;
  /// Flat cycle position per macro slot.
  std::vector<uint32_t> timeline_;
  /// CSR occurrence index: macro slots carrying flat position p are
  /// occ_[occ_start_[p] .. occ_start_[p + 1]), ascending.
  std::vector<uint32_t> occ_start_;
  std::vector<uint32_t> occ_;
  /// Macro slots where an index segment's first packet airs, ascending.
  std::vector<uint32_t> index_slots_;
};

/// Arrival-weighted initial-wait profile of a timeline: a client tuning in
/// at a uniform random slot probes one packet, then dozes to the next
/// index-segment start. Exact over the whole timeline (every arrival slot
/// weighted equally), in slots. All-zero when the cycle has no index
/// segments (full-sweep clients never doze to an index).
struct WaitProfile {
  double mean = 0.0;
  double p95 = 0.0;

  /// True when this profile strictly improves on `base` without regressing
  /// either statistic — the planner's adopt-or-collapse gate.
  bool BetterThan(const WaitProfile& base) const {
    return p95 <= base.p95 && mean <= base.mean &&
           (p95 < base.p95 || mean < base.mean);
  }
};

/// Profile of the flat cycle (identity timeline).
WaitProfile FlatWaitProfile(const BroadcastCycle& cycle);

/// Profile of a compiled broadcast-disk timeline.
WaitProfile ScheduleWaitProfile(const BroadcastSchedule& schedule);

/// Square-root-rule spec planner (Acharya et al.): a group demanded with
/// probability p and occupying l packets wants broadcast frequency
/// ∝ sqrt(p / l). Spins are the per-group frequencies normalized to the
/// least-demanded group and quantized to the nearest spin rate in
/// SpinLadder(disks, rates) (log-space nearest). Disk d spins at the d-th
/// fastest rate; a uniform demand profile collapses every group onto the
/// spin-1 disk — the identity timeline.
ScheduleSpec SquareRootSpec(const std::vector<double>& group_weight,
                            const std::vector<uint32_t>& group_packets,
                            uint32_t disks,
                            std::vector<uint32_t> rates = {});

}  // namespace airindex::broadcast

#endif  // AIRINDEX_BROADCAST_SCHEDULE_H_
