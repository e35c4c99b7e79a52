#include "broadcast/schedule.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace airindex::broadcast {

std::vector<uint32_t> CycleGroups(const BroadcastCycle& cycle) {
  // Every segment is its own schedulable unit. Chunks are built from
  // whole groups, so segment granularity is the finest partition that
  // still keeps segment reassembly away from repetition seams — and fine
  // groups are what let the compiler interleave disks tightly (small
  // chunks) and the planner spin index copies independently of the data
  // runs whose popularity they serve.
  std::vector<uint32_t> group_of(cycle.num_segments());
  std::iota(group_of.begin(), group_of.end(), 0u);
  return group_of;
}

uint32_t NumGroups(const std::vector<uint32_t>& group_of_segment) {
  return group_of_segment.empty() ? 0 : group_of_segment.back() + 1;
}

std::vector<uint32_t> GroupPacketCounts(
    const BroadcastCycle& cycle,
    const std::vector<uint32_t>& group_of_segment) {
  std::vector<uint32_t> packets(NumGroups(group_of_segment), 0);
  for (size_t i = 0; i < group_of_segment.size(); ++i) {
    packets[group_of_segment[i]] += cycle.segment(i).PacketCount();
  }
  return packets;
}

std::vector<uint32_t> SpinLadder(uint32_t disks,
                                 std::vector<uint32_t> rates) {
  disks = std::max(disks, 1u);
  if (rates.empty()) {
    for (uint32_t d = 0; d < disks; ++d) {
      rates.push_back(1u << (disks - 1 - d));
    }
  } else {
    std::sort(rates.begin(), rates.end(), std::greater<>());
  }
  for (uint32_t& r : rates) {
    if (r == 0) r = 1;
  }
  return rates;
}

Result<uint64_t> MacroMinorCycles(const std::vector<uint32_t>& spins) {
  uint64_t lcm = 1;
  for (uint32_t r : spins) {
    if (r == 0) return Status::InvalidArgument("disk spin rate must be >= 1");
    lcm = std::lcm(lcm, static_cast<uint64_t>(r));
    if (lcm > BroadcastSchedule::kMaxMacroMinorCycles) {
      return Status::InvalidArgument(
          "spin rates produce a macro cycle (their LCM) beyond " +
          std::to_string(BroadcastSchedule::kMaxMacroMinorCycles) +
          " minor cycles");
    }
  }
  return lcm;
}

Result<BroadcastSchedule> BroadcastSchedule::Compile(
    const BroadcastCycle* cycle, ScheduleSpec spec) {
  if (cycle == nullptr || cycle->total_packets() == 0) {
    return Status::InvalidArgument("schedule needs a non-empty cycle");
  }
  BroadcastSchedule s;
  s.cycle_ = cycle;
  s.group_of_segment_ = CycleGroups(*cycle);
  s.num_groups_ = NumGroups(s.group_of_segment_);
  if (spec.flat()) {
    // Identity timeline: one disk spinning once.
    spec.spin = {1};
    spec.disk_of_group.assign(s.num_groups_, 0);
  }
  if (spec.disk_of_group.size() != s.num_groups_) {
    return Status::InvalidArgument(
        "schedule spec covers " + std::to_string(spec.disk_of_group.size()) +
        " groups, cycle has " + std::to_string(s.num_groups_));
  }
  const auto num_disks = static_cast<uint32_t>(spec.spin.size());
  AIRINDEX_ASSIGN_OR_RETURN(const uint64_t lcm, MacroMinorCycles(spec.spin));
  for (uint32_t d : spec.disk_of_group) {
    if (d >= num_disks) {
      return Status::InvalidArgument("group assigned to unknown disk " +
                                     std::to_string(d));
    }
  }
  s.spec_ = std::move(spec);

  // Each group is one contiguous flat packet range [start, end).
  struct GroupRange {
    uint32_t start = 0;
    uint32_t end = 0;
  };
  std::vector<GroupRange> range(s.num_groups_);
  for (size_t i = 0; i < s.group_of_segment_.size(); ++i) {
    const uint32_t g = s.group_of_segment_[i];
    const uint32_t start = cycle->SegmentStart(i);
    const uint32_t end = start + cycle->segment(i).PacketCount();
    if (range[g].end == 0 && range[g].start == 0) range[g].start = start;
    range[g].end = end;
  }

  uint64_t macro_packets = 0;
  for (uint32_t g = 0; g < s.num_groups_; ++g) {
    macro_packets += static_cast<uint64_t>(range[g].end - range[g].start) *
                     s.spec_.spin[s.spec_.disk_of_group[g]];
  }
  s.minor_cycles_ = lcm;

  // Ideal-position schedule: every (group, repetition) occurrence gets an
  // ideal macro slot, expressed as an exact rational num/den; occurrences
  // are emitted whole, sorted by ideal. Because the ideals are slot-space
  // coordinates (measure-preserving: the material emitted between two
  // ideals matches their slot distance), emissions track their ideals to
  // within one group length — hot-data insertions can't pile up and drift
  // a repetition away from its slot.
  //
  // Ideals come in two flavors:
  //   * Data group g: (S(g) + k * macro) / spin, where S(g) is the
  //     group's start in the *stretched* flat order (prefix sum of
  //     len * spin). Spin-1 data keeps its flat-cycle order; hot groups
  //     repeat at even intervals.
  //   * Index group c (c-th index segment in flat order, of R): its k-th
  //     repetition at (c * macro / R + k * macro) / spin. Index starts are
  //     what terminate every client's initial wait, so the R copies are
  //     re-phased evenly across the macro cycle rather than inheriting
  //     the flat layout's (stretch-distorted) spacing: with equal spins
  //     the union of all index occurrences lands on one even lattice of
  //     R * spin slots — the wait-optimal placement the square-root rule
  //     assumes.
  struct Occurrence {
    uint64_t num = 0;  // ideal macro slot = num / den
    uint64_t den = 1;
    uint32_t group = 0;
  };
  uint64_t num_occurrences = 0;
  uint32_t num_index_groups = 0;
  for (uint32_t g = 0; g < s.num_groups_; ++g) {
    num_occurrences += s.spec_.spin[s.spec_.disk_of_group[g]];
    const uint32_t si = cycle->SegmentAt(range[g].start);
    if (cycle->segment(si).is_index) ++num_index_groups;
  }
  std::vector<Occurrence> occs;
  occs.reserve(num_occurrences);
  uint64_t stretched_start = 0;  // S(g): groups are in flat cycle order
  uint32_t index_rank = 0;       // c: rank among index groups
  for (uint32_t g = 0; g < s.num_groups_; ++g) {
    const uint32_t spin = s.spec_.spin[s.spec_.disk_of_group[g]];
    const uint32_t si = cycle->SegmentAt(range[g].start);
    const bool is_index = cycle->segment(si).is_index;
    for (uint32_t k = 0; k < spin; ++k) {
      Occurrence o;
      if (is_index) {
        // (c / R + k) * macro / spin, over the common denominator R * spin.
        o.num = macro_packets *
                (index_rank + static_cast<uint64_t>(k) * num_index_groups);
        o.den = static_cast<uint64_t>(num_index_groups) * spin;
      } else {
        o.num = stretched_start + k * macro_packets;
        o.den = spin;
      }
      o.group = g;
      occs.push_back(o);
    }
    if (is_index) ++index_rank;
    stretched_start +=
        static_cast<uint64_t>(range[g].end - range[g].start) * spin;
  }
  std::stable_sort(occs.begin(), occs.end(),
                   [](const Occurrence& a, const Occurrence& b) {
                     // a.num / a.den < b.num / b.den, exactly, without
                     // division.
                     return a.num * b.den < b.num * a.den;
                   });
  s.timeline_.reserve(macro_packets);
  for (const Occurrence& o : occs) {
    for (uint32_t p = range[o.group].start; p < range[o.group].end; ++p) {
      s.timeline_.push_back(p);
    }
  }

  // Occurrence index (counting sort of slots by flat position) and the
  // index-start slot list.
  const uint64_t total = cycle->total_packets();
  s.occ_start_.assign(total + 1, 0);
  for (uint32_t p : s.timeline_) ++s.occ_start_[p + 1];
  for (uint32_t p = 0; p < total; ++p) s.occ_start_[p + 1] += s.occ_start_[p];
  s.occ_.resize(s.timeline_.size());
  {
    std::vector<uint32_t> cursor(s.occ_start_.begin(), s.occ_start_.end() - 1);
    for (uint32_t slot = 0; slot < s.timeline_.size(); ++slot) {
      s.occ_[cursor[s.timeline_[slot]]++] = slot;
    }
  }
  for (uint32_t slot = 0; slot < s.timeline_.size(); ++slot) {
    const uint32_t cpos = s.timeline_[slot];
    const uint32_t si = cycle->SegmentAt(cpos);
    if (cycle->segment(si).is_index && cycle->SegmentStart(si) == cpos) {
      s.index_slots_.push_back(slot);
    }
  }
  return s;
}

uint64_t BroadcastSchedule::NextSlotOf(uint64_t abs, uint32_t cpos) const {
  const uint64_t macro = timeline_.size();
  const auto m = static_cast<uint32_t>(abs % macro);
  const uint64_t base = abs - m;
  const auto begin = occ_.begin() + occ_start_[cpos];
  const auto end = occ_.begin() + occ_start_[cpos + 1];
  const auto it = std::lower_bound(begin, end, m);
  if (it != end) return base + *it;
  // Wrap into the next macro cycle (every position occurs at least once,
  // so `begin` is valid).
  return base + macro + *begin;
}

uint32_t BroadcastSchedule::NextIndexCyclePos(uint64_t abs) const {
  const auto m = static_cast<uint32_t>(abs % timeline_.size());
  if (index_slots_.empty()) return cycle_->NextIndexStart(timeline_[m]);
  const auto it =
      std::lower_bound(index_slots_.begin(), index_slots_.end(), m);
  const uint32_t slot = it != index_slots_.end() ? *it : index_slots_.front();
  return timeline_[slot];
}

std::vector<BroadcastSchedule::DiskInfo> BroadcastSchedule::DiskLayout()
    const {
  std::vector<DiskInfo> disks(spec_.spin.size());
  for (size_t d = 0; d < disks.size(); ++d) disks[d].spin = spec_.spin[d];
  const std::vector<uint32_t> packets =
      GroupPacketCounts(*cycle_, group_of_segment_);
  for (uint32_t g = 0; g < num_groups_; ++g) {
    DiskInfo& d = disks[spec_.disk_of_group[g]];
    ++d.groups;
    d.packets += packets[g];
  }
  return disks;
}

namespace {

/// Exact wait statistics from the sorted index-start slots of a timeline
/// of `total` slots. A client arriving at slot a (uniform) probes packet
/// a, then dozes to the first index start >= a + 1: within a gap of G
/// slots between consecutive index starts the waits are 1..G, each hit by
/// exactly one arrival slot.
WaitProfile ProfileOfIndexSlots(const std::vector<uint64_t>& index_slots,
                                uint64_t total) {
  WaitProfile p;
  if (index_slots.empty() || total == 0) return p;
  std::vector<uint64_t> gaps;
  gaps.reserve(index_slots.size());
  for (size_t i = 0; i < index_slots.size(); ++i) {
    const uint64_t next = i + 1 < index_slots.size()
                              ? index_slots[i + 1]
                              : index_slots[0] + total;
    gaps.push_back(next - index_slots[i]);
  }
  double mean_num = 0.0;
  uint64_t max_gap = 0;
  for (uint64_t g : gaps) {
    mean_num += 0.5 * static_cast<double>(g) * static_cast<double>(g + 1);
    max_gap = std::max(max_gap, g);
  }
  p.mean = mean_num / static_cast<double>(total);
  // p95: smallest integer wait t with at most 5% of arrivals waiting
  // longer — sum over gaps of max(0, G - t) slots wait > t.
  const double tail_budget = 0.05 * static_cast<double>(total);
  uint64_t lo = 0;
  uint64_t hi = max_gap;
  while (lo < hi) {
    const uint64_t t = lo + (hi - lo) / 2;
    uint64_t tail = 0;
    for (uint64_t g : gaps) tail += g > t ? g - t : 0;
    if (static_cast<double>(tail) <= tail_budget) {
      hi = t;
    } else {
      lo = t + 1;
    }
  }
  p.p95 = static_cast<double>(lo);
  return p;
}

}  // namespace

WaitProfile FlatWaitProfile(const BroadcastCycle& cycle) {
  std::vector<uint64_t> starts;
  for (uint32_t si = 0; si < cycle.num_segments(); ++si) {
    if (cycle.segment(si).is_index) {
      starts.push_back(cycle.SegmentStart(si));
    }
  }
  return ProfileOfIndexSlots(starts, cycle.total_packets());
}

WaitProfile ScheduleWaitProfile(const BroadcastSchedule& schedule) {
  const BroadcastCycle& cycle = schedule.cycle();
  std::vector<uint64_t> starts;
  for (uint64_t slot = 0; slot < schedule.macro_packets(); ++slot) {
    const uint32_t cpos = schedule.CyclePosAt(slot);
    const uint32_t si = cycle.SegmentAt(cpos);
    if (cycle.segment(si).is_index && cycle.SegmentStart(si) == cpos) {
      starts.push_back(slot);
    }
  }
  return ProfileOfIndexSlots(starts, schedule.macro_packets());
}

ScheduleSpec SquareRootSpec(const std::vector<double>& group_weight,
                            const std::vector<uint32_t>& group_packets,
                            uint32_t disks,
                            std::vector<uint32_t> rates) {
  ScheduleSpec spec;
  const size_t n = group_weight.size();
  if (n == 0 || group_packets.size() != n) return spec;
  rates = SpinLadder(disks, std::move(rates));

  // sqrt(p / l) per group, with a pinch of smoothing so groups no query
  // happened to hit keep a nonzero frequency.
  double total_weight = 0.0;
  for (double w : group_weight) total_weight += w;
  const double eps =
      total_weight > 0.0 ? 0.01 * total_weight / static_cast<double>(n)
                         : 1.0;
  std::vector<double> score(n);
  for (size_t g = 0; g < n; ++g) {
    const double len = group_packets[g] > 0 ? group_packets[g] : 1.0;
    score[g] = std::sqrt((group_weight[g] + eps) / len);
  }
  // Bandwidth-preserving normalization (Acharya's rule): scale the ideal
  // frequencies so sum(len_g * f_g) equals the flat cycle's packet budget.
  // Groups then want f near 1 unless demand genuinely sets them apart —
  // normalizing to the coldest group instead would spin most of the cycle
  // up and stretch the macro cycle until absolute waits got *worse*.
  double ideal_budget = 0.0;
  double flat_budget = 0.0;
  for (size_t g = 0; g < n; ++g) {
    const double len = group_packets[g] > 0 ? group_packets[g] : 1.0;
    ideal_budget += len * score[g];
    flat_budget += len;
  }
  const double norm = ideal_budget > 0.0 ? flat_budget / ideal_budget : 1.0;

  // Nearest rate in log space: a group wanting 3x the base frequency lands
  // on spin 4 of the {4,2,1} ladder, one wanting 1.3x stays on spin 1.
  spec.spin = rates;
  spec.disk_of_group.resize(n);
  for (size_t g = 0; g < n; ++g) {
    const double want = std::log(std::max(score[g] * norm, 1.0));
    uint32_t best = 0;
    double best_dist = 0.0;
    for (uint32_t d = 0; d < rates.size(); ++d) {
      const double dist = std::abs(want - std::log(double{1} * rates[d]));
      if (d == 0 || dist < best_dist) {
        best = d;
        best_dist = dist;
      }
    }
    spec.disk_of_group[g] = best;
  }

  // A plan that never leaves the slowest disk is the flat broadcast.
  const uint32_t slowest = static_cast<uint32_t>(rates.size()) - 1;
  bool all_slowest = true;
  for (uint32_t d : spec.disk_of_group) {
    if (d != slowest) {
      all_slowest = false;
      break;
    }
  }
  if (all_slowest && rates[slowest] == 1) return ScheduleSpec::Flat();
  return spec;
}

}  // namespace airindex::broadcast
