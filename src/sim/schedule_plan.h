#ifndef AIRINDEX_SIM_SCHEDULE_PLAN_H_
#define AIRINDEX_SIM_SCHEDULE_PLAN_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "broadcast/cycle.h"
#include "broadcast/schedule.h"
#include "graph/types.h"

namespace airindex::sim {

/// How a simulation run schedules its broadcast cycles across disks.
///   * kFlat: the historical single-disk timeline (the default — every
///     pre-existing run is bit-identical).
///   * kStatic: one spec planned up front from an analytic demand profile
///     (the square-root rule over the workload's destination distribution).
///   * kOnline: the station re-plans every `replan_cycles` cycles from the
///     demand it has observed so far (EWMA-decayed, hysteresis-gated) —
///     event engine only; the batch engine has no shared timeline to
///     re-plan on.
struct SchedulePolicy {
  enum class Mode { kFlat, kStatic, kOnline } mode = Mode::kFlat;
  /// Number of broadcast disks of the planned specs (>= 1).
  uint32_t disks = 3;
  /// Explicit spin-rate ladder; empty selects powers of two
  /// {2^(disks-1), ..., 1}.
  std::vector<uint32_t> rates;
  /// Online: epoch length, in broadcast cycles of the currently adopted
  /// spec, between re-plans.
  uint32_t replan_cycles = 4;
  /// Online: per-epoch EWMA decay of the demand estimate in (0, 1]; the
  /// estimate entering a re-plan is decay * previous + this epoch's counts.
  double decay = 0.5;
  /// Online: adopt a candidate spec only when the packet mass whose spin
  /// it changes exceeds this fraction of the cycle (damps plan flapping).
  double hysteresis = 0.1;
  /// Minimum demand skew — coefficient of variation of per-group
  /// destination demand over the cycle's data groups — before a non-flat
  /// plan is considered. Broadcast disks pay for repetition with cycle
  /// stretch; near-uniform demand cannot recoup it, so the planner keeps
  /// the built cycle (the flat broadcast) below this threshold. The
  /// online estimator shrinks its observed CV for sampling noise before
  /// comparing.
  double min_skew = 0.5;

  bool flat() const { return mode == Mode::kFlat; }
  bool operator==(const SchedulePolicy&) const = default;
};

/// Group ordinal assigned to nodes that appear in no decodable data
/// segment of the cycle (their demand is spread uniformly).
inline constexpr uint32_t kUnmappedGroup = ~uint32_t{0};

/// Maps every node to the interleave group (broadcast::CycleGroups) whose
/// data segments carry its record, by decoding each kNetworkData payload
/// in the cycle's own format (BroadcastCycle::data_layout and encoding).
/// Nodes found in several groups keep the first; nodes found nowhere (or
/// in undecodable segments) map to kUnmappedGroup.
std::vector<uint32_t> NodeGroups(const broadcast::BroadcastCycle& cycle,
                                 size_t num_nodes);

/// The static planner: square-root-rule spec for `cycle` under the given
/// per-node demand profile. An empty/uniform profile yields the flat spec.
/// When `audit_flat` is set, it tells whether the plan audit, rather than
/// too even a demand, made the spec flat.
broadcast::ScheduleSpec PlanStaticSpec(const broadcast::BroadcastCycle& cycle,
                                       std::span<const double> node_weight,
                                       const SchedulePolicy& policy,
                                       bool* audit_flat = nullptr);

/// The timeline `cycle` airs under `spec`. Empty for the flat spec (or
/// one that does not compile): the channel then stays schedule-free, bit
/// for bit the flat timeline.
std::optional<broadcast::BroadcastSchedule> CompileSchedule(
    const broadcast::BroadcastCycle& cycle, broadcast::ScheduleSpec spec);

/// The static broadcast-disk schedule of `cycle`, planned once from the
/// analytic demand profile. Empty when the policy is not kStatic, or when
/// the planner collapses to the flat spec.
std::optional<broadcast::BroadcastSchedule> StaticSchedule(
    const broadcast::BroadcastCycle& cycle, std::span<const double> demand,
    const SchedulePolicy& policy);

/// The online demand estimator: counts destination demand per interleave
/// group as queries arrive, and re-plans the spec at epoch boundaries from
/// the EWMA-decayed counts. Deterministic: the adopted spec sequence is a
/// pure function of the observation sequence (no clocks, no randomness),
/// so an event-engine run replays identically for any thread count.
class OnlineReplanner {
 public:
  /// `cycle` must outlive the replanner. `group_of_node` as from
  /// NodeGroups. Starts with the flat spec adopted.
  OnlineReplanner(const broadcast::BroadcastCycle* cycle,
                  std::vector<uint32_t> group_of_node, SchedulePolicy policy);

  /// Records one arriving query's destination (station-side demand signal).
  void ObserveDestination(graph::NodeId dest);

  /// Epoch boundary: folds the epoch's counts into the EWMA, plans a
  /// candidate via the square-root rule, and adopts it when the changed
  /// packet mass clears the hysteresis gate. Returns true when the adopted
  /// spec changed.
  bool Replan();

  /// The currently adopted spec (flat until a re-plan adopts otherwise).
  const broadcast::ScheduleSpec& spec() const { return spec_; }

 private:
  const broadcast::BroadcastCycle* cycle_;
  std::vector<uint32_t> group_of_node_;
  SchedulePolicy policy_;
  std::vector<uint32_t> group_packets_;
  uint64_t total_packets_ = 0;
  /// Per-group index packet share (see GroupIndexShare in the .cc).
  std::vector<double> idx_share_;
  /// EWMA demand estimate and the current epoch's raw counts, per group.
  std::vector<double> ewma_;
  std::vector<double> epoch_;
  broadcast::ScheduleSpec spec_;
};

}  // namespace airindex::sim

#endif  // AIRINDEX_SIM_SCHEDULE_PLAN_H_
