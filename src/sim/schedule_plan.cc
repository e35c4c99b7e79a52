#include "sim/schedule_plan.h"

#include <algorithm>
#include <cmath>

#include "core/region_data.h"

namespace airindex::sim {

namespace {

/// Per-group share of the cycle's index packets (empty when the cycle has
/// none). Every query's wait ends at an index segment — the access
/// protocol tunes to the next index before touching any data — so index
/// packets carry demand from the *whole* query population, not just the
/// queries whose destination data shares their group. The planners blend
/// this in with weight equal to the total destination mass: one index
/// fetch per query, one data fetch per query.
std::vector<double> GroupIndexShare(
    const broadcast::BroadcastCycle& cycle,
    const std::vector<uint32_t>& group_of_segment) {
  const uint32_t groups = broadcast::NumGroups(group_of_segment);
  std::vector<double> share(groups, 0.0);
  double total = 0.0;
  for (uint32_t si = 0; si < cycle.num_segments(); ++si) {
    const broadcast::Segment& seg = cycle.segment(si);
    if (!seg.is_index) continue;
    const auto pkts = static_cast<double>(seg.PacketCount());
    share[group_of_segment[si]] += pkts;
    total += pkts;
  }
  if (total <= 0.0) return {};
  for (double& s : share) s /= total;
  return share;
}

/// `demand` plus the index-fetch mass: index-bearing groups gain the total
/// demand split by index packet share.
std::vector<double> BlendIndexDemand(std::vector<double> demand,
                                     const std::vector<double>& idx_share) {
  if (idx_share.size() != demand.size()) return demand;
  double total = 0.0;
  for (double w : demand) total += w;
  if (total <= 0.0) return demand;
  for (size_t g = 0; g < demand.size(); ++g) {
    demand[g] += total * idx_share[g];
  }
  return demand;
}

/// Coefficient of variation of per-group demand over the cycle's
/// data-bearing groups — the planner's skew statistic. Index and
/// boundary groups are excluded: their (blended or unmapped) mass is
/// demand-independent and would dilute the measurement.
double DataDemandCv(const broadcast::BroadcastCycle& cycle,
                    const std::vector<double>& group_weight) {
  double sum = 0.0;
  size_t n = 0;
  for (uint32_t si = 0;
       si < cycle.num_segments() && si < group_weight.size(); ++si) {
    if (cycle.segment(si).type != broadcast::SegmentType::kNetworkData) {
      continue;
    }
    sum += group_weight[si];
    ++n;
  }
  if (n < 2 || sum <= 0.0) return 0.0;
  const double mean = sum / static_cast<double>(n);
  double var = 0.0;
  for (uint32_t si = 0;
       si < cycle.num_segments() && si < group_weight.size(); ++si) {
    if (cycle.segment(si).type != broadcast::SegmentType::kNetworkData) {
      continue;
    }
    const double d = group_weight[si] - mean;
    var += d * d;
  }
  return std::sqrt(var / static_cast<double>(n)) / mean;
}

/// Plan audit: keep `candidate` only when its compiled timeline's exact
/// doze-to-index wait profile beats the flat cycle's on both mean and p95
/// (strictly on at least one). Cycles whose index replication is already
/// wait-optimal — NR's dense (1,m) layout, where every inter-index gap is
/// one indivisible data segment — quantize any spin plan into gaps no
/// better than flat's; auditing the actual timeline catches this where
/// the square-root rule (which assumes ideally divisible bandwidth)
/// cannot. Cycles without index segments audit trivially flat: full-sweep
/// clients have no initial wait for a schedule to cut, and repetitions
/// would only stretch their sweep.
broadcast::ScheduleSpec AuditSpec(const broadcast::BroadcastCycle& cycle,
                                  broadcast::ScheduleSpec candidate) {
  const auto compiled = CompileSchedule(cycle, candidate);
  if (!compiled.has_value()) return broadcast::ScheduleSpec::Flat();
  const broadcast::WaitProfile flat = broadcast::FlatWaitProfile(cycle);
  const broadcast::WaitProfile sched =
      broadcast::ScheduleWaitProfile(*compiled);
  if (flat.mean == 0.0 && flat.p95 == 0.0) {
    return broadcast::ScheduleSpec::Flat();
  }
  return sched.BetterThan(flat) ? candidate
                                : broadcast::ScheduleSpec::Flat();
}

/// Folds per-node demand weights into per-group weights: a group's weight
/// is the summed weight of the nodes its segments carry, plus an even
/// share of the unmapped mass (so index-only groups keep a positive floor
/// from the planner's epsilon instead of starving). `node_weight` may be
/// empty (uniform demand).
std::vector<double> GroupDemandWeights(
    const broadcast::BroadcastCycle& cycle,
    const std::vector<uint32_t>& group_of_node,
    std::span<const double> node_weight) {
  const std::vector<uint32_t> group_of_segment =
      broadcast::CycleGroups(cycle);
  const uint32_t groups = broadcast::NumGroups(group_of_segment);
  std::vector<double> w(groups, 0.0);
  if (groups == 0) return w;
  double unmapped = 0.0;
  for (size_t v = 0; v < group_of_node.size(); ++v) {
    const double p = v < node_weight.size()
                         ? node_weight[v]
                         : (node_weight.empty() && !group_of_node.empty()
                                ? 1.0 / static_cast<double>(
                                            group_of_node.size())
                                : 0.0);
    if (group_of_node[v] == kUnmappedGroup) {
      unmapped += p;
    } else {
      w[group_of_node[v]] += p;
    }
  }
  if (unmapped > 0.0) {
    const double share = unmapped / static_cast<double>(groups);
    for (double& x : w) x += share;
  }
  return w;
}

}  // namespace

std::vector<uint32_t> NodeGroups(const broadcast::BroadcastCycle& cycle,
                                 size_t num_nodes) {
  std::vector<uint32_t> group_of_node(num_nodes, kUnmappedGroup);
  const std::vector<uint32_t> group_of_segment =
      broadcast::CycleGroups(cycle);
  const broadcast::CycleEncoding encoding = cycle.encoding();
  const bool region = cycle.data_layout() == broadcast::DataLayout::kRegion;
  broadcast::NodeRecord record;
  for (uint32_t si = 0; si < cycle.num_segments(); ++si) {
    const broadcast::Segment& seg = cycle.segment(si);
    if (seg.type != broadcast::SegmentType::kNetworkData) continue;
    // An undecodable payload contributes no mapping.
    if (!(region ? core::ValidateRegionData(seg.payload, encoding)
                 : broadcast::ValidateNodeRecords(seg.payload, encoding))
             .ok()) {
      continue;
    }
    broadcast::NodeRecordCursor cursor =
        region ? core::RegionDataView(seg.payload, encoding).records()
               : broadcast::NodeRecordCursor(seg.payload, encoding);
    while (cursor.Next(&record)) {
      if (record.id < num_nodes && group_of_node[record.id] == kUnmappedGroup) {
        group_of_node[record.id] = group_of_segment[si];
      }
    }
  }
  return group_of_node;
}

broadcast::ScheduleSpec PlanStaticSpec(const broadcast::BroadcastCycle& cycle,
                                       std::span<const double> node_weight,
                                       const SchedulePolicy& policy,
                                       bool* audit_flat) {
  if (audit_flat != nullptr) *audit_flat = false;
  const std::vector<uint32_t> group_of_segment =
      broadcast::CycleGroups(cycle);
  const std::vector<uint32_t> group_of_node =
      NodeGroups(cycle, node_weight.size());
  std::vector<double> demand =
      GroupDemandWeights(cycle, group_of_node, node_weight);
  if (DataDemandCv(cycle, demand) < policy.min_skew) {
    return broadcast::ScheduleSpec::Flat();
  }
  const std::vector<double> weights = BlendIndexDemand(
      std::move(demand), GroupIndexShare(cycle, group_of_segment));
  broadcast::ScheduleSpec candidate = broadcast::SquareRootSpec(
      weights, broadcast::GroupPacketCounts(cycle, group_of_segment),
      policy.disks, policy.rates);
  if (candidate.flat()) return candidate;
  broadcast::ScheduleSpec audited = AuditSpec(cycle, std::move(candidate));
  if (audit_flat != nullptr) *audit_flat = audited.flat();
  return audited;
}

OnlineReplanner::OnlineReplanner(const broadcast::BroadcastCycle* cycle,
                                 std::vector<uint32_t> group_of_node,
                                 SchedulePolicy policy)
    : cycle_(cycle),
      group_of_node_(std::move(group_of_node)),
      policy_(std::move(policy)),
      spec_(broadcast::ScheduleSpec::Flat()) {
  const std::vector<uint32_t> group_of_segment =
      broadcast::CycleGroups(*cycle_);
  group_packets_ =
      broadcast::GroupPacketCounts(*cycle_, group_of_segment);
  for (uint32_t p : group_packets_) total_packets_ += p;
  idx_share_ = GroupIndexShare(*cycle_, group_of_segment);
  ewma_.assign(group_packets_.size(), 0.0);
  epoch_.assign(group_packets_.size(), 0.0);
}

void OnlineReplanner::ObserveDestination(graph::NodeId dest) {
  if (dest < group_of_node_.size() &&
      group_of_node_[dest] != kUnmappedGroup) {
    epoch_[group_of_node_[dest]] += 1.0;
  }
}

bool OnlineReplanner::Replan() {
  if (ewma_.empty()) return false;
  const double decay = std::clamp(policy_.decay, 0.0, 1.0);
  for (size_t g = 0; g < ewma_.size(); ++g) {
    ewma_[g] = decay * ewma_[g] + epoch_[g];
    epoch_[g] = 0.0;
  }
  // Skew gate on the observed demand, shrunk for sampling noise: counts
  // with per-group mean m carry Poisson dispersion cv^2 ~= 1/m even under
  // uniform demand, so subtract it before comparing against the policy
  // threshold (cv_true^2 ~= cv_obs^2 - 1/m).
  broadcast::ScheduleSpec candidate = broadcast::ScheduleSpec::Flat();
  const double cv_obs = DataDemandCv(*cycle_, ewma_);
  double ewma_sum = 0.0;
  for (double w : ewma_) ewma_sum += w;
  const double group_mean =
      ewma_sum / static_cast<double>(ewma_.size() ? ewma_.size() : 1);
  const double cv = group_mean > 0.0
                        ? std::sqrt(std::max(
                              0.0, cv_obs * cv_obs - 1.0 / group_mean))
                        : 0.0;
  if (cv >= policy_.min_skew) {
    candidate =
        AuditSpec(*cycle_, broadcast::SquareRootSpec(
                               BlendIndexDemand(ewma_, idx_share_),
                               group_packets_, policy_.disks,
                               policy_.rates));
  }
  if (candidate == spec_) return false;
  // Hysteresis: packet mass whose spin the candidate changes, as a
  // fraction of the flat cycle. Spin of a group under the flat spec is 1.
  auto spin_of = [](const broadcast::ScheduleSpec& s, size_t g) {
    return s.flat() ? uint32_t{1} : s.spin[s.disk_of_group[g]];
  };
  uint64_t changed = 0;
  for (size_t g = 0; g < group_packets_.size(); ++g) {
    if (spin_of(candidate, g) != spin_of(spec_, g)) {
      changed += group_packets_[g];
    }
  }
  if (total_packets_ > 0 &&
      static_cast<double>(changed) <
          policy_.hysteresis * static_cast<double>(total_packets_)) {
    return false;
  }
  spec_ = std::move(candidate);
  return true;
}

std::optional<broadcast::BroadcastSchedule> CompileSchedule(
    const broadcast::BroadcastCycle& cycle, broadcast::ScheduleSpec spec) {
  if (spec.flat()) return std::nullopt;
  auto compiled =
      broadcast::BroadcastSchedule::Compile(&cycle, std::move(spec));
  if (!compiled.ok()) return std::nullopt;
  return std::move(compiled).value();
}

std::optional<broadcast::BroadcastSchedule> StaticSchedule(
    const broadcast::BroadcastCycle& cycle, std::span<const double> demand,
    const SchedulePolicy& policy) {
  if (policy.mode != SchedulePolicy::Mode::kStatic) return std::nullopt;
  return CompileSchedule(cycle, PlanStaticSpec(cycle, demand, policy));
}

}  // namespace airindex::sim
