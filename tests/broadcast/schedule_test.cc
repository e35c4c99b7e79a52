// Property suite for the compiled broadcast-disk timeline: every valid
// spec must place every group exactly spin-many times per macro cycle,
// with each repetition airing the group's packets contiguously in cycle
// order — the two invariants segment reassembly and the occurrence-aware
// sleep algebra rely on. Plus the identity of the flat spec, spec
// validation, next-occurrence lookups, and the wait-profile audit
// primitives.

#include "broadcast/schedule.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "broadcast/cycle.h"

namespace airindex::broadcast {
namespace {

/// `index_every > 0` makes every index_every-th segment an index segment
/// (starting at 0); 0 builds a data-only cycle.
BroadcastCycle MakeCycle(size_t segments, size_t bytes_each,
                         size_t index_every) {
  CycleBuilder b;
  for (size_t i = 0; i < segments; ++i) {
    Segment s;
    const bool is_index = index_every > 0 && i % index_every == 0;
    s.type = is_index ? SegmentType::kGlobalIndex : SegmentType::kNetworkData;
    s.is_index = is_index;
    s.id = static_cast<uint32_t>(i);
    s.payload.assign(bytes_each, static_cast<uint8_t>(i + 1));
    b.Add(std::move(s));
  }
  return std::move(b).Finalize(/*require_index=*/index_every > 0).value();
}

/// Deterministic spec family: group g rides disk (g * stride) % disks.
ScheduleSpec MakeSpec(uint32_t groups, std::vector<uint32_t> rates,
                      uint32_t stride) {
  ScheduleSpec spec;
  spec.spin = std::move(rates);
  spec.disk_of_group.resize(groups);
  for (uint32_t g = 0; g < groups; ++g) {
    spec.disk_of_group[g] =
        (g * stride) % static_cast<uint32_t>(spec.spin.size());
  }
  return spec;
}

TEST(ScheduleTest, FlatSpecCompilesToIdentityTimeline) {
  BroadcastCycle cycle = MakeCycle(6, 300, 3);
  auto s = BroadcastSchedule::Compile(&cycle, ScheduleSpec::Flat());
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->macro_packets(), cycle.total_packets());
  EXPECT_DOUBLE_EQ(s->Stretch(), 1.0);
  for (uint64_t i = 0; i < s->macro_packets(); ++i) {
    ASSERT_EQ(s->CyclePosAt(i), i);
  }
}

TEST(ScheduleTest, EveryGroupAppearsExactlySpinTimesPerMacroCycle) {
  const std::vector<std::vector<uint32_t>> ladders = {
      {1}, {2, 1}, {4, 2, 1}, {3, 1}, {6, 3, 2}, {5, 2, 1}};
  for (size_t segments : {3u, 7u, 12u}) {
    for (size_t index_every : {0u, 1u, 3u, 4u}) {
      BroadcastCycle cycle = MakeCycle(segments, 260, index_every);
      const std::vector<uint32_t> groups = CycleGroups(cycle);
      const uint32_t n = NumGroups(groups);
      for (const auto& rates : ladders) {
        for (uint32_t stride : {1u, 2u, 5u}) {
          ScheduleSpec spec = MakeSpec(n, rates, stride);
          auto s = BroadcastSchedule::Compile(&cycle, spec);
          ASSERT_TRUE(s.ok());

          // Count occurrences of every flat packet position in one macro
          // cycle; a group's packets must each appear exactly spin times.
          std::vector<uint32_t> seen(cycle.total_packets(), 0);
          for (uint64_t slot = 0; slot < s->macro_packets(); ++slot) {
            ++seen[s->CyclePosAt(slot)];
          }
          for (uint32_t p = 0; p < cycle.total_packets(); ++p) {
            const uint32_t g = groups[cycle.SegmentAt(p)];
            ASSERT_EQ(seen[p], spec.spin[spec.disk_of_group[g]])
                << "segments " << segments << " pos " << p;
          }
        }
      }
    }
  }
}

TEST(ScheduleTest, RepetitionsAirWholeGroupsContiguously) {
  BroadcastCycle cycle = MakeCycle(9, 300, 3);
  const std::vector<uint32_t> groups = CycleGroups(cycle);
  ScheduleSpec spec = MakeSpec(NumGroups(groups), {4, 2, 1}, 1);
  auto s = BroadcastSchedule::Compile(&cycle, spec);
  ASSERT_TRUE(s.ok());

  // Group starts (first packet of the group's range) partition the
  // timeline: from each start, the group's full packet range must follow
  // in cycle order before any other group's packet airs.
  uint64_t slot = 0;
  while (slot < s->macro_packets()) {
    const uint32_t first = s->CyclePosAt(slot);
    const uint32_t si = cycle.SegmentAt(first);
    ASSERT_EQ(first, cycle.SegmentStart(si))
        << "slot " << slot << " does not begin a group";
    const uint32_t len = cycle.segment(si).PacketCount();
    for (uint32_t k = 0; k < len; ++k) {
      ASSERT_EQ(s->CyclePosAt(slot + k), first + k);
    }
    slot += len;
  }
}

TEST(ScheduleTest, RejectsMalformedSpecs) {
  BroadcastCycle cycle = MakeCycle(4, 300, 2);
  const uint32_t n = NumGroups(CycleGroups(cycle));

  ScheduleSpec wrong_size = MakeSpec(n, {2, 1}, 1);
  wrong_size.disk_of_group.pop_back();
  EXPECT_FALSE(BroadcastSchedule::Compile(&cycle, wrong_size).ok());

  ScheduleSpec zero_spin = MakeSpec(n, {2, 0}, 1);
  EXPECT_FALSE(BroadcastSchedule::Compile(&cycle, zero_spin).ok());

  ScheduleSpec bad_disk = MakeSpec(n, {2, 1}, 1);
  bad_disk.disk_of_group[0] = 7;
  EXPECT_FALSE(BroadcastSchedule::Compile(&cycle, bad_disk).ok());

  // Coprime spins whose LCM exceeds kMaxMacroMinorCycles.
  ScheduleSpec huge = MakeSpec(n, {4096, 3}, 1);
  EXPECT_FALSE(BroadcastSchedule::Compile(&cycle, huge).ok());
}

TEST(ScheduleTest, MacroMinorCyclesBoundsTheLadder) {
  // The power-of-two ladder of 13 disks is the longest that compiles; 14
  // disks start at 2^13.
  EXPECT_EQ(SpinLadder(3, {}), (std::vector<uint32_t>{4, 2, 1}));
  EXPECT_EQ(SpinLadder(2, {1, 5}), (std::vector<uint32_t>{5, 1}));
  ASSERT_TRUE(MacroMinorCycles(SpinLadder(13, {})).ok());
  EXPECT_EQ(*MacroMinorCycles(SpinLadder(13, {})),
            BroadcastSchedule::kMaxMacroMinorCycles);
  EXPECT_EQ(*MacroMinorCycles({6, 4, 1}), 12u);
  for (const std::vector<uint32_t>& spins :
       {SpinLadder(14, {}), std::vector<uint32_t>{13, 11, 7, 5, 3}}) {
    const auto cycles = MacroMinorCycles(spins);
    ASSERT_FALSE(cycles.ok());
    EXPECT_NE(cycles.status().message().find("beyond 4096 minor cycles"),
              std::string::npos)
        << cycles.status().ToString();
  }
  EXPECT_FALSE(MacroMinorCycles({2, 0}).ok());
}

TEST(ScheduleTest, NextSlotOfFindsTheNextRepetitionNotTheNextCycle) {
  BroadcastCycle cycle = MakeCycle(8, 300, 4);
  const std::vector<uint32_t> groups = CycleGroups(cycle);
  ScheduleSpec spec = MakeSpec(NumGroups(groups), {4, 2, 1}, 1);
  auto s = BroadcastSchedule::Compile(&cycle, spec);
  ASSERT_TRUE(s.ok());

  // Exhaustive over one macro cycle: the returned slot carries the asked
  // position, is not before `abs`, and no earlier slot in between carries
  // it — i.e. a spun-up group is caught at its next repetition.
  for (uint64_t abs = 0; abs < s->macro_packets(); abs += 7) {
    for (uint32_t cpos = 0; cpos < cycle.total_packets(); cpos += 11) {
      const uint64_t found = s->NextSlotOf(abs, cpos);
      ASSERT_GE(found, abs);
      ASSERT_EQ(s->CyclePosAt(found), cpos);
      for (uint64_t between = abs; between < found; ++between) {
        ASSERT_NE(s->CyclePosAt(between), cpos)
            << "abs " << abs << " cpos " << cpos;
      }
    }
  }
}

TEST(ScheduleTest, NextIndexCyclePosReturnsAnIndexSegmentStart) {
  BroadcastCycle cycle = MakeCycle(8, 300, 4);
  ScheduleSpec spec = MakeSpec(NumGroups(CycleGroups(cycle)), {2, 1}, 1);
  auto s = BroadcastSchedule::Compile(&cycle, spec);
  ASSERT_TRUE(s.ok());
  for (uint64_t abs = 0; abs < 2 * s->macro_packets(); abs += 5) {
    const uint32_t cpos = s->NextIndexCyclePos(abs);
    const uint32_t si = cycle.SegmentAt(cpos);
    EXPECT_TRUE(cycle.segment(si).is_index);
    EXPECT_EQ(cpos, cycle.SegmentStart(si));
  }
}

TEST(ScheduleTest, WaitProfileOfSingleIndexCycleIsExact) {
  // 4 segments x 2 packets, one index at segment 0. With a single index
  // start the whole cycle is one wrap-around gap of length T: arrivals
  // doze 1..T slots to the next index start, so the exact mean is
  // (T + 1) / 2 and the 5% worst arrivals doze the full gap.
  BroadcastCycle one_index = MakeCycle(4, 2 * kPayloadSize, 4);
  const WaitProfile flat = FlatWaitProfile(one_index);
  const uint64_t total = one_index.total_packets();
  ASSERT_EQ(total, 8u);
  EXPECT_DOUBLE_EQ(flat.mean, static_cast<double>(total + 1) / 2.0);
  EXPECT_GT(flat.p95, flat.mean);

  auto s = BroadcastSchedule::Compile(&one_index, ScheduleSpec::Flat());
  ASSERT_TRUE(s.ok());
  const WaitProfile sched = ScheduleWaitProfile(*s);
  EXPECT_DOUBLE_EQ(sched.mean, flat.mean);
  EXPECT_DOUBLE_EQ(sched.p95, flat.p95);
}

TEST(ScheduleTest, SpinningTheIndexCutsTheWaitProfile) {
  // Sparse index (1 of 8 segments): doubling the index group's spin must
  // cut both wait statistics — this is the profile the plan audit adopts
  // specs by.
  BroadcastCycle cycle = MakeCycle(8, 600, 8);
  const std::vector<uint32_t> groups = CycleGroups(cycle);
  ScheduleSpec spec;
  spec.spin = {2, 1};
  spec.disk_of_group.assign(NumGroups(groups), 1);
  spec.disk_of_group[0] = 0;  // the index segment
  auto s = BroadcastSchedule::Compile(&cycle, spec);
  ASSERT_TRUE(s.ok());
  const WaitProfile flat = FlatWaitProfile(cycle);
  const WaitProfile sched = ScheduleWaitProfile(*s);
  EXPECT_TRUE(sched.BetterThan(flat))
      << "sched mean " << sched.mean << " p95 " << sched.p95 << " vs flat "
      << flat.mean << " / " << flat.p95;
}

TEST(ScheduleTest, SquareRootSpecCollapsesUniformDemandToFlat) {
  BroadcastCycle cycle = MakeCycle(6, 300, 3);
  const std::vector<uint32_t> groups = CycleGroups(cycle);
  const std::vector<uint32_t> packets = GroupPacketCounts(cycle, groups);
  const std::vector<double> uniform(packets.size(), 1.0);
  EXPECT_TRUE(SquareRootSpec(uniform, packets, 3).flat());

  // A strongly skewed profile must not collapse.
  std::vector<double> skewed(packets.size(), 0.01);
  skewed[1] = 10.0;
  const ScheduleSpec spec = SquareRootSpec(skewed, packets, 3);
  ASSERT_FALSE(spec.flat());
  EXPECT_GT(spec.spin[spec.disk_of_group[1]],
            spec.spin[spec.disk_of_group[3]]);
}

}  // namespace
}  // namespace airindex::broadcast
