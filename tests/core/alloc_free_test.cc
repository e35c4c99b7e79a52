// Steady-state client queries do not touch the allocator. This binary
// replaces the global operator new/delete with counting versions (storage
// from malloc/aligned_alloc, back to free), so a warm QueryScratch can be
// held to zero allocations per RunQuery.
//
// Covered: DJ, LD, AF, NR and EB, lossless and at 2% loss, the same with
// the session cache armed, and the payload bytes a warm scratch keeps
// after lossless queries. Not yet allocation-free, so not covered: SPQ
// (it decodes every quadtree of the cycle into fresh vectors) and HiTi
// (its tables, node labels and overlay maps), per query.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <tuple>
#include <vector>

#include "broadcast/channel.h"
#include "core/query_scratch.h"
#include "core/systems.h"
#include "graph/catalog.h"
#include "testing/air_systems.h"
#include "workload/workload.h"

namespace {

thread_local uint64_t t_allocations = 0;

void* Allocate(std::size_t n) {
  ++t_allocations;
  return std::malloc(n == 0 ? 1 : n);
}

void* AllocateAligned(std::size_t n, std::align_val_t align) {
  ++t_allocations;
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (n + a - 1) / a * a;
  return std::aligned_alloc(a, rounded == 0 ? a : rounded);
}

void* OrThrow(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

// Out of line, so that the compiler, seeing the replacement new inlined
// into a caller, does not take free() for a mismatched deallocation.
[[gnu::noinline]] void Release(void* p) { std::free(p); }

}  // namespace

void* operator new(std::size_t n) { return OrThrow(Allocate(n)); }
void* operator new[](std::size_t n) { return OrThrow(Allocate(n)); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return Allocate(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return Allocate(n);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return OrThrow(AllocateAligned(n, a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return OrThrow(AllocateAligned(n, a));
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return AllocateAligned(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return AllocateAligned(n, a);
}
void operator delete(void* p) noexcept { Release(p); }
void operator delete[](void* p) noexcept { Release(p); }
void operator delete(void* p, std::size_t) noexcept { Release(p); }
void operator delete[](void* p, std::size_t) noexcept { Release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { Release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  Release(p);
}
void operator delete(void* p, std::align_val_t) noexcept { Release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { Release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  Release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  Release(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  Release(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  Release(p);
}

namespace airindex::core {
namespace {

const graph::Graph& Germany() {
  static const graph::Graph& g = *new graph::Graph(
      graph::MakeNetwork(graph::FindNetwork("Germany").value(), 0.1)
          .value());
  return g;
}

/// The system of `method`, built once per binary with the other default
/// methods.
const AirSystem* System(const std::string& method) {
  static const auto& systems = *new std::vector<std::unique_ptr<AirSystem>>(
      BuildSystems(Germany(), kMainSystems, {}).value());
  return testing_support::FindSystem(systems, method);
}

class AllocFreeTest
    : public ::testing::TestWithParam<std::tuple<std::string, double>> {};

TEST_P(AllocFreeTest, WarmScratchQueriesDoNotAllocate) {
  const auto& [method, loss] = GetParam();
  const graph::Graph& g = Germany();
  const AirSystem* sys = System(method);
  ASSERT_NE(sys, nullptr) << method;
  auto w = workload::GenerateWorkload(g, 24, 3);
  ASSERT_TRUE(w.ok());

  // One channel (loss stream) per query, built before anything is counted
  // and replayed identically on both passes.
  std::vector<broadcast::BroadcastChannel> channels;
  channels.reserve(w->queries.size());
  std::vector<AirQuery> queries;
  for (size_t i = 0; i < w->queries.size(); ++i) {
    channels.emplace_back(&sys->cycle(), loss, 77 + i);
    queries.push_back(MakeAirQuery(g, w->queries[i]));
  }

  QueryScratch scratch;
  size_t ok = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < queries.size(); ++i) {
      // The first pass warms the scratch to every query's shape.
      const uint64_t before = t_allocations;
      const device::QueryMetrics m =
          sys->RunQuery(channels[i], queries[i], {}, &scratch);
      const uint64_t allocations = t_allocations - before;
      if (pass == 0) continue;
      EXPECT_EQ(allocations, 0u) << method << " loss=" << loss << " query "
                                 << i;
      ok += m.ok;
    }
  }
  EXPECT_GT(ok, 0u) << method;
}

// A warm client session, with the session cache armed as the fleet arms
// it (256 KiB, eight queries per session), stores, hits and repairs
// without the allocator: the cache's entries are links that survive
// BeginSession and hold no bytes. The lossy case is the fleet's channel:
// bursts of 4, bit corruption and FEC 16+2.
TEST_P(AllocFreeTest, WarmSessionQueriesDoNotAllocate) {
  const auto& [method, loss] = GetParam();
  const graph::Graph& g = Germany();
  const AirSystem* sys = System(method);
  ASSERT_NE(sys, nullptr) << method;
  auto w = workload::GenerateWorkload(g, 64, 3);
  ASSERT_TRUE(w.ok());

  std::vector<broadcast::BroadcastChannel> channels;
  channels.reserve(w->queries.size());
  std::vector<AirQuery> queries;
  for (size_t i = 0; i < w->queries.size(); ++i) {
    if (loss == 0.0) {
      channels.emplace_back(&sys->cycle(), 0.0, 77 + i);
    } else {
      channels.emplace_back(&sys->cycle(),
                            broadcast::LossModel::Of(loss, 4, 2e-5), 77 + i,
                            broadcast::FecScheme{16, 2});
    }
    queries.push_back(MakeAirQuery(g, w->queries[i]));
  }

  constexpr size_t kSessionQueries = 8;
  QueryScratch scratch;
  size_t ok = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < queries.size(); ++i) {
      const uint64_t before = t_allocations;
      if (i % kSessionQueries == 0) scratch.session.BeginSession(256u << 10);
      const device::QueryMetrics m =
          sys->RunQuery(channels[i], queries[i], {}, &scratch);
      const uint64_t allocations = t_allocations - before;
      if (pass == 0) continue;
      EXPECT_EQ(allocations, 0u) << method << " loss=" << loss << " query "
                                 << i;
      ok += m.ok;
    }
  }
  EXPECT_GT(ok, 0u) << method;
  EXPECT_GT(scratch.session.entry_count(), 0u) << method;
}

/// Payload bytes the scratch owns: the storage of every segment of the
/// full-cycle state and of the segment arena (the stash points into the
/// arena), and the buffer for segments delivered with holes.
size_t OwnedPayloadBytes(const QueryScratch& s) {
  size_t bytes = s.full_cycle.holes.capacity();
  for (const broadcast::ReceivedSegment& seg : s.full_cycle.partial) {
    bytes += seg.storage.capacity();
  }
  for (const broadcast::ReceivedSegment& seg : s.segments.slots()) {
    bytes += seg.storage.capacity();
  }
  return bytes;
}

// A lossless query hears every segment it demands whole and reads its
// bytes where the station keeps them: the warm scratch holds masks, no
// copy of the cycle, for the full-cycle and the region clients alike.
TEST(FullCycleScratchTest, LosslessQueriesKeepNoPayloadBytes) {
  const graph::Graph& g = Germany();
  auto w = workload::GenerateWorkload(g, 4, 5);
  ASSERT_TRUE(w.ok());
  for (const std::string method : {"DJ", "LD", "AF", "NR", "EB"}) {
    const AirSystem* sys = System(method);
    ASSERT_NE(sys, nullptr) << method;
    const bool full_cycle = method != "NR" && method != "EB";
    broadcast::BroadcastChannel channel(&sys->cycle(), 0.0);
    QueryScratch scratch;
    for (const workload::Query& q : w->queries) {
      const device::QueryMetrics m =
          sys->RunQuery(channel, MakeAirQuery(g, q), {}, &scratch);
      EXPECT_TRUE(m.ok) << method;
      EXPECT_EQ(scratch.full_cycle.partial.size(),
                full_cycle ? sys->cycle().num_segments() : 0)
          << method;
      EXPECT_EQ(scratch.segments.slots().empty(), full_cycle) << method;
      EXPECT_EQ(OwnedPayloadBytes(scratch), 0u) << method;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Clients, AllocFreeTest,
    ::testing::Combine(::testing::Values("DJ", "LD", "AF", "NR", "EB"),
                       ::testing::Values(0.0, 0.02)),
    [](const auto& info) {
      return std::get<0>(info.param) +
             (std::get<1>(info.param) == 0.0 ? "_lossless" : "_loss2");
    });

}  // namespace
}  // namespace airindex::core
