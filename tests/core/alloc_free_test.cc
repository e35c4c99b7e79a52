// Steady-state client queries do not touch the allocator. This binary
// replaces the global operator new/delete with counting versions (storage
// from malloc/aligned_alloc, back to free), so a warm QueryScratch can be
// held to zero allocations per RunQuery.
//
// Covered: DJ, LD, AF, NR and EB, lossless and at 2% loss. Not yet
// allocation-free, so not covered: SPQ (it decodes every quadtree of the
// cycle into fresh vectors) and HiTi (its tables, node labels and overlay
// maps), per query.

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
