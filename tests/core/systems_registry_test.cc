#include <gtest/gtest.h>

#include <optional>
#include <thread>
#include <vector>

#include "core/systems.h"
#include "testing/test_graphs.h"

namespace airindex::core {
namespace {

using testing_support::SmallNetwork;

TEST(SystemRegistryTest, SecondGetReturnsTheCachedInstance) {
  SystemRegistry registry;
  graph::Graph g = SmallNetwork(300, 480, 21);
  SystemParams params;
  params.nr_regions = 8;

  auto first = registry.Get(g, "NR", params);
  ASSERT_TRUE(first.ok());
  auto second = registry.Get(g, "NR", params);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());
  EXPECT_EQ(registry.size(), 1u);
}

TEST(SystemRegistryTest, DifferentKnobsAreDifferentEntries) {
  SystemRegistry registry;
  graph::Graph g = SmallNetwork(300, 480, 21);
  SystemParams small;
  small.nr_regions = 4;
  SystemParams large;
  large.nr_regions = 8;

  auto a = registry.Get(g, "NR", small);
  auto b = registry.Get(g, "NR", large);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->get(), b->get());
  EXPECT_EQ(registry.size(), 2u);
}

TEST(SystemRegistryTest, IrrelevantKnobsShareOneEntry) {
  // An NR build does not depend on the ArcFlag region count; the cache key
  // must only include the method's own parameter.
  SystemRegistry registry;
  graph::Graph g = SmallNetwork(300, 480, 21);
  SystemParams a;
  a.nr_regions = 8;
  a.arcflag_regions = 4;
  SystemParams b;
  b.nr_regions = 8;
  b.arcflag_regions = 64;

  auto first = registry.Get(g, "NR", a);
  auto second = registry.Get(g, "NR", b);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());
}

TEST(SystemRegistryTest, GetAllFollowsTableOneOrder) {
  SystemRegistry registry;
  graph::Graph g = SmallNetwork(300, 480, 21);
  SystemParams params;
  params.nr_regions = 8;
  params.eb_regions = 8;
  params.arcflag_regions = 8;
  params.landmarks = 3;

  auto systems = registry.GetAll(g, params);
  ASSERT_TRUE(systems.ok());
  ASSERT_EQ(systems->size(), 5u);
  const char* order[5] = {"DJ", "NR", "EB", "LD", "AF"};
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ((*systems)[i]->name(), order[i]);
  }
  // A second GetAll is served entirely from cache.
  auto again = registry.GetAll(g, params);
  ASSERT_TRUE(again.ok());
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ((*systems)[i].get(), (*again)[i].get());
  }
}

TEST(SystemRegistryTest, SharedInstancesSurviveClear) {
  SystemRegistry registry;
  graph::Graph g = SmallNetwork(300, 480, 21);
  auto sys = registry.Get(g, "DJ").value();
  registry.Clear();
  EXPECT_EQ(registry.size(), 0u);
  // The caller's shared_ptr keeps the system alive past the cache drop.
  EXPECT_EQ(sys->name(), "DJ");
  EXPECT_GT(sys->cycle().total_packets(), 0u);
}

TEST(SystemRegistryTest, LruCapEvictsTheLeastRecentlyUsedEntry) {
  SystemRegistry registry;
  EXPECT_EQ(registry.capacity(), SystemRegistry::kDefaultCapacity);
  registry.set_capacity(2);
  graph::Graph g = SmallNetwork(300, 480, 21);

  auto dj = registry.Get(g, "DJ").value();
  auto nr = registry.Get(g, "NR").value();
  EXPECT_EQ(registry.size(), 2u);

  // Touch DJ so NR becomes the least recently used, then overflow.
  EXPECT_EQ(registry.Get(g, "DJ").value().get(), dj.get());
  auto eb = registry.Get(g, "EB").value();
  EXPECT_EQ(registry.size(), 2u);

  // DJ and EB survived; NR was evicted and rebuilds as a fresh instance
  // that answers like the original (the caller's shared_ptr kept the old
  // one alive through the eviction).
  EXPECT_EQ(registry.Get(g, "DJ").value().get(), dj.get());
  auto nr2 = registry.Get(g, "NR").value();
  EXPECT_NE(nr2.get(), nr.get());
  EXPECT_EQ(nr2->name(), nr->name());
  EXPECT_EQ(nr2->cycle().total_packets(), nr->cycle().total_packets());
}

TEST(SystemRegistryTest, ShrinkingCapacityEvictsImmediately) {
  SystemRegistry registry;
  graph::Graph g = SmallNetwork(300, 480, 21);
  registry.Get(g, "DJ").value();
  registry.Get(g, "NR").value();
  auto eb = registry.Get(g, "EB").value();
  EXPECT_EQ(registry.size(), 3u);

  registry.set_capacity(1);
  EXPECT_EQ(registry.size(), 1u);
  // The survivor is the most recently used entry.
  EXPECT_EQ(registry.Get(g, "EB").value().get(), eb.get());
  EXPECT_EQ(registry.size(), 1u);
}

TEST(SystemRegistryTest, NewGraphAtAFreedGraphsAddressGetsItsOwnSystem) {
  // The key is the graph's content: a different graph with the same node
  // and arc counts, placed where a freed graph lived, must not be served
  // the freed graph's system.
  SystemRegistry registry;
  std::optional<graph::Graph> storage;
  storage.emplace(SmallNetwork(300, 480, 21));
  const graph::Graph* address = &*storage;
  const size_t nodes = storage->num_nodes();
  const size_t arcs = storage->num_arcs();
  auto a = registry.Get(*storage, "NR").value();
  storage.reset();

  storage.emplace(SmallNetwork(300, 480, 22));
  ASSERT_EQ(&*storage, address);
  ASSERT_EQ(storage->num_nodes(), nodes);
  ASSERT_EQ(storage->num_arcs(), arcs);
  auto b = registry.Get(*storage, "NR").value();
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(registry.size(), 2u);

  const broadcast::BroadcastCycle& ca = a->cycle();
  const broadcast::BroadcastCycle& cb = b->cycle();
  bool differs = ca.num_segments() != cb.num_segments();
  for (size_t i = 0; !differs && i < ca.num_segments(); ++i) {
    differs = ca.segment(i).payload != cb.segment(i).payload;
  }
  EXPECT_TRUE(differs);

  // Eviction matches on content too: evicting the live graph drops its
  // entry and leaves the freed graph's.
  registry.Evict(*storage);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(SystemRegistryTest, EqualGraphsShareOneEntry) {
  SystemRegistry registry;
  const graph::Graph g = SmallNetwork(300, 480, 21);
  const graph::Graph copy = g;
  auto a = registry.Get(g, "DJ").value();
  auto b = registry.Get(copy, "DJ").value();
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(registry.size(), 1u);
}

TEST(SystemRegistryTest, ConcurrentFirstLookupsHashTheGraphOnce) {
  // Several threads make the first Get on a fresh graph at once: each
  // computes and caches the same fingerprint (a benign race on an atomic),
  // and all of them end up on one entry.
  SystemRegistry registry;
  const graph::Graph g = SmallNetwork(300, 480, 21);
  const uint64_t expected = graph::Fingerprint(SmallNetwork(300, 480, 21));
  constexpr int kThreads = 4;
  std::vector<uint64_t> fingerprints(kThreads, 0);
  std::vector<const AirSystem*> systems(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      fingerprints[t] = graph::Fingerprint(g);
      systems[t] = registry.Get(g, "DJ").value().get();
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(fingerprints[t], expected);
    EXPECT_EQ(systems[t], systems[0]);
  }
  EXPECT_EQ(registry.size(), 1u);
}

TEST(SystemRegistryTest, UnknownMethodIsAnError) {
  SystemRegistry registry;
  graph::Graph g = SmallNetwork(300, 480, 21);
  EXPECT_FALSE(registry.Get(g, "XX").ok());
}

TEST(SystemNamesTest, HeavyMethodsAreOptIn) {
  SystemParams params;
  EXPECT_EQ(SystemNames(params).size(), 5u);
  params.include_spq = true;
  params.include_hiti = true;
  auto names = SystemNames(params);
  ASSERT_EQ(names.size(), 7u);
  EXPECT_EQ(names[5], "SPQ");
  EXPECT_EQ(names[6], "HiTi");
}

}  // namespace
}  // namespace airindex::core
