#include "core/systems.h"

#include <algorithm>
#include <mutex>
#include <shared_mutex>

#include "core/arcflag_on_air.h"
#include "core/dijkstra_on_air.h"
#include "core/eb.h"
#include "core/hiti_on_air.h"
#include "core/landmark_on_air.h"
#include "core/nr.h"
#include "core/spq_on_air.h"

namespace airindex::core {

namespace {

/// The one parameter that distinguishes two builds of the same method
/// (region count or landmark count; 0 for the parameterless methods).
uint32_t MethodKnob(std::string_view method, const SystemParams& params) {
  if (method == "NR") return params.nr_regions;
  if (method == "EB") return params.eb_regions;
  if (method == "AF") return params.arcflag_regions;
  if (method == "LD") return params.landmarks;
  if (method == "HiTi") return params.hiti_regions;
  return 0;  // DJ, SPQ
}

}  // namespace

std::vector<std::string_view> SystemNames(const SystemParams& params) {
  std::vector<std::string_view> names = {"DJ", "NR", "EB", "LD", "AF"};
  if (params.include_spq) names.push_back("SPQ");
  if (params.include_hiti) names.push_back("HiTi");
  return names;
}

Result<std::unique_ptr<AirSystem>> BuildSystem(const graph::Graph& g,
                                               std::string_view method,
                                               const SystemParams& params) {
  if (method == "DJ") {
    AIRINDEX_ASSIGN_OR_RETURN(auto sys, DijkstraOnAir::Build(g, params.build));
    return std::unique_ptr<AirSystem>(std::move(sys));
  }
  if (method == "NR") {
    AIRINDEX_ASSIGN_OR_RETURN(
        auto sys, NrSystem::Build(g, params.nr_regions, params.build));
    return std::unique_ptr<AirSystem>(std::move(sys));
  }
  if (method == "EB") {
    AIRINDEX_ASSIGN_OR_RETURN(
        auto sys, EbSystem::Build(g, params.eb_regions, params.build));
    return std::unique_ptr<AirSystem>(std::move(sys));
  }
  if (method == "LD") {
    AIRINDEX_ASSIGN_OR_RETURN(
        auto sys, LandmarkOnAir::Build(g, params.landmarks, /*seed=*/17,
                                       params.build));
    return std::unique_ptr<AirSystem>(std::move(sys));
  }
  if (method == "AF") {
    AIRINDEX_ASSIGN_OR_RETURN(
        auto sys,
        ArcFlagOnAir::Build(g, params.arcflag_regions, params.build));
    return std::unique_ptr<AirSystem>(std::move(sys));
  }
  if (method == "SPQ") {
    AIRINDEX_ASSIGN_OR_RETURN(auto sys, SpqOnAir::Build(g, params.build));
    return std::unique_ptr<AirSystem>(std::move(sys));
  }
  if (method == "HiTi") {
    AIRINDEX_ASSIGN_OR_RETURN(
        auto sys, HiTiOnAir::Build(g, params.hiti_regions, params.build));
    return std::unique_ptr<AirSystem>(std::move(sys));
  }
  return Status::InvalidArgument("unknown method " + std::string(method));
}

Result<std::vector<std::unique_ptr<AirSystem>>> BuildSystems(
    const graph::Graph& g, const SystemParams& params) {
  std::vector<std::unique_ptr<AirSystem>> systems;
  for (std::string_view name : SystemNames(params)) {
    AIRINDEX_ASSIGN_OR_RETURN(auto sys, BuildSystem(g, name, params));
    systems.push_back(std::move(sys));
  }
  return systems;
}

size_t SystemRegistry::KeyHash::operator()(const Key& k) const {
  // Boost-style hash combining over the key fields.
  size_t h = std::hash<uint64_t>{}(k.fingerprint);
  auto mix = [&h](size_t v) {
    h ^= v + 0x9E3779B97f4A7C15ULL + (h << 6) + (h >> 2);
  };
  mix(std::hash<size_t>{}(k.nodes));
  mix(std::hash<size_t>{}(k.arcs));
  mix(std::hash<std::string>{}(k.method));
  mix(std::hash<uint32_t>{}(k.knob));
  mix(std::hash<uint8_t>{}(static_cast<uint8_t>(k.encoding)));
  return h;
}

SystemRegistry& SystemRegistry::Global() {
  static SystemRegistry* registry = new SystemRegistry();
  return *registry;
}

Result<std::shared_ptr<const AirSystem>> SystemRegistry::Get(
    const graph::Graph& g, std::string_view method,
    const SystemParams& params) {
  Key key{graph::Fingerprint(g), g.num_nodes(), g.num_arcs(),
          std::string(method), MethodKnob(method, params),
          params.build.encoding};
  {
    // Fast path: a shared lock suffices for a hit while the cache is under
    // capacity — recency stamps only matter once an eviction is possible,
    // so skipping the tick write keeps concurrent workers from serializing
    // on the write lock for every lookup.
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = cache_.find(key);
    if (it != cache_.end() && cache_.size() < capacity_) {
      return it->second.system;
    }
  }
  {
    // At/over capacity (or a miss racing a concurrent insert): re-find
    // under the exclusive lock and refresh the recency stamp.
    std::unique_lock<std::shared_mutex> lock(mu_);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      it->second.tick = ++use_tick_;
      return it->second.system;
    }
  }
  // Build outside the lock: pre-computation can take seconds and other
  // methods' lookups shouldn't serialize behind it. A racing builder of the
  // same key loses to whichever insert lands first.
  AIRINDEX_ASSIGN_OR_RETURN(auto built, BuildSystem(g, method, params));
  std::shared_ptr<const AirSystem> sys(std::move(built));
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto [it, inserted] =
      cache_.emplace(std::move(key), Entry{std::move(sys), ++use_tick_});
  if (!inserted) it->second.tick = use_tick_;
  std::shared_ptr<const AirSystem> result = it->second.system;
  EvictOverCapacityLocked();
  return result;
}

Result<SharedSystems> SystemRegistry::GetAll(const graph::Graph& g,
                                             const SystemParams& params) {
  SharedSystems systems;
  for (std::string_view name : SystemNames(params)) {
    AIRINDEX_ASSIGN_OR_RETURN(auto sys, Get(g, name, params));
    systems.push_back(std::move(sys));
  }
  return systems;
}

size_t SystemRegistry::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return cache_.size();
}

size_t SystemRegistry::capacity() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return capacity_;
}

void SystemRegistry::set_capacity(size_t capacity) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  // A zero cap would make every Get rebuild; keep at least one slot.
  capacity_ = std::max<size_t>(1, capacity);
  EvictOverCapacityLocked();
}

void SystemRegistry::EvictOverCapacityLocked() {
  while (cache_.size() > capacity_) {
    auto lru = cache_.begin();
    for (auto it = cache_.begin(); it != cache_.end(); ++it) {
      if (it->second.tick < lru->second.tick) lru = it;
    }
    cache_.erase(lru);
  }
}

void SystemRegistry::Clear() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  cache_.clear();
}

void SystemRegistry::Evict(const graph::Graph& g) {
  const uint64_t fingerprint = graph::Fingerprint(g);
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (auto it = cache_.begin(); it != cache_.end();) {
    const Key& key = it->first;
    if (key.fingerprint == fingerprint && key.nodes == g.num_nodes() &&
        key.arcs == g.num_arcs()) {
      it = cache_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace airindex::core
