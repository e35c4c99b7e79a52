#ifndef AIRINDEX_CORE_DECODED_SLOT_CACHE_H_
#define AIRINDEX_CORE_DECODED_SLOT_CACHE_H_

#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

#include "broadcast/channel.h"

namespace airindex::core {

/// Station-wide memoization of segment *decode verdicts*: when N clients
/// co-listen to one shared station, every one of them CRC-validates and
/// structurally checks the identical bytes of the same cycle segment. The
/// bytes of a *complete* segment are a pure function of (station cycle,
/// cycle_version, segment index) — losses and corruption only ever produce
/// incomplete segments — so the validation verdict can be computed once
/// and shared. Listening and energy accounting stay per-client and
/// byte-identical; only the redundant CPU is shared (cpu_ms is the one
/// wall-clock metric, already excluded from determinism contracts).
///
/// One instance per (station, cycle_version); the event engine creates it
/// per RunSystem and hands every worker's QueryScratch a pointer.
/// Generation eviction: the engine constructs a fresh cache when the
/// station's cycle_version bumps, so stale verdicts die at the cycle
/// boundary rather than being invalidated entry by entry.
///
/// Thread-safe: lookups take a shared lock; a first-sight verdict is
/// computed outside any lock (validation is read-only over the caller's
/// buffers) and inserted under an exclusive lock. Racing inserters of the
/// same segment compute the same pure verdict, so last-write-wins is
/// harmless.
class DecodedSlotCache {
 public:
  explicit DecodedSlotCache(uint64_t cycle_version = 0)
      : cycle_version_(cycle_version) {}

  uint64_t cycle_version() const { return cycle_version_; }

  /// The memoized verdict for the complete segment at `segment_index`,
  /// computing it via `fn()` on first sight. Callers must only consult
  /// this for *complete* segments (per-client masks make incomplete ones
  /// client-specific).
  template <typename Fn>
  bool Validate(uint32_t segment_index, Fn&& fn) {
    {
      std::shared_lock<std::shared_mutex> lock(mu_);
      auto it = verdicts_.find(segment_index);
      if (it != verdicts_.end()) return it->second;
    }
    const bool verdict = fn();
    {
      std::unique_lock<std::shared_mutex> lock(mu_);
      verdicts_.emplace(segment_index, verdict);
    }
    return verdict;
  }

 private:
  const uint64_t cycle_version_;
  std::shared_mutex mu_;
  std::unordered_map<uint32_t, bool> verdicts_;
};

/// Memoized validation of a received segment: complete segments route
/// through the shared cache (their bytes are cycle content, so the verdict
/// is shared); incomplete ones — and any client without a cache — validate
/// locally, the historical behaviour. The verdict is identical either way;
/// only the redundant CPU is saved.
template <typename Fn>
bool MemoValidate(DecodedSlotCache* cache,
                  const broadcast::ReceivedSegment& seg, Fn&& fn) {
  if (cache != nullptr && seg.complete) {
    return cache->Validate(seg.segment_index, fn);
  }
  return fn();
}

}  // namespace airindex::core

#endif  // AIRINDEX_CORE_DECODED_SLOT_CACHE_H_
