#ifndef AIRINDEX_CORE_CYCLE_COMMON_H_
#define AIRINDEX_CORE_CYCLE_COMMON_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "broadcast/channel.h"
#include "broadcast/cycle.h"
#include "broadcast/serialization.h"
#include "core/border_precompute.h"
#include "graph/graph.h"

namespace airindex::core {

/// Number of adjacency records grouped into one kNetworkData segment by the
/// full-cycle methods. Chunking exists so clients can decode-and-release
/// segment by segment instead of buffering the whole cycle twice; one
/// trailing padding packet per segment is the only overhead.
inline constexpr uint32_t kNetworkChunkNodes = 512;

/// Build-time configuration shared by every air system's Build().
///
/// `encoding` selects the cycle payload wire format; kLegacy is the format
/// every reproduction number was measured with and stays the default —
/// kCompact is the continental-scale option (see broadcast/serialization.h).
/// The encoding is baked into the built cycle, which states it
/// (BroadcastCycle::encoding) to every client and planner that decodes it.
///
/// `precompute_threads` caps the server-side pre-computation workers
/// (0 = one per available CPU). It never affects the built bytes — the
/// precompute merge is commutative, pinned by test — so EB and NR builds
/// of any thread counts share one core::SharedBorderPrecompute.
struct BuildConfig {
  broadcast::CycleEncoding encoding = broadcast::CycleEncoding::kLegacy;
  unsigned precompute_threads = 0;

  bool operator==(const BuildConfig&) const = default;
};

/// Appends the whole network as kNetworkData segments of kNetworkChunkNodes
/// nodes (node-id order), each a record blob in the builder's encoding.
/// Returns the number of segments added.
uint32_t AppendNetworkSegments(const graph::Graph& g,
                               broadcast::CycleBuilder* builder);

/// Reads the kd splits of a full-cycle header (AF, HiTi): a u16 region
/// count, `fixed` more bytes, then one f64 per split, regions - 1 of them.
/// Only a complete header of exactly `regions` regions and that length is
/// usable; for any other this returns false and leaves `splits` empty.
bool ReadKdSplits(const broadcast::ReceivedSegment& seg, uint32_t regions,
                  size_t fixed, std::vector<double>* splits);

/// One region's data under the §4.1 split: the cross-border nodes headed by
/// the region's border list, and the remaining local nodes (empty when the
/// region has none).
struct RegionPayloads {
  std::vector<uint8_t> cross;
  std::vector<uint8_t> local;
};

/// Encodes every region's cross/local payloads from `pre`'s partitioning
/// and cross-border classification, as EB and NR broadcast them.
std::vector<RegionPayloads> EncodeRegionPayloads(
    const graph::Graph& g, const BorderPrecompute& pre,
    broadcast::CycleEncoding encoding);

}  // namespace airindex::core

#endif  // AIRINDEX_CORE_CYCLE_COMMON_H_
