#ifndef AIRINDEX_CORE_REPAIR_H_
#define AIRINDEX_CORE_REPAIR_H_

#include <vector>

#include "broadcast/channel.h"

namespace airindex::core {

/// A segment awaiting loss repair: where it starts in the cycle and the
/// partially received buffer to fill.
struct PendingRepair {
  uint32_t segment_start = 0;
  broadcast::ReceivedSegment* seg = nullptr;
};

/// A packet a repair pass re-listens to: its cycle position and the
/// segment it belongs to.
struct MissingPacket {
  uint32_t cycle_pos = 0;
  broadcast::ReceivedSegment* seg = nullptr;
};

/// Re-listens to every still-missing packet across all pending segments,
/// visiting them in broadcast order so one pass costs at most about one
/// cycle of latency regardless of how many segments are damaged (§6.2:
/// lost region data is received "in the next cycle" — all of it, not one
/// region per cycle). Runs up to `max_cycles` passes; returns true when
/// everything is complete. `missing` is the passes' work list, refilled
/// each pass: one that lives across queries keeps repairs off the
/// allocator.
bool RepairAllSegments(broadcast::ClientSession& session,
                       const std::vector<PendingRepair>& pending,
                       int max_cycles, std::vector<MissingPacket>& missing);

}  // namespace airindex::core

#endif  // AIRINDEX_CORE_REPAIR_H_
