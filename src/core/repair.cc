#include "core/repair.h"

#include <algorithm>

namespace airindex::core {

bool RepairAllSegments(broadcast::ClientSession& session,
                       const std::vector<PendingRepair>& pending,
                       int max_cycles, std::vector<MissingPacket>& missing) {
  const uint32_t total = session.cycle().total_packets();
  for (int pass = 0; pass < max_cycles; ++pass) {
    missing.clear();
    for (const PendingRepair& p : pending) {
      for (uint32_t seq = 0; seq < p.seg->packet_ok.size(); ++seq) {
        if (!p.seg->packet_ok[seq]) {
          missing.push_back({(p.segment_start + seq) % total, p.seg});
        }
      }
    }
    if (missing.empty()) return true;

    // Visit in broadcast order from the current position so the whole pass
    // costs at most ~one cycle.
    const uint32_t cur = session.cycle_pos();
    std::sort(missing.begin(), missing.end(),
              [&](const MissingPacket& a, const MissingPacket& b) {
                const uint32_t da =
                    a.cycle_pos >= cur ? a.cycle_pos - cur
                                       : a.cycle_pos + total - cur;
                const uint32_t db =
                    b.cycle_pos >= cur ? b.cycle_pos - cur
                                       : b.cycle_pos + total - cur;
                return da < db;
              });
    for (const MissingPacket& m : missing) {
      session.SleepUntilCyclePos(m.cycle_pos);
      auto view = session.ReceiveNext();
      if (view.has_value()) broadcast::AcceptPacket(*view, m.seg);
    }
    for (const PendingRepair& p : pending) {
      p.seg->complete =
          std::all_of(p.seg->packet_ok.begin(), p.seg->packet_ok.end(),
                      [](bool b) { return b; });
    }
  }
  return std::all_of(pending.begin(), pending.end(),
                     [](const PendingRepair& p) { return p.seg->complete; });
}

}  // namespace airindex::core
