#ifndef AIRINDEX_DEVICE_METRICS_H_
#define AIRINDEX_DEVICE_METRICS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>

#include "graph/types.h"

namespace airindex::device {

/// Per-query measurements of the paper's §3.1 performance factors.
struct QueryMetrics {
  /// Packets the radio was awake for (tuning time; energy proxy).
  uint64_t tuning_packets = 0;
  /// Packets from query arrival to the last packet listened to.
  uint64_t latency_packets = 0;
  /// Wait prefix of the latency window: packets from arrival to the start
  /// of the first segment the client actually demanded (header probes and
  /// dozing toward the next index copy). latency - wait is the listen
  /// remainder. See ClientSession::wait_packets.
  uint64_t wait_packets = 0;
  /// The same split on the engine's clock, milliseconds: wait_ms = doze
  /// before the first useful packet, listen_ms = retrieval from there to
  /// the last packet needed. Filled by the simulation engines (packet
  /// durations depend on bitrate and sub-channel count, which RunQuery
  /// does not know); zero when a query ran outside an engine.
  double wait_ms = 0.0;
  double listen_ms = 0.0;
  /// Packets that arrived but failed the per-packet CRC-32 check (the
  /// corruption channel model) — discarded like losses, counted apart.
  uint64_t corrupted_packets = 0;
  /// Data packets reconstructed from FEC parity within the current cycle
  /// pass (each one avoided a next-cycle repair rebroadcast).
  uint64_t fec_recovered = 0;
  /// The latency/wait window measured in physical transmission slots: the
  /// on-air timeline that FEC parity and sub-channel striding stretch.
  /// Equal to the packet counts on a stride-1 channel without FEC. The
  /// engines price wait_ms/listen_ms from these when FEC is on.
  uint64_t wait_slots = 0;
  uint64_t latency_slots = 0;
  /// Peak client working memory.
  size_t peak_memory_bytes = 0;
  /// Client-side computation time (decode + search), milliseconds.
  double cpu_ms = 0.0;
  /// Computed shortest-path distance (kInfDist if the query failed).
  graph::Dist distance = graph::kInfDist;
  /// Number of region data segments received (EB/NR diagnostics).
  uint32_t regions_received = 0;
  /// Segments served from the client's cross-query session cache instead
  /// of the air (0 for cold clients — the historical behaviour).
  uint64_t cache_hits = 0;
  /// True iff at least one segment came from the session cache (the query
  /// ran warm). Cold queries report false, keeping equality with
  /// cache-less builds.
  bool warm = false;
  /// True iff a result was produced.
  bool ok = false;
  /// True iff peak memory exceeded the device heap (method inapplicable).
  bool memory_exceeded = false;

  bool operator==(const QueryMetrics&) const = default;
};

/// Wall-clock stopwatch for the cpu_ms metric.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double ElapsedMs() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace airindex::device

#endif  // AIRINDEX_DEVICE_METRICS_H_
