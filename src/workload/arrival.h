#ifndef AIRINDEX_WORKLOAD_ARRIVAL_H_
#define AIRINDEX_WORKLOAD_ARRIVAL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/result.h"

namespace airindex::workload {

/// Declarative description of *when* a fleet's clients pose their queries
/// on the shared station clock. The per-query replay model draws a private
/// cycle phase per query; an arrival process instead produces absolute
/// timestamps, so clients arrive over time and contention effects (cycle
/// boundary waits, rush-hour pileups) come from one timeline. Seeded and
/// deterministic like every other randomized component.
struct ArrivalSpec {
  enum class Kind {
    /// No arrival process: the event engine derives each client's arrival
    /// from its cycle-relative tune_phase (one cycle's worth of arrivals).
    kNone,
    /// Clients evenly spaced: client i arrives at i / rate_per_second.
    kUniform,
    /// Homogeneous Poisson process: exponential inter-arrival times with
    /// mean 1 / rate_per_second.
    kPoisson,
    /// Inhomogeneous Poisson (thinning): base rate_per_second everywhere,
    /// ramping to peak_multiplier * rate_per_second in a triangular burst
    /// of half-width width_seconds around peak_seconds — the flash-crowd /
    /// rush-hour shape.
    kRushHour,
  };
  Kind kind = Kind::kNone;

  /// Mean arrival rate, clients per second (base rate for kRushHour).
  double rate_per_second = 50.0;
  /// kRushHour burst: center, half-width, and peak intensity multiplier.
  double peak_seconds = 30.0;
  double width_seconds = 10.0;
  double peak_multiplier = 8.0;
  /// Arrival stream seed; 0 derives one from the workload seed.
  uint64_t seed = 0;

  bool operator==(const ArrivalSpec&) const = default;
};

/// Generates `count` arrival timestamps (milliseconds, non-decreasing) for
/// `spec`. A spec seed of 0 falls back to `fallback_seed` (salted — the
/// arrival stream never aliases the query-sampling stream). Returns
/// InvalidArgument for non-positive rates/widths and for kNone (the caller
/// decides the phase-derived fallback).
Result<std::vector<double>> GenerateArrivals(const ArrivalSpec& spec,
                                             size_t count,
                                             uint64_t fallback_seed);

/// The schema/CLI name of an arrival kind ("none" | "uniform" | "poisson"
/// | "rush-hour") and its inverse. The one mapping every consumer — the
/// scenario spec parser and the CLI flag — goes through.
std::string_view ArrivalKindName(ArrivalSpec::Kind kind);
Result<ArrivalSpec::Kind> ParseArrivalKind(std::string_view name);

}  // namespace airindex::workload

#endif  // AIRINDEX_WORKLOAD_ARRIVAL_H_
