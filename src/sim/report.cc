#include "sim/report.h"

#include <cstdio>

namespace airindex::sim {

namespace {

using jsonutil::JsonWriter;

void WriteStat(JsonWriter& w, std::string_view key, const Stat& s) {
  w.Key(key);
  w.BeginObject();
  w.Field("mean", s.mean);
  w.Field("p50", s.p50);
  w.Field("p95", s.p95);
  w.Field("p99", s.p99);
  w.Field("max", s.max);
  w.EndObject();
}

}  // namespace

namespace detail {

void AppendSystemTable(std::string& out,
                       std::span<const SystemResult> systems) {
  char line[320];
  std::snprintf(line, sizeof(line),
                "%-6s %12s %12s %12s %10s %10s %10s %10s %10s %8s %10s "
                "%6s\n",
                "method", "tuning[pkt]", "p95[pkt]", "latency[pkt]",
                "wait[ms]", "w99[ms]", "listen[ms]", "mem[MB]", "energy[J]",
                "cpu[ms]", "qps", "fail");
  out += line;
  for (const SystemResult& r : systems) {
    const Aggregate& a = r.aggregate;
    std::snprintf(line, sizeof(line),
                  "%-6s %12.0f %12.0f %12.0f %10.1f %10.1f %10.1f %10.2f "
                  "%10.3f %8.2f %10.0f %6zu\n",
                  a.system.c_str(), a.tuning_packets.mean,
                  a.tuning_packets.p95, a.latency_packets.mean,
                  a.wait_ms.mean, a.wait_ms.p99, a.listen_ms.mean,
                  a.peak_memory_bytes.mean / (1024.0 * 1024.0),
                  a.energy_joules.mean, a.cpu_ms.mean, r.queries_per_second,
                  a.failures);
    out += line;
  }
}

void WriteSystemEntry(JsonWriter& w, const SystemResult& r) {
  const Aggregate& a = r.aggregate;
  w.BeginObject();
  w.Field("system", a.system);
  w.Field("queries", static_cast<uint64_t>(a.queries));
  w.Field("failures", static_cast<uint64_t>(a.failures));
  w.Field("memory_exceeded", static_cast<uint64_t>(a.memory_exceeded));
  w.Field("wall_seconds", r.wall_seconds);
  w.Field("queries_per_second", r.queries_per_second);
  WriteStat(w, "tuning_packets", a.tuning_packets);
  WriteStat(w, "latency_packets", a.latency_packets);
  WriteStat(w, "wait_ms", a.wait_ms);
  WriteStat(w, "listen_ms", a.listen_ms);
  WriteStat(w, "peak_memory_bytes", a.peak_memory_bytes);
  WriteStat(w, "cpu_ms", a.cpu_ms);
  WriteStat(w, "energy_joules", a.energy_joules);
  // Additive corruption/FEC diagnostics: emitted only when the channel
  // produced any, so clean-channel reports stay byte-identical to older
  // writers.
  if (a.corrupted_packets.max > 0.0) {
    WriteStat(w, "corrupted_packets", a.corrupted_packets);
  }
  if (a.fec_recovered.max > 0.0) {
    WriteStat(w, "fec_recovered", a.fec_recovered);
  }
  // Additive session-cache diagnostics: emitted only when some query ran
  // warm, so one-shot (cold) fleets keep the historical document.
  if (a.warm_queries > 0 || a.cache_hits.max > 0.0) {
    WriteStat(w, "cache_hits", a.cache_hits);
    w.Field("warm_queries", static_cast<uint64_t>(a.warm_queries));
    WriteStat(w, "warm_tuning", a.warm_tuning);
  }
  w.EndObject();
}

}  // namespace detail

std::string ToText(const BatchResult& batch) {
  std::string out;
  char line[320];
  std::string header = "# " + std::to_string(batch.num_queries) +
                       " queries, " + std::to_string(batch.threads) +
                       " thread(s)";
  if (batch.engine != "batch") {
    header += ", engine=" + batch.engine;
    if (batch.subchannels > 1) {
      header += " (" + std::to_string(batch.subchannels) + " sub-channels)";
    }
  }
  std::snprintf(line, sizeof(line), ", loss=%.4f", batch.loss_rate);
  header += line;
  if (batch.loss_burst_len > 1) {
    std::snprintf(line, sizeof(line), " (bursts of %u)",
                  batch.loss_burst_len);
    header += line;
  }
  if (batch.corrupt_bit > 0.0) {
    std::snprintf(line, sizeof(line), ", corrupt_bit=%.2e",
                  batch.corrupt_bit);
    header += line;
  }
  if (batch.fec.enabled()) {
    std::snprintf(line, sizeof(line), ", fec=%u+%u",
                  batch.fec.data_per_group, batch.fec.parity_per_group);
    header += line;
  }
  out += header;
  out += '\n';
  detail::AppendSystemTable(out, batch.systems);
  std::snprintf(line, sizeof(line), "# wall %.3f s total\n",
                batch.wall_seconds);
  out += line;
  return out;
}

std::string ToJson(const BatchResult& batch) {
  JsonWriter w;
  w.BeginObject();
  w.Field("schema", kReportSchema);
  w.Field("engine", batch.engine);
  // Additive in-schema field: emitted only for scheduled runs, so flat
  // documents keep the historical key set.
  if (batch.schedule_mode != "flat") {
    w.Field("schedule", batch.schedule_mode);
  }
  w.Field("num_queries", static_cast<uint64_t>(batch.num_queries));
  w.Field("threads", static_cast<uint64_t>(batch.threads));
  w.Field("loss_rate", batch.loss_rate);
  w.Field("loss_burst_len", static_cast<uint64_t>(batch.loss_burst_len));
  // Additive channel-impairment fields, emitted only when active so runs
  // on a clean channel reproduce the historical document byte for byte.
  if (batch.corrupt_bit > 0.0) w.Field("corrupt_bit", batch.corrupt_bit);
  w.Field("loss_seed", static_cast<uint64_t>(batch.loss_seed));
  w.Field("subchannels", static_cast<uint64_t>(batch.subchannels));
  if (batch.fec.enabled()) {
    w.Field("fec_data", static_cast<uint64_t>(batch.fec.data_per_group));
    w.Field("fec_parity",
            static_cast<uint64_t>(batch.fec.parity_per_group));
  }
  // Additive session fields, emitted only when sessions/caching are on so
  // one-shot runs reproduce the historical document byte for byte.
  if (batch.session_queries > 1) {
    w.Field("session_queries",
            static_cast<uint64_t>(batch.session_queries));
  }
  if (batch.cache_bytes > 0) {
    w.Field("cache_bytes", static_cast<uint64_t>(batch.cache_bytes));
  }
  w.Field("wall_seconds", batch.wall_seconds);
  w.BeginArray("systems");
  for (const auto& r : batch.systems) detail::WriteSystemEntry(w, r);
  w.EndArray();
  w.EndObject();
  std::string out = std::move(w).Take();
  out += '\n';
  return out;
}

}  // namespace airindex::sim
