// The repository benchmark: one workload per run, end-to-end metrics by
// default, per-layer metrics with --trace 1 (layers.cc).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file.json>]
//
// The last line of standard output is the result object; every metric is
// also printed above it as "name value unit". A wrong answer, or a measured
// pass whose modeled metrics differ from the warm-up pass, exits 1.

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

namespace perfbench {
namespace {

constexpr int kSetups = 2;

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\nworkloads:",
               error.c_str());
  for (const WorkloadDef& def : Workloads()) {
    std::fprintf(stderr, " %.*s", static_cast<int>(def.name.size()),
                 def.name.data());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = FindWorkload(value);
      if (o.workload == nullptr) Usage("unknown workload " + value);
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') Usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(o.seconds > 0.0)) {
        Usage("bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("bad --trace " + value);
      o.trace = value == "1";
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (o.workload == nullptr) Usage("--workload is required");
  return o;
}

/// kSetups rounds of set-up, one warm-up pass, then passes in a closed loop
/// until the round's share of `seconds` of pass wall time has been
/// measured. qps is that of the fastest pass (min-of-N wall, as
/// SimOptions::repeat reports): other tenants of a shared machine only ever
/// slow a pass down, and spreading the passes over the rounds gives the
/// minimum a wider stretch of the run to come from.
int RunEndToEnd(const Options& opt) {
  const WorkloadDef& def = *opt.workload;
  std::vector<double> setup_s;
  sim::BatchResult warm;
  size_t attempted = 0;
  size_t failed = 0;
  double wall = 0.0;
  std::vector<double> pass_qps;
  for (int k = 0; k < kSetups; ++k) {
    std::unique_ptr<Setup> setup = BuildSetup(def, opt.seed, nullptr, 0);
    setup_s.push_back(setup->seconds);
    const workload::Workload& w = setup->workload;

    sim::BatchResult round_warm =
        RunPass(def, *setup, w, opt.seed, def.threads);
    const PassCheck warm_check = CheckAnswers(def, w, round_warm);
    if (!warm_check.error.empty()) Fail(warm_check.error);
    if (k == 0) {
      warm = std::move(round_warm);
    } else if (auto diff = CompareModeled(def, warm, round_warm); !diff.empty()) {
      Fail("after a second set-up, " + diff);
    }

    while (wall < opt.seconds * (k + 1) / kSetups) {
      const int64_t start = NowNs();
      const sim::BatchResult pass =
          RunPass(def, *setup, w, opt.seed, def.threads);
      const double pass_wall = static_cast<double>(NowNs() - start) * 1e-9;
      wall += pass_wall;
      const PassCheck check = CheckAnswers(def, w, pass);
      if (!check.error.empty()) Fail(check.error);
      if (auto diff = CompareModeled(def, warm, pass); !diff.empty()) Fail(diff);
      attempted += check.attempted;
      failed += check.failed;
      pass_qps.push_back(static_cast<double>(check.attempted) / pass_wall);
    }
    // Hand the round's freed heap back, so the next round's set-up does not
    // stack on top of it in the process's peak RSS.
    setup.reset();
    malloc_trim(0);
  }

  std::vector<double> tuning;
  std::vector<double> access_slots;
  std::vector<double> mem_kb;
  for (const sim::SystemResult& sr : warm.systems) {
    for (const auto& m : sr.per_query) {
      tuning.push_back(static_cast<double>(m.tuning_packets));
      access_slots.push_back(static_cast<double>(m.latency_slots));
      mem_kb.push_back(static_cast<double>(m.peak_memory_bytes) / 1024.0);
    }
  }

  std::printf("# workload %.*s: %zu queries x %zu methods per pass, %u "
              "thread(s), seed %llu\n",
              static_cast<int>(def.name.size()), def.name.data(),
              def.queries, def.methods.size(), def.threads,
              static_cast<unsigned long long>(opt.seed));
  std::printf("# fail_ratio %.6f (%zu of %zu)\n",
              static_cast<double>(failed) / static_cast<double>(attempted),
              failed, attempted);
  PrintResult(true, attempted, failed,
              {{"setup_s", Median(setup_s), "s"},
               {"qps", *std::max_element(pass_qps.begin(), pass_qps.end()), "queries/s"},
               {"peak_rss_mb", PeakRssMiB(), "MiB"},
               {"tuning_pkts_mean", Mean(tuning), "packets"},
               {"tuning_pkts_p99", Percentile(tuning, 99), "packets"},
               {"access_slots_p50", Percentile(access_slots, 50), "slots"},
               {"access_slots_p99", Percentile(access_slots, 99), "slots"},
               {"client_mem_kb_p99", Percentile(mem_kb, 99), "KiB"}});
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options opt = perfbench::ParseArgs(argc, argv);
  perfbench::PinToCpus(opt.workload->threads);
  return opt.trace ? perfbench::RunTraced(opt) : perfbench::RunEndToEnd(opt);
}
