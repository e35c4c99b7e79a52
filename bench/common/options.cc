#include "common/options.h"

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/flags.h"

namespace airindex::bench {

namespace {

void PrintUsage(std::FILE* out, const char* prog) {
  std::fprintf(out,
               "usage: %s [--scale=F] [--queries=N] [--seed=N] "
               "[--loss=F] [--burst=N] [--corrupt=F] "
               "[--threads=N] [--repeat=N] [--full] [--no-heavy]\n",
               prog);
}

[[noreturn]] void UsageExit(const char* prog) {
  PrintUsage(stderr, prog);
  std::exit(2);
}

}  // namespace

size_t BenchOptions::ScaledHeapBytes() const {
  const double heap = 8.0 * 1024 * 1024 * scale;
  return static_cast<size_t>(heap);
}

BenchOptions ParseBenchOptions(int argc, char** argv) {
  BenchOptions opts;
  uint64_t u = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    bool ok = true;
    if (std::strncmp(arg, "--scale=", 8) == 0) {
      ok = ParseDoubleFlag(arg, 8, &opts.scale);
    } else if (std::strncmp(arg, "--queries=", 10) == 0) {
      ok = ParseUintFlag(arg, 10, &u);
      opts.queries = static_cast<size_t>(u);
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      ok = ParseUintFlag(arg, 7, &opts.seed);
    } else if (std::strncmp(arg, "--loss=", 7) == 0) {
      ok = ParseDoubleFlag(arg, 7, &opts.loss);
    } else if (std::strncmp(arg, "--burst=", 8) == 0) {
      ok = ParseUintFlag(arg, 8, &u, UINT32_MAX);
      opts.burst = u > 1 ? static_cast<uint32_t>(u) : 1;
    } else if (std::strncmp(arg, "--corrupt=", 10) == 0) {
      ok = ParseDoubleFlag(arg, 10, &opts.corrupt);
      if (ok && (!(opts.corrupt >= 0.0) || opts.corrupt >= 1.0)) {
        std::fprintf(stderr, "--corrupt must be in [0, 1)\n");
        std::exit(2);
      }
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      ok = ParseUintFlag(arg, 10, &u, UINT_MAX);
      opts.threads = static_cast<unsigned>(u);
    } else if (std::strncmp(arg, "--repeat=", 9) == 0) {
      ok = ParseUintFlag(arg, 9, &u, UINT_MAX);
      opts.repeat = u > 1 ? static_cast<unsigned>(u) : 1;
    } else if (std::strcmp(arg, "--full") == 0) {
      opts.full = true;
    } else if (std::strcmp(arg, "--no-heavy") == 0) {
      opts.no_heavy = true;
    } else if (std::strcmp(arg, "--help") == 0) {
      PrintUsage(stdout, argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag \"%s\"\n", arg);
      ok = false;
    }
    if (!ok) UsageExit(argv[0]);
  }
  if (opts.full) {
    opts.scale = 1.0;
    if (opts.queries == 100) opts.queries = 400;  // the paper's count
  }
  return opts;
}

}  // namespace airindex::bench
