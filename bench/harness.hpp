// Shared plumbing for the paper-reproduction bench binaries.
//
// Every bench builds its simulated machines as `api::Simulation`s (the one
// rig, core/api/adios.hpp), runs transports on them, and prints the same
// rows/series the paper's table or figure reports.  Sample counts, scale
// caps, and observability honour the `AIO_*` environment variables of
// DESIGN.md §8 (parsed by obs/env.hpp), so the full 40-sample runs of the
// paper are one export away.
#pragma once

#include <cstdio>
#include <string>

#include "core/api/adios.hpp"
#include "env.hpp"
#include "obs/analysis.hpp"
#include "report.hpp"
#include "stats/histogram.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"

namespace aio::bench {

inline std::size_t samples_or(std::size_t fallback) {
  return obs::env_count("AIO_BENCH_SAMPLES", fallback);
}

inline void banner(const char* binary, const char* reproduces, const char* setup) {
  std::printf("================================================================\n");
  std::printf("%s\n", binary);
  std::printf("Reproduces: %s\n", reproduces);
  std::printf("Setup:      %s\n", setup);
  std::printf("================================================================\n\n");
}

inline std::string mb(double bytes) { return stats::Table::bytes(bytes); }

}  // namespace aio::bench
