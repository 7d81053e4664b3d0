// AIO_BENCH_MAX_PROCS sweep helpers for the bench binaries.  Every
// environment variable is parsed by src/obs/env.hpp; this header only adds
// the scale cap and its truncation warning.
#pragma once

#include <cstddef>
#include <cstdio>
#include <initializer_list>

#include "obs/env.hpp"

namespace aio::bench {

/// Largest writer count a bench may run, from `AIO_BENCH_MAX_PROCS`.
///
/// Every bench routes its scale cap through here so one export trims (or
/// extends, where the bench supports it) the whole suite.  Benches sweep
/// discrete scales — usually powers of two, sometimes fixed presets — so a
/// cap that lands between sweep points truncates to the largest point below
/// it; pair the sweep with `warn_unreached_max_procs` so that truncation is
/// announced rather than silent.
inline std::size_t max_procs_or(std::size_t fallback) {
  return obs::env_count("AIO_BENCH_MAX_PROCS", fallback);
}

/// Announces on stderr when the resolved AIO_BENCH_MAX_PROCS cap was not a
/// sweep point: the user asked for `cap` writers but the largest scale the
/// bench actually ran is `reached`.  Quiet when the variable is unset or the
/// cap was hit exactly, and stderr-only either way, so stdout stays
/// byte-comparable across runs.
inline void warn_unreached_max_procs(std::size_t cap, std::size_t reached) {
  if (reached == cap || obs::env_count("AIO_BENCH_MAX_PROCS", 0) == 0) return;
  std::fprintf(stderr,
               "bench: AIO_BENCH_MAX_PROCS=%zu is not a sweep point; largest scale run is %zu\n",
               cap, reached);
}

/// Fixed-sweep convenience: finds the largest sweep point at or below `cap`
/// and warns (as above) when the cap lands between points.
inline void warn_unreached_max_procs(std::size_t cap, std::initializer_list<std::size_t> sweep) {
  std::size_t reached = 0;
  for (const std::size_t p : sweep)
    if (p <= cap && p > reached) reached = p;
  warn_unreached_max_procs(cap, reached);
}

}  // namespace aio::bench
