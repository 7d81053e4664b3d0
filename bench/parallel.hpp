// Parallel replication for the bench binaries.
//
// Every bench is a set of *independent replications*: each unit of work
// builds its own `api::Simulation` from its own seed, runs it, and returns a
// result.  Units share nothing, so they can run on separate OS threads while
// the simulations themselves stay single-threaded and deterministic.
//
// `run_samples(n, fn)` fans fn(0..n-1) across `AIO_BENCH_THREADS` threads
// (default: hardware_concurrency; `1` restores the serial loop exactly) and
// returns the results **in index order**.  Callers keep all printing and
// report assembly on the calling thread, so stdout tables and `aio-bench-v1`
// JSON are byte-identical whatever the thread count.  For that to hold, `fn`
// must be a pure function of its index: own machine, own seed, no stdout, no
// shared mutable state.  The one stdout write a unit may make is the
// AIO_REPORT summary its machine prints at teardown: each threaded unit hands
// it to an `obs::SummaryCapture`, and run_samples prints the captured text in
// index order, exactly where the serial loop would have printed it.
//
// Each call starts its threads and joins them before it returns; every bench
// fans out once, from main, so thread start-up (tens of µs) is paid once per
// process.  If units throw, the lowest-index failure is rethrown.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdio>
#include <exception>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/analysis.hpp"
#include "obs/env.hpp"

namespace aio::bench {

/// Worker count for run_samples: `AIO_BENCH_THREADS`, defaulting to the
/// hardware concurrency (at least 1).
inline std::size_t bench_threads() {
  return obs::env_count("AIO_BENCH_THREADS",
                        std::max<std::size_t>(1, std::thread::hardware_concurrency()));
}

namespace detail {
/// True on every thread of a fan-out in progress, the caller included, so a
/// unit's own run_samples call runs serially instead of multiplying threads.
inline thread_local bool in_fan_out = false;
}  // namespace detail

/// Runs fn(0), fn(1), ..., fn(n-1) on up to `threads` OS threads and returns
/// the results in index order.  `threads <= 1` (or `n <= 1`) runs the plain
/// serial loop on the calling thread, as does a call from inside a unit.
template <class Fn>
auto run_samples(std::size_t n, Fn&& fn, std::size_t threads = bench_threads())
    -> std::vector<decltype(fn(std::size_t{0}))> {
  using Result = decltype(fn(std::size_t{0}));
  std::vector<Result> results;
  results.reserve(n);

  if (threads <= 1 || n <= 1 || detail::in_fan_out) {
    for (std::size_t i = 0; i < n; ++i) results.push_back(fn(i));
    return results;
  }

  // Index-addressed slots (optional<> spares Result a default constructor),
  // each written by the thread that claimed it, read after every join.
  std::vector<std::optional<Result>> slots(n);
  std::vector<std::exception_ptr> errors(n);
  std::vector<std::string> summaries(n);  // each unit's held-back stdout
  std::atomic<std::size_t> next{0};
  const auto claim = [&] {
    detail::in_fan_out = true;
    for (std::size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) < n;) {
      try {
        const obs::SummaryCapture capture(summaries[i]);
        slots[i].emplace(fn(i));
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
    detail::in_fan_out = false;
  };

  // The caller is one of `min(threads, n)` participants; a thread that fails
  // to start (system_error, bad_alloc) leaves its units to the others.
  const std::size_t extra = std::min(threads, n) - 1;
  std::vector<std::thread> workers;
  workers.reserve(extra);
  try {
    while (workers.size() < extra) workers.emplace_back(claim);
  } catch (const std::exception&) {
  }
  claim();
  for (std::thread& w : workers) w.join();

  // Print the held-back summaries in index order and fail deterministically:
  // rethrow the lowest-index error after that unit's own output, the same
  // point the serial loop would have died at.
  for (std::size_t i = 0; i < n; ++i) {
    std::fputs(summaries[i].c_str(), stdout);
    if (errors[i]) std::rethrow_exception(errors[i]);
  }
  for (std::size_t i = 0; i < n; ++i) results.push_back(std::move(*slots[i]));
  return results;
}

}  // namespace aio::bench
