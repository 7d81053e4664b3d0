// Parallel replication for the bench binaries.
//
// Every bench is a set of *independent replications*: each unit of work
// builds its own `api::Simulation` from its own seed, runs it, and returns a
// result.  Units share nothing, so they can run on separate OS threads —
// the simulations themselves stay single-threaded and deterministic.
//
// `run_samples(n, fn)` fans fn(0..n-1) across a pool sized by
// `AIO_BENCH_THREADS` (default: hardware_concurrency; `1` restores the
// serial loop exactly) and returns the results **in index order**.  Callers
// keep all printing and report assembly on the calling thread, so stdout
// tables and `aio-bench-v1` JSON are byte-identical whatever the thread
// count.  For that to hold, `fn` must be a pure function of its index: own
// machine, own seed, no stdout, no shared mutable state.  The one stdout
// write a unit may make is the AIO_REPORT summary its machine prints at
// teardown: pooled units hand it to an `obs::SummaryCapture`, and
// run_samples prints the captured text in index order on the calling
// thread, exactly where the serial loop would have printed it.
//
// The worker threads live in one process-wide persistent pool, spawned
// lazily on first use and reused across every subsequent run_samples call;
// a bench that fans out dozens of sweep points pays thread start-up once,
// not per call.  When a shard sweep is active (`AIO_SIM_SHARDS`), the pool
// width is clamped to hardware_concurrency / max_shards so sample threads
// times shard threads never oversubscribes the host (stderr warning, once).
//
// Exceptions propagate: if any unit throws, the first failure *by index*
// is rethrown on the calling thread after the pool drains.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/analysis.hpp"
#include "obs/env.hpp"
#include "sim/shard.hpp"

namespace aio::bench {

/// Largest shard count the `AIO_SIM_SHARDS` sweep runs, each entry clamped
/// at sim::ShardGroup::kMaxShards as the group clamps it; 1 when
/// unset/invalid.  bench_threads() divides the sample pool by this so sample
/// threads times shard threads never oversubscribes the host.
inline std::size_t max_shards() {
  std::size_t m = 1;
  for (const std::size_t s : obs::env_counts("AIO_SIM_SHARDS"))
    m = std::max(m, std::min(s, sim::ShardGroup::kMaxShards));
  return m;
}

/// Worker count for run_samples: `AIO_BENCH_THREADS`, defaulting to the
/// hardware concurrency (at least 1).  With an `AIO_SIM_SHARDS` sweep whose
/// largest entry is S > 1, the count is clamped to max(1, hardware / S):
/// each sharded sample spins up S engine threads of its own, and the
/// product must not exceed the machine.  The clamp announces itself once on
/// stderr; stdout stays untouched.
inline std::size_t bench_threads() {
  const std::size_t hw = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  std::size_t threads = obs::env_count("AIO_BENCH_THREADS", hw);
  const std::size_t shards = max_shards();
  if (shards > 1) {
    const std::size_t cap = std::max<std::size_t>(1, hw / shards);
    if (threads > cap) {
      static std::atomic<bool> warned{false};
      if (!warned.exchange(true))
        std::fprintf(stderr,
                     "bench: clamping sample threads %zu -> %zu (%zu-shard sweep x %zu sample "
                     "threads would oversubscribe %zu cores)\n",
                     threads, cap, shards, threads, hw);
      threads = cap;
    }
  }
  return threads;
}

namespace detail {

/// Process-wide reusable worker pool behind run_samples.
///
/// Workers are spawned lazily (never more than the high-water mark of any
/// request) and parked on a condition variable between calls.  One call at
/// a time: the caller publishes a body under the mutex, bumps the epoch,
/// and participates itself; `target_` workers claim the epoch, run the
/// body, and the last one to finish releases the caller.  Bodies must not
/// throw — run_samples routes unit failures through its own slot array.
///
/// Nested calls serialize: a body that itself calls run_samples (directly
/// or through a helper) runs the nested request on the thread it is already
/// on, because the pool is busy and a second fan-out could only
/// oversubscribe or deadlock.  `this_thread_is_pooled()` is the guard.
class PersistentPool {
 public:
  static PersistentPool& instance() {
    static PersistentPool pool;
    return pool;
  }

  /// True on any thread currently executing inside a pool call — the pool's
  /// own workers, and the caller for the duration of run_with_caller.
  static bool this_thread_is_pooled() { return tls_pooled; }

  /// Runs `body` concurrently on `extra` pool workers plus the calling
  /// thread; returns when every participant is done.
  void run_with_caller(std::size_t extra, const std::function<void()>& body) {
    if (extra == 0 || tls_pooled) {
      body();
      return;
    }
    // One fan-out at a time: concurrent top-level callers take turns, which
    // preserves the semantics each would have seen with a private pool.
    std::lock_guard<std::mutex> call_lk(call_mu_);
    std::unique_lock<std::mutex> lk(mu_);
    ensure_workers(lk, extra);
    body_ = &body;
    target_ = extra;
    claimed_ = 0;
    done_ = 0;
    ++epoch_;
    lk.unlock();
    work_cv_.notify_all();

    tls_pooled = true;
    body();
    tls_pooled = false;

    lk.lock();
    done_cv_.wait(lk, [this] { return done_ == target_; });
    body_ = nullptr;
  }

  /// Spawned-thread high-water mark; exposed for the pool-reuse test.
  [[nodiscard]] std::size_t spawned() {
    std::lock_guard<std::mutex> lk(mu_);
    return workers_.size();
  }

  PersistentPool(const PersistentPool&) = delete;
  PersistentPool& operator=(const PersistentPool&) = delete;

 private:
  PersistentPool() = default;

  ~PersistentPool() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  void ensure_workers(std::unique_lock<std::mutex>& lk, std::size_t want) {
    (void)lk;  // must hold mu_
    while (workers_.size() < want) workers_.emplace_back([this] { worker_loop(); });
  }

  void worker_loop() {
    tls_pooled = true;
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      work_cv_.wait(lk, [&] { return stop_ || (epoch_ != seen && claimed_ < target_); });
      if (stop_) return;
      seen = epoch_;
      ++claimed_;
      const std::function<void()>* body = body_;
      lk.unlock();
      (*body)();
      lk.lock();
      if (++done_ == target_) done_cv_.notify_all();
    }
  }

  static thread_local bool tls_pooled;

  std::mutex call_mu_;  // serializes top-level fan-outs
  std::mutex mu_;
  std::condition_variable work_cv_;  // wakes parked workers on a new epoch
  std::condition_variable done_cv_;  // wakes the caller when the epoch drains
  std::vector<std::thread> workers_;
  const std::function<void()>* body_ = nullptr;
  std::uint64_t epoch_ = 0;
  std::size_t target_ = 0;   // workers this epoch wants
  std::size_t claimed_ = 0;  // workers that picked the epoch up
  std::size_t done_ = 0;     // workers that finished the body
  bool stop_ = false;
};

inline thread_local bool PersistentPool::tls_pooled = false;

}  // namespace detail

/// Runs fn(0), fn(1), ..., fn(n-1) on up to `threads` OS threads and returns
/// the results in index order.  `threads <= 1` (or `n <= 1`) runs the plain
/// serial loop on the calling thread — no pool involvement at all.  Calls
/// from inside a pooled unit also run serially (see PersistentPool).
template <class Fn>
auto run_samples(std::size_t n, Fn&& fn, std::size_t threads)
    -> std::vector<decltype(fn(std::size_t{0}))> {
  using Result = decltype(fn(std::size_t{0}));
  std::vector<Result> results;
  results.reserve(n);

  if (threads <= 1 || n <= 1 || detail::PersistentPool::this_thread_is_pooled()) {
    for (std::size_t i = 0; i < n; ++i) results.push_back(fn(i));
    return results;
  }

  // Results land in index-addressed slots; optional<> spares Result a
  // default constructor.  Slots are written by exactly one participant each
  // and read only after the pool drains, so no per-slot synchronization is
  // needed.
  std::vector<std::optional<Result>> slots(n);
  std::vector<std::exception_ptr> errors(n);
  std::vector<std::string> summaries(n);  // each unit's held-back stdout
  std::atomic<std::size_t> next{0};

  const std::function<void()> body = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        const obs::SummaryCapture capture(summaries[i]);
        slots[i].emplace(fn(i));
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };

  // The caller is one of the participants, so `threads` total workers means
  // threads - 1 from the pool.
  const std::size_t participants = std::min(threads, n);
  detail::PersistentPool::instance().run_with_caller(participants - 1, body);

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

/// Convenience overload: pool sized by `AIO_BENCH_THREADS`.
template <class Fn>
auto run_samples(std::size_t n, Fn&& fn) -> std::vector<decltype(fn(std::size_t{0}))> {
  return run_samples(n, std::forward<Fn>(fn), bench_threads());
}

}  // namespace aio::bench
