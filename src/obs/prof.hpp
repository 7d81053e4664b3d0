// Shard-runtime profiler: where the *host* wall-clock of a sharded run goes.
//
// The journal and live plane account for simulated seconds; this profiler
// accounts for the host seconds spent producing them — the feedback signal
// the AIO_SIM_DOMAINS / AIO_SIM_WINDOW_BATCH tuning loop needs.  Each shard
// owns one cache-line-padded `Slot` and accumulates, per barrier round:
//
//   * execute_s — inside Engine::run_before (event dispatch proper);
//   * barrier_s — parked or spinning at the sense-reversing barrier
//     (load imbalance and straggler shards surface here);
//   * merge_s   — draining + canonically merging cross-shard channels and
//     re-scheduling the merged messages;
//   * skip_s    — window-loop bookkeeping: horizon publishing, the reduce,
//     and the window hop (where empty-window skipping happens).
//
// plus event and channel-message counters and the cross-shard backlog
// highwater (largest single-round merged batch).  The load-imbalance index
// is max/mean of per-shard execute_s — 1.0 is a perfectly balanced group.
//
// Null-by-default like every obs hook: a `ShardGroup` without a profiler
// pays one pointer test per round and zero clock reads, so `sim_s` and the
// event sequence are untouched either way (the profiler only ever reads the
// host clock; it never feeds back into simulated time).  `bind()` sizes the
// slot array up front, so worker-side accumulation is allocation-free in
// steady state (tests/test_alloc_guard holds this).
//
// Armed by the benches from `AIO_PROF` (obs/env.hpp sink: "1"/"-" = stderr
// summary, otherwise an aio-prof-v1 JSON path) with optional periodic
// one-line stderr rows every `AIO_PROF_PERIOD_S` host seconds.  Snapshots
// surface through `LivePlane::snapshot_json` as `prof.*` keys and land in
// the bench JSON rows of macro_jaguar.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace aio::obs::prof {

class ShardProfiler {
 public:
  struct Config {
    std::string path;       ///< write() destination; empty = in-memory only
    double period_s = 0.0;  ///< stderr row cadence (host seconds); 0 = off
  };

  /// Per-shard accumulator.  Padded to its own cache line(s): each worker
  /// thread writes only its slot, so armed profiling adds no sharing.
  struct alignas(64) Slot {
    double execute_s = 0.0;
    double barrier_s = 0.0;
    double merge_s = 0.0;
    double skip_s = 0.0;
    std::uint64_t rounds = 0;        ///< barrier rounds this shard completed
    std::uint64_t events = 0;        ///< engine steps (set at worker exit)
    std::uint64_t msgs_posted = 0;   ///< cross-shard messages this shard posted
    std::uint64_t msgs_drained = 0;  ///< messages merged into this shard
    std::uint64_t backlog_hw = 0;    ///< largest single-round merged batch
  };

  ShardProfiler() : ShardProfiler(Config()) {}
  explicit ShardProfiler(Config config);

  /// Sizes the slot array for `n_shards` workers (all counters zeroed).
  /// Called by ShardGroup::set_profiler before the run, so slot() stays
  /// allocation-free from the workers.
  void bind(std::size_t n_shards);

  [[nodiscard]] std::size_t n_shards() const { return slots_.size(); }
  [[nodiscard]] Slot& slot(std::size_t shard) { return slots_[shard]; }
  [[nodiscard]] const Slot& slot(std::size_t shard) const { return slots_[shard]; }

  /// Run-level window-loop context, recorded by the host after run().
  void note_windows(double window_s, std::uint64_t executed, std::uint64_t skipped,
                    std::uint64_t barrier_rounds);

  /// Sums across shards (backlog_hw is the max, not the sum).
  [[nodiscard]] Slot totals() const;
  /// Load-imbalance index: max/mean of per-shard execute_s; 1.0 when the
  /// group is balanced or nothing executed yet.
  [[nodiscard]] double imbalance() const;

  /// Periodic stderr row, rate-limited to one per `period_s` host seconds.
  /// Shard 0 calls this once per round; allocation-free (snprintf into a
  /// stack buffer).  No-op when period_s is 0.
  void maybe_tick();

  /// One-line stderr summary (the AIO_PROF="1" consumer).
  void print_summary(const char* label) const;

  /// aio-prof-v1 document: config, window context, per-shard slots, totals,
  /// imbalance.
  [[nodiscard]] Json to_json() const;
  /// Writes to_json() to `config().path`; no-op (true) when the path is
  /// empty, false when the file could not be written.
  [[nodiscard]] bool write() const;

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] double window_s() const { return window_s_; }
  [[nodiscard]] std::uint64_t windows_executed() const { return windows_executed_; }
  [[nodiscard]] std::uint64_t windows_skipped() const { return windows_skipped_; }
  [[nodiscard]] std::uint64_t barrier_rounds() const { return barrier_rounds_; }

 private:
  Config config_;
  std::vector<Slot> slots_;
  double window_s_ = 0.0;
  std::uint64_t windows_executed_ = 0;
  std::uint64_t windows_skipped_ = 0;
  std::uint64_t barrier_rounds_ = 0;
  std::chrono::steady_clock::time_point last_tick_{};
  bool ticked_ = false;
};

}  // namespace aio::obs::prof
