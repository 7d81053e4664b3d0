// Shard-runtime profiler: where the *host* wall-clock of a sharded run goes.
//
// The journal and live plane account for simulated seconds; this profiler
// accounts for the host seconds a sharded run spends producing them.  Each
// shard owns one cache-line-padded `Slot` and accumulates, per barrier
// round:
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
// highwater (largest single-round merged batch).  A boundary tally
// (`ShardGroup::tally`) is one merged message on every shard, so it counts
// as S posts by the shard that made its first contribution and one drain
// per shard: summed over shards, posts equal drains at any shard count.
// The load-imbalance index is max/mean of per-shard execute_s — 1.0 is a
// perfectly balanced group.
//
// Null-by-default like every obs hook: a `ShardGroup` without a profiler
// pays one pointer test per round and zero clock reads, so `sim_s` and the
// event sequence are untouched either way (the profiler only ever reads the
// host clock; it never feeds back into simulated time).  `bind()` sizes the
// slot array up front, so worker-side accumulation is allocation-free in
// steady state (tests/test_alloc_guard holds this).
//
// Host time stays out of the run journal, which holds simulated time only.
// `macro_jaguar` arms the profiler from `AIO_PROF` (obs/env.hpp sink:
// "1"/"-" = the stderr summary, otherwise a path for an array of
// aio-prof-v1 documents, to which it adds the shard group's window counts);
// `perf/aio_perf.cpp` reads the slots directly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/json.hpp"

namespace aio::obs::prof {

class ShardProfiler {
 public:
  /// Per-shard accumulator.  Padded to its own cache line(s): each worker
  /// thread writes only its slot, so armed profiling adds no sharing.
  struct alignas(64) Slot {
    double execute_s = 0.0;
    double barrier_s = 0.0;
    double merge_s = 0.0;
    double skip_s = 0.0;
    std::uint64_t rounds = 0;        ///< barrier rounds this shard completed
    std::uint64_t events = 0;        ///< engine steps (set at worker exit)
    /// Channel messages this shard posted, plus S for each boundary tally
    /// whose first contribution it made (one per shard that hears it).
    std::uint64_t msgs_posted = 0;
    /// Messages merged into this shard, its boundary tallies included.
    std::uint64_t msgs_drained = 0;
    std::uint64_t backlog_hw = 0;    ///< largest single-round merged batch
  };

  /// Sizes the slot array for `n_shards` workers (all counters zeroed).
  /// Called by ShardGroup::set_profiler before the run, so slot() stays
  /// allocation-free from the workers.
  void bind(std::size_t n_shards);

  [[nodiscard]] std::size_t n_shards() const { return slots_.size(); }
  [[nodiscard]] Slot& slot(std::size_t shard) { return slots_[shard]; }
  [[nodiscard]] const Slot& slot(std::size_t shard) const { return slots_[shard]; }

  /// Sums across shards (backlog_hw is the max, not the sum).
  [[nodiscard]] Slot totals() const;
  /// Load-imbalance index: max/mean of per-shard execute_s; 1.0 when the
  /// group is balanced or nothing executed yet.
  [[nodiscard]] double imbalance() const;

  /// One-line stderr summary (the AIO_PROF="1" consumer).
  void print_summary(const char* label) const;

  /// aio-prof-v1 document: per-shard slots, totals, imbalance.
  [[nodiscard]] Json to_json() const;

 private:
  std::vector<Slot> slots_;
};

}  // namespace aio::obs::prof
