// Storage target (OST) model.
//
// An OST is the unit of parallelism in a Lustre-like parallel file system.
// The model is a hybrid fluid simulation with two coupled stages:
//
//   clients --(network ingest, capacity ingest_bw)--> write-back cache
//          cache --(disk drain, capacity disk_bw * efficiency(m))--> disk
//
// * While the cache has room, writes are absorbed at network speed — this is
//   why tiny per-writer outputs (1 MB in the paper's Fig. 1) keep scaling.
// * Once the cache fills, each stream's ingest throttles to its drain share,
//   and the drain rate itself degrades as `efficiency(m) = 1/(1+alpha(m-1))`
//   with the number m of interleaved dirty streams — the paper's *internal
//   interference* ("write caches are exceeded leading to the application
//   blocking until buffers clear").
// * The drain serves dirty streams with fair sharing (GPS), the way an OST
//   services its clients: one client's backlog does not serialize another
//   client's small synchronous write behind it.
// * External interference is injected through `set_load` /
//   `set_fabric_factor`, which scale the respective capacities.
//
// Writes come in two flavours: `Cached` completes when the last byte enters
// the cache (plain POSIX write; the residue keeps draining in background as
// the "orphan" pool), `Durable` completes when the op's own bytes are all on
// disk (write + flush, as used in the paper's Section IV runs).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/engine.hpp"

namespace aio::fs {

class Ost {
 public:
  struct Config {
    double disk_bw = 180e6;        ///< bytes/sec drain rate (paper: ~180 MB/s)
    double cache_bytes = 2e9;      ///< write-back cache (paper: ~2 GB)
    double ingest_bw = 600e6;      ///< network-side ingest capacity, bytes/sec
    double per_stream_cap = 0.0;   ///< per-client rate cap; 0 = unlimited
    double alpha = 0.02;           ///< drain efficiency loss per extra stream
    double eff_floor = 0.40;       ///< efficiency never drops below this
    double op_latency_s = 0.0;     ///< fixed per-op server overhead (RPC cost)
  };

  enum class Mode {
    Cached,   ///< complete when fully ingested into the OST cache
    Durable,  ///< complete when this op's bytes are fully on disk
  };

  using OpId = std::uint64_t;
  /// Completion callback (move-only, 64-byte SBO).  64 bytes covers every
  /// transport's per-write capture — the widest is a shared run-state
  /// pointer plus a couple of indices and a completion lambda — so the
  /// data-path write/read/flush completions never heap-allocate.
  using OnComplete = sim::InplaceFunction<void(sim::Time), 64>;
  /// Invoked when the OST transitions between idle and active (used by the
  /// fabric governor to apportion system-wide bandwidth).  Move-only, 32-byte
  /// SBO: the widest hook, the sharded governor feed, captures a group
  /// pointer and an entity key (16 bytes).
  using ActivityHook = sim::InplaceFunction<void(bool active), 32>;

  Ost(sim::Engine& engine, Config config, int index = 0);
  ~Ost();
  Ost(const Ost&) = delete;
  Ost& operator=(const Ost&) = delete;

  /// Starts a write of `bytes` (> 0).  Completion fires per `mode`.
  OpId write(double bytes, Mode mode, OnComplete on_complete);

  /// Starts a read of `bytes` (> 0): served by the disk alongside the dirty
  /// write streams (fair share), competing for the same spindle time but
  /// not occupying write-cache space.
  OpId read(double bytes, OnComplete on_complete);

  /// Durability barrier for this client's already-completed cached writes:
  /// fires once the orphan residue pool has drained and no cached write is
  /// in flight.  (In-flight durable ops carry their own completion.)
  OpId flush(OnComplete on_complete);

  /// Aborts an incomplete op; its callback never fires.  Bytes already in
  /// the cache join the orphan pool (they still have to drain).
  bool abort(OpId id);

  /// Fabric governor's share of the storage network (multiplies ingest).
  void set_fabric_factor(double factor);
  /// Background load from other jobs, each in [0, 1): the fraction of the
  /// network/disk capacity consumed by traffic outside the simulated app.
  void set_load(double net_load, double disk_load);
  [[nodiscard]] double fabric_factor() const { return fabric_factor_; }
  [[nodiscard]] double net_load() const { return net_load_; }
  [[nodiscard]] double disk_load() const { return disk_load_; }

  /// The hook runs synchronously inside recompute(), in transition order,
  /// and must not call back into this OST (no write, abort, set_load or
  /// set_fabric_factor): it may only count, decide and schedule or post.
  void set_activity_hook(ActivityHook hook) { activity_hook_ = std::move(hook); }

  [[nodiscard]] int index() const { return index_; }
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] std::size_t active_ops() const { return ops_.size(); }
  [[nodiscard]] double cache_occupancy() const;
  [[nodiscard]] double cum_ingested() const;
  [[nodiscard]] double cum_drained() const;
  /// Total bytes accepted by completed + in-flight write ops.
  [[nodiscard]] double bytes_submitted() const { return bytes_submitted_; }
  /// Total bytes requested by read ops.
  [[nodiscard]] double bytes_read_requested() const { return bytes_read_requested_; }

 private:
  struct Op {
    OpId id;
    double bytes;     // total work (> 0)
    double ingested;  // bytes already in cache
    double dirty;     // bytes in cache not yet on disk (or left to read)
    Mode mode;
    bool is_read = false;
    OnComplete on_complete;
    // Rates valid until the next recompute().
    double inflow = 0.0;
    double outflow = 0.0;
    [[nodiscard]] bool fully_ingested() const { return ingested >= bytes; }
  };
  struct Flush {
    OpId id;
    OnComplete on_complete;
  };

  void advance();    ///< integrates fluid state from last_update_ to now
  void recompute();  ///< derives rates from current state and re-arms event
  void arm(double delay, bool daemon);  ///< moves (or schedules) the pending event
  void fire();       ///< event handler: completes ops, re-derives rates
  [[nodiscard]] bool flush_ready() const;
  /// Emits one kOstState record through Engine::record.  recompute()
  /// dedups inline against journaled_key_ before calling, so this only runs
  /// on an actual state transition.
  void observe_state(std::size_t m_dirty, bool cache_full, std::uint64_t key);

  [[nodiscard]] double efficiency(std::size_t m) const {
    if (m <= 1) return 1.0;
    const double eff = 1.0 / (1.0 + config_.alpha * (static_cast<double>(m) - 1.0));
    return std::max(config_.eff_floor, eff);
  }

  sim::Engine& engine_;
  Config config_;
  int index_;

  // In id order: ids only grow, so appending keeps the vector sorted and
  // every pass (and thus float accumulation order) is deterministic.  Its
  // capacity stays warm, so steady-state op churn never allocates.
  std::vector<Op> ops_;
  std::vector<Flush> flushes_;
  std::vector<OnComplete> done_scratch_;  // fire()'s completion batch
  OpId next_id_ = 1;

  // Fluid state, valid as of last_update_.
  double orphan_ = 0.0;         // residue of completed/aborted cached writes
  double orphan_outflow_ = 0.0;
  double cum_in_ = 0.0;         // total bytes ever ingested
  double cum_drained_ = 0.0;    // total bytes ever drained to disk
  double bytes_submitted_ = 0.0;
  double bytes_read_requested_ = 0.0;
  sim::Time last_update_ = 0.0;

  double rate_in_ = 0.0;     // total ingest rate (diagnostics)
  double rate_drain_ = 0.0;  // total drain rate (diagnostics)

  double fabric_factor_ = 1.0;
  double net_load_ = 0.0;
  double disk_load_ = 0.0;

  sim::EventHandle pending_;
  ActivityHook activity_hook_;
  bool was_active_ = false;

  // Last journaled state, packed so the per-recompute dedup is one 64-bit
  // compare: m_dirty (31 bits) | load_seq (32 bits) | cache_full (1 bit).
  // The external loads only move through set_load(), so a sequence number
  // stands in for the two doubles.  ~0 makes the first observed recompute
  // always record the OST's initial condition.
  std::uint64_t journaled_key_ = ~std::uint64_t{0};
  std::uint32_t load_seq_ = 0;  ///< bumped by set_load()
};

}  // namespace aio::fs
