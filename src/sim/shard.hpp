// Sharded parallel discrete-event execution with conservative lookahead.
//
// A `ShardGroup` partitions one simulation into S shards, each running its
// own `sim::Engine` (radix queue, SBO callbacks — unchanged) on its own
// thread.  S is clamped to [1, min(32, n_osts)], and each shard owns one
// contiguous span of ranks, of OSTs and of metadata servers: the rank cuts
// sit at s·n_ranks/S rounded down to a node boundary (so a node's NIC never
// straddles shards), OST o lives on shard ((o+1)·S−1)/n_osts and MDS m on
// shard ((m+1)·S−1)/n_mds.  Every shard is within one node of its rank
// share and within one OST of its OST share.
//
// Couplings quantize by *physical* topology, not by shard: an interaction
// that stays inside one node (rank→rank on the same node) is scheduled
// directly on the owning engine, while every interaction that crosses a node
// or storage-target boundary — network deliveries, OST write hand-offs,
// protocol completions — travels through the channel plane and is applied
// at a window boundary, *even when source and destination happen to share a
// shard*.  Because the rule never mentions the partition, the set of
// quantized couplings (and therefore every simulated timestamp) is
// invariant under the shard count.  `Homes` (below) is the one place that
// rule is written down: the network, the file system, the metadata tier and
// the adaptive transport place their entities and deliver their couplings
// through it, over one engine or over a shard group alike.
//
// A count that every shard must hear — the OST activity transitions the
// fabric governor's replicas track — does not ride the channels one message
// per change per shard.  `tally` sums it per window, the barrier reduces the
// shards' sums, and each shard hears the window's net sum once, from one
// message at the canonical (boundary, entity, sequence) of the window's
// first contribution.  A consumer that reads the count only after every
// message of the boundary instant (the governor's flush) sees what one
// message per contribution would have shown it.
//
// Time advances on a fixed window grid W_k = k * window.  Each round a shard
// publishes its horizon — the minimum of its engine's next event time and
// the due times of the messages it posted during the last window (producer-
// side accounting: the poster knows each message's boundary-clamped due
// time, so nothing needs a second rendezvous) — then all shards meet at one
// sense-reversing barrier, agree on the global minimum, drain their inboxes
// for this round, merge them in canonical (time, source entity, sequence)
// order, and hop the window cursor to the window containing the global
// minimum: runs of empty windows cost one barrier total, not one each.  The
// window is derived from the minimum network latency (`net::latency_s`):
// any window >= that lookahead is conservative because a message posted in
// window k can only be *due* at or after the boundary, where it is applied
// before any event of window k+1 executes.  Larger windows trade timing
// granularity for barrier amortization (see DESIGN.md §10); the default is
// 64 lookaheads.
//
// Determinism: because the window grid, the quantization rule, the entity
// keys and the merge order are all independent of S, the event sequence
// each entity observes — and therefore every simulated timestamp — is
// bit-identical at any shard count, including S = 1 (which runs the same
// window loop inline, no threads).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "sim/engine.hpp"

namespace aio::obs::prof {
class ShardProfiler;
}

namespace aio::sim {

/// A simulated party that owns events and makes couplings: a protocol rank,
/// a storage target or a metadata server.  Eight bytes, passed by value.
struct Entity {
  enum class Kind : std::uint32_t { Rank, Ost, Mds };
  Kind kind;
  std::uint32_t index;

  static constexpr Entity rank(std::size_t i) { return {Kind::Rank, static_cast<std::uint32_t>(i)}; }
  static constexpr Entity ost(std::size_t i) { return {Kind::Ost, static_cast<std::uint32_t>(i)}; }
  static constexpr Entity mds(std::size_t i) { return {Kind::Mds, static_cast<std::uint32_t>(i)}; }
};

/// Engine of the shard executing on the current thread (engine 0 outside the
/// window loop, e.g. while seeding).  Null until a ShardGroup exists on this
/// thread's session.
[[nodiscard]] Engine* current_engine();
/// Index of the shard executing on the current thread (0 while seeding).
[[nodiscard]] std::size_t current_shard_index();

class ShardGroup {
 public:
  struct Config {
    std::size_t n_shards = 1;  ///< requested; clamped to [1, min(kMaxShards, n_osts)]
    double lookahead_s = 8e-6; ///< conservative bound: min cross-shard latency
    /// Window = lookahead * window_batch.  Must be >= 1; larger values
    /// amortize the per-window barrier over more events at the cost of
    /// coarser cross-entity timing quantization.
    double window_batch = 64.0;
    std::size_t n_ranks = 0;    ///< total protocol ranks (> 0)
    std::size_t ranks_per_node = 1;  ///< NIC granularity for rank cuts
    std::size_t n_osts = 0;     ///< total storage targets (> 0)
    /// Metadata servers (>= 1).  Each MDS is its own entity: it owns a
    /// merge key after the nodes and OSTs and is homed by the same span rule
    /// that places OSTs, so a multi-MDS tier spreads over the shards.
    /// Placement never affects timing — every rank→MDS coupling crosses the
    /// compute/metadata boundary and rides the channel plane wherever the
    /// server lives.
    std::size_t n_mds = 1;
  };
  /// Most shards a group runs.  The count is also capped at n_osts, so that
  /// every shard owns at least one OST.
  static constexpr std::size_t kMaxShards = 32;

  explicit ShardGroup(Config config);
  ~ShardGroup();
  ShardGroup(const ShardGroup&) = delete;
  ShardGroup& operator=(const ShardGroup&) = delete;

  [[nodiscard]] std::size_t n_shards() const { return n_shards_; }
  [[nodiscard]] std::size_t n_ranks() const { return cfg_.n_ranks; }
  [[nodiscard]] std::size_t n_osts() const { return cfg_.n_osts; }
  [[nodiscard]] std::size_t n_nodes() const { return n_nodes_; }
  [[nodiscard]] std::size_t n_mds() const { return n_mds_; }
  [[nodiscard]] double lookahead_s() const { return cfg_.lookahead_s; }
  [[nodiscard]] double window_s() const { return window_s_; }

  [[nodiscard]] Engine& engine(std::size_t shard) { return *engines_[shard]; }

  /// Shard whose engine runs `e`'s events (see the header comment for the
  /// spans).
  [[nodiscard]] std::size_t shard_of(Entity e) const;

  /// Canonical merge keys.  A message's source is a physical *entity* — a
  /// node (for anything a rank does), a storage target, or a metadata
  /// server — numbered so the key space is independent of the shard
  /// count: nodes first, then OSTs, then metadata servers.  An entity lives
  /// entirely on one shard (rank cuts are node-aligned; an OST or MDS is
  /// atomic), so all of a key's messages come from one shard and its
  /// sequence numbers are monotone.
  [[nodiscard]] std::uint32_t key_of(Entity e) const {
    switch (e.kind) {
      case Entity::Kind::Rank: return static_cast<std::uint32_t>(e.index / cfg_.ranks_per_node);
      case Entity::Kind::Ost: return static_cast<std::uint32_t>(n_nodes_ + e.index);
      case Entity::Kind::Mds: return static_cast<std::uint32_t>(n_nodes_ + cfg_.n_osts + e.index);
    }
    __builtin_unreachable();
  }

  /// Posts `fn` to `dst_shard`, to run at simulated time `t` (clamped up to
  /// the current window boundary — nothing may land inside the window in
  /// flight).  `src_key` names the posting entity (`key_of`), must be owned
  /// by the calling shard, and together with a per-entity sequence number
  /// forms the canonical merge key.
  void post(std::uint32_t src_key, std::size_t dst_shard, Time t, Engine::Callback fn);

  /// Receives a window's boundary tally on each shard's engine: `shard` is
  /// the hearing shard, `sum` the window's net sum over all shards.  Called
  /// concurrently from every shard, so it must only touch `shard`'s state.
  using TallySink = InplaceFunction<void(std::size_t shard, std::int64_t sum), 16>;
  /// Installs the one tally sink; it must be set before the first `tally`
  /// and outlive the run.
  void set_tally_sink(TallySink sink) { tally_sink_ = std::move(sink); }

  /// Adds `delta` to the window's boundary tally on behalf of `src_key`,
  /// which must be owned by the calling shard (as for `post`).  Reserves one
  /// of the entity's sequence numbers, so the tally's merge key never ties
  /// with a posted message and the entity's later posts keep their order.
  /// At the next boundary every shard hears the net sum through the sink
  /// once — also when the window's contributions cancel — from a message at
  /// the smallest (key, seq) contribution of the window.
  void tally(std::uint32_t src_key, std::int64_t delta);

  /// Runs the window loop on all shards until no shard holds a normal event
  /// and all channels are empty.  S > 1 spawns S worker threads; S == 1 runs
  /// the identical loop inline.  Rethrows the first worker exception.  A
  /// group can only run once.
  void run();

  /// Total events executed across all shards.
  [[nodiscard]] std::size_t total_steps() const;

  /// Window-loop telemetry (valid after run()): windows actually executed,
  /// empty grid windows hopped over without a barrier, and barrier rounds.
  [[nodiscard]] std::uint64_t windows_executed() const { return windows_executed_; }
  [[nodiscard]] std::uint64_t windows_skipped() const { return windows_skipped_; }
  [[nodiscard]] std::uint64_t barrier_rounds() const { return rounds_; }

  /// Arms the host-runtime profiler (obs/prof.hpp): binds one padded slot
  /// per shard and makes the window loop accumulate execute / barrier-wait /
  /// merge / skip host time plus message counters into it.  Null (the
  /// default) costs one pointer test per round and zero clock reads.  Must
  /// be called before run(); the profiler only reads the host clock, so the
  /// simulated event sequence is identical armed or not.
  void set_profiler(obs::prof::ShardProfiler* prof);

  /// Test hook: makes the next multi-message merge swap two entries so the
  /// canonical-order validator must reject it (proves misordered cross-shard
  /// merges cannot pass silently).
  void corrupt_next_merge_for_test() { corrupt_.store(true, std::memory_order_relaxed); }

 private:
  struct Msg {
    Time t;
    std::uint32_t key;     // source entity: second merge key
    std::uint64_t seq;     // per-entity sequence: third merge key
    Engine::Callback fn;
  };
  // A window's boundary tally: the net sum of its contributions and the
  // (key, seq) of the first one in merge order.  Every contribution of one
  // window lands at the window's end, and an entity's sequence only grows,
  // so `add` keeps the first contribution of the smallest key.
  struct Tally {
    static constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
    std::int64_t sum = 0;
    std::uint32_t key = kNone;  // kNone: nothing tallied
    std::uint64_t seq = 0;

    [[nodiscard]] bool any() const { return key != kNone; }
    void add(const Tally& o) {
      sum += o.sum;
      if (o.key < key) {
        key = o.key;
        seq = o.seq;
      }
    }
  };
  // One horizon slot per (round parity, shard): what the shard can reach
  // next, how much it still owes the system (pending engine events plus
  // messages it posted last window that no engine has scheduled yet, plus
  // one for an unheard tally) and the tally it made last window.
  struct alignas(64) Horizon {
    double next_event = 0.0;
    std::size_t pending = 0;
    Tally tally;
  };
  // Producer-side accounting for the window in flight, one padded slot per
  // shard: the earliest due time and count of messages this shard posted,
  // and its share of the window's tally.
  struct alignas(64) OutAcc {
    double min_t = std::numeric_limits<double>::infinity();
    std::size_t count = 0;
    Tally tally;
  };
  // The barrier's two hot words live on their own cache lines; `phase`
  // packs (generation << 1 | abort) into the single word waiters park on,
  // so an abort can wake parked threads through the same futex.
  struct alignas(64) PaddedAtomicU32 {
    std::atomic<std::uint32_t> v{0};
  };

  void worker(std::size_t shard);
  void drain_and_merge(std::size_t shard, std::size_t parity, const Tally& heard,
                       std::vector<Msg>& merged, double prev_window_end);
  bool barrier_wait();  // false = abort observed; leave the loop
  void abort_barrier();
  [[nodiscard]] std::size_t shard_of_key(std::uint32_t key) const;  // owner of a key_of key

  Config cfg_;
  std::size_t n_shards_ = 1;
  std::size_t n_nodes_ = 1;
  std::size_t n_mds_ = 1;
  double window_s_ = 0.0;
  std::vector<std::size_t> rank_lo_;  // S+1 node-aligned rank cuts
  std::vector<std::unique_ptr<Engine>> engines_;
  // Channels are double-buffered by round parity: round r drains buf[r & 1]
  // while the window that follows posts into buf[(r + 1) & 1].  The single
  // barrier separates a round's producers from its consumers (a producer
  // cannot re-enter parity p before every consumer of p has drained and
  // arrived), so no lock is needed anywhere on the message path.
  std::vector<std::vector<Msg>> channels_[2];  // [parity][src_shard * S + dst]
  std::vector<std::uint64_t> seq_;             // one per entity key
  std::vector<Horizon> horizon_;               // [parity * S + shard]
  std::vector<OutAcc> out_;                    // one per shard
  TallySink tally_sink_;
  PaddedAtomicU32 barrier_phase_;              // generation << 1 | abort bit
  PaddedAtomicU32 barrier_count_;
  obs::prof::ShardProfiler* prof_ = nullptr;
  std::atomic<bool> corrupt_{false};
  std::vector<std::exception_ptr> errors_;
  std::uint64_t windows_executed_ = 0;  // written by shard 0 only
  std::uint64_t windows_skipped_ = 0;
  std::uint64_t rounds_ = 0;
  bool ran_ = false;
};

/// Where each entity runs and how a coupling between two entities lands —
/// the one statement of the coupling rule.  A 16-byte value built
/// implicitly from an `Engine&` or a `ShardGroup&`, so every layer takes one
/// `Homes` instead of a constructor per engine kind.
///
/// Over one engine every coupling is exact: `couple_after` puts the event
/// on the engine's fixed-delay lane for its delay and `hand_off` calls
/// straight through.  Over a shard group a coupling is exact only between
/// two ranks on the same node, which share an engine and its lanes; every
/// other coupling is posted under the source's entity key to the
/// destination's shard and lands at a window boundary (`couple_after` at
/// the source's now + delay clamped up to it, `hand_off` at the boundary
/// itself).
class Homes {
 public:
  Homes(Engine& engine) : engine_(&engine) {}  // NOLINT: implicit, one engine
  Homes(ShardGroup& group) : group_(&group) {}  // NOLINT: implicit, a shard group

  // --- placement -----------------------------------------------------------
  /// The shard group, or null over one engine.
  [[nodiscard]] ShardGroup* group() const { return group_; }
  [[nodiscard]] std::size_t n_engines() const { return group_ ? group_->n_shards() : 1; }
  [[nodiscard]] Engine& engine(std::size_t i) const {
    return group_ ? group_->engine(i) : *engine_;
  }
  /// Index of the engine that runs `e`'s events.
  [[nodiscard]] std::size_t home_index(Entity e) const { return group_ ? group_->shard_of(e) : 0; }
  [[nodiscard]] Engine& home(Entity e) const { return engine(home_index(e)); }
  /// The engine executing the current event (engine 0 while seeding).
  [[nodiscard]] Engine& here() const { return group_ ? *current_engine() : *engine_; }
  [[nodiscard]] std::size_t here_index() const { return group_ ? current_shard_index() : 0; }
  /// Throws std::invalid_argument unless the placement covers exactly
  /// `count` entities of `kind` (a shard group's grid is sized up front; one
  /// engine holds any number).  `who` names the caller in the message.
  void require(Entity::Kind kind, std::size_t count, const char* who) const;

  // --- delivery ------------------------------------------------------------
  /// True when a coupling from `from` to `to` keeps its exact timestamp.
  [[nodiscard]] bool exact(Entity from, Entity to) const {
    return !group_ || (from.kind == Entity::Kind::Rank && to.kind == Entity::Kind::Rank &&
                       group_->key_of(from) == group_->key_of(to));
  }
  /// Runs `fn` on `to`'s engine `delay` (>= 0) after `from`'s now, or at the
  /// window boundary when that falls inside the window in flight and the
  /// coupling is not exact.  The caller must be executing as `from`.
  void couple_after(Entity from, Entity to, Time delay, Engine::Callback&& fn) const;
  /// Zero-delay coupling: calls `fn` before returning when exact, else runs
  /// it on `to`'s engine at the next window boundary.  A template so the
  /// exact path never type-erases the callable.
  template <class F>
  void hand_off(Entity from, Entity to, F&& fn) const {
    if (exact(from, to)) {
      fn();
      return;
    }
    couple_after(from, to, 0.0, Engine::Callback(std::forward<F>(fn)));
  }

 private:
  Engine* engine_ = nullptr;  // set over one engine
  ShardGroup* group_ = nullptr;
};
static_assert(sizeof(Homes) == 16, "Homes is passed by value");

}  // namespace aio::sim
