#include "sim/shard.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "obs/prof.hpp"

namespace aio::sim {

namespace {

// Per-thread shard context.  The main thread seeds through shard 0; worker
// threads bind themselves on entry.  `tls_window_end` is the boundary every
// in-flight post clamps to — 0 while seeding, so seed-time posts land at the
// very first boundary.  `tls_parity` selects the channel buffer posts go
// into: seeding writes parity 0 (drained by round 0), the window run in
// round r writes parity (r + 1) & 1 (drained by round r + 1).
thread_local Engine* tls_engine = nullptr;
thread_local std::size_t tls_shard = 0;
thread_local double tls_window_end = 0.0;
thread_local std::size_t tls_parity = 0;

inline void cpu_pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

// Barrier wait tuning: ~127 pause instructions of exponential backoff keep
// the together-arriving hot case off the bus, a few yields cover the
// oversubscribed case (S > cores), and everything longer parks on the futex.
constexpr int kMaxPauseBatch = 64;
constexpr int kMaxYields = 16;

}  // namespace

Engine* current_engine() { return tls_engine; }
std::size_t current_shard_index() { return tls_shard; }

ShardGroup::ShardGroup(Config config) : cfg_(config) {
  if (cfg_.n_ranks == 0) throw std::invalid_argument("ShardGroup: n_ranks must be > 0");
  if (cfg_.n_osts == 0) throw std::invalid_argument("ShardGroup: n_osts must be > 0");
  if (cfg_.ranks_per_node == 0) throw std::invalid_argument("ShardGroup: ranks_per_node must be > 0");
  if (!(cfg_.lookahead_s > 0.0)) throw std::invalid_argument("ShardGroup: lookahead must be > 0");
  if (!(cfg_.window_batch >= 1.0))
    throw std::invalid_argument("ShardGroup: window_batch must be >= 1");

  n_shards_ = std::clamp<std::size_t>(cfg_.n_shards, 1, std::min(kMaxShards, cfg_.n_osts));
  n_nodes_ = (cfg_.n_ranks + cfg_.ranks_per_node - 1) / cfg_.ranks_per_node;
  n_mds_ = cfg_.n_mds != 0 ? cfg_.n_mds : 1;
  window_s_ = cfg_.lookahead_s * cfg_.window_batch;

  // Node-aligned rank cuts: round each balanced cut down to a node boundary
  // so every node (and its NIC) lives on exactly one shard.
  rank_lo_.resize(n_shards_ + 1);
  rank_lo_[0] = 0;
  rank_lo_[n_shards_] = cfg_.n_ranks;
  for (std::size_t s = 1; s < n_shards_; ++s) {
    const std::size_t raw = s * cfg_.n_ranks / n_shards_;
    rank_lo_[s] = std::max(rank_lo_[s - 1], raw / cfg_.ranks_per_node * cfg_.ranks_per_node);
  }

  engines_.reserve(n_shards_);
  for (std::size_t i = 0; i < n_shards_; ++i) engines_.push_back(std::make_unique<Engine>());
  channels_[0].resize(n_shards_ * n_shards_);
  channels_[1].resize(n_shards_ * n_shards_);
  seq_.resize(n_nodes_ + cfg_.n_osts + n_mds_, 0);  // one per entity key
  horizon_.resize(2 * n_shards_);
  out_.resize(n_shards_);
  errors_.resize(n_shards_);

  // Bind the constructing thread as the seeding context for shard 0.
  tls_engine = engines_[0].get();
  tls_shard = 0;
  tls_window_end = 0.0;
  tls_parity = 0;
}

ShardGroup::~ShardGroup() {
  if (tls_engine == engines_[0].get()) tls_engine = nullptr;
}

std::size_t ShardGroup::shard_of(Entity e) const {
  switch (e.kind) {
    case Entity::Kind::Rank: {
      assert(e.index < cfg_.n_ranks);
      // The node-aligned cuts sit within one node of the balanced ones, so
      // the balanced estimate is off by at most a step or two either way.
      std::size_t s = std::min(n_shards_ - 1, e.index * n_shards_ / cfg_.n_ranks);
      while (s + 1 < n_shards_ && e.index >= rank_lo_[s + 1]) ++s;
      while (s > 0 && e.index < rank_lo_[s]) --s;
      return s;
    }
    case Entity::Kind::Ost: return ((e.index + 1) * n_shards_ - 1) / cfg_.n_osts;
    case Entity::Kind::Mds: return ((e.index + 1) * n_shards_ - 1) / n_mds_;
  }
  __builtin_unreachable();
}

std::size_t ShardGroup::shard_of_key(std::uint32_t key) const {
  if (key < n_nodes_) return shard_of(Entity::rank(key * cfg_.ranks_per_node));
  if (key < n_nodes_ + cfg_.n_osts) return shard_of(Entity::ost(key - n_nodes_));
  return shard_of(Entity::mds(key - n_nodes_ - cfg_.n_osts));
}

void ShardGroup::post(std::uint32_t src_key, std::size_t dst_shard, Time t,
                      Engine::Callback fn) {
  assert(src_key < seq_.size());
  assert(dst_shard < n_shards_);
  assert(ran_ ? shard_of_key(src_key) == tls_shard : tls_shard == 0);
  // Nothing may land inside the window in flight: clamp up to the boundary.
  // This also absorbs sub-lookahead latencies and ulp-level rounding in the
  // caller's timestamp arithmetic.
  if (t < tls_window_end) t = tls_window_end;
  // Producer-side horizon accounting: the poster knows the exact due time,
  // so the barrier round can compute the global minimum without a second
  // rendezvous to look inside anyone's inbox.
  OutAcc& out = out_[tls_shard];
  if (t < out.min_t) out.min_t = t;
  ++out.count;
  channels_[tls_parity][tls_shard * n_shards_ + dst_shard].push_back(
      Msg{t, src_key, seq_[src_key]++, std::move(fn)});
}

void ShardGroup::tally(std::uint32_t src_key, std::int64_t delta) {
  assert(src_key < seq_.size());
  assert(tally_sink_);
  assert(ran_ ? shard_of_key(src_key) == tls_shard : tls_shard == 0);
  OutAcc& out = out_[tls_shard];
  out.tally.add(Tally{delta, src_key, seq_[src_key]++});
  if (tls_window_end < out.min_t) out.min_t = tls_window_end;
}

bool ShardGroup::barrier_wait() {
  std::atomic<std::uint32_t>& phase = barrier_phase_.v;
  const std::uint32_t entry = phase.load(std::memory_order_acquire);
  if (entry & 1u) return false;  // aborted before arrival
  if (barrier_count_.v.fetch_add(1, std::memory_order_acq_rel) + 1 == n_shards_) {
    barrier_count_.v.store(0, std::memory_order_relaxed);
    // Release the cohort: bump the generation, preserving the abort bit.
    phase.fetch_add(2, std::memory_order_acq_rel);
    phase.notify_all();
    return !(phase.load(std::memory_order_acquire) & 1u);
  }
  std::uint32_t cur = phase.load(std::memory_order_acquire);
  int pauses = 1;
  int yields = 0;
  while ((cur >> 1) == (entry >> 1)) {
    if (cur & 1u) return false;
    if (pauses <= kMaxPauseBatch) {
      // Bounded spin, exponentially backed off: latency-optimal when the
      // cohort arrives together.
      for (int i = 0; i < pauses; ++i) cpu_pause();
      pauses <<= 1;
    } else if (yields < kMaxYields) {
      // Oversubscribed (S > cores) or a straggling shard: give the
      // timeslice away instead of burning it.
      std::this_thread::yield();
      ++yields;
    } else {
      // Long idle: park on the phase word.  An abort flips its low bit, so
      // the same futex wakes parked waiters for release and for abort.
      phase.wait(cur, std::memory_order_acquire);
    }
    cur = phase.load(std::memory_order_acquire);
  }
  return !(cur & 1u);
}

void ShardGroup::abort_barrier() {
  barrier_phase_.v.fetch_or(1u, std::memory_order_acq_rel);
  barrier_phase_.v.notify_all();
}

void ShardGroup::drain_and_merge(std::size_t shard, std::size_t parity, const Tally& heard,
                                 std::vector<Msg>& merged, double prev_window_end) {
  merged.clear();
  for (std::size_t src = 0; src < n_shards_; ++src) {
    auto& ch = channels_[parity][src * n_shards_ + shard];
    for (Msg& m : ch) merged.push_back(std::move(m));
    ch.clear();
  }
  // The tally of the window that just ended lands on this boundary, at its
  // first contribution's key.
  if (heard.any())
    merged.push_back(Msg{prev_window_end, heard.key, heard.seq,
                         [this, shard, sum = heard.sum] { tally_sink_(shard, sum); }});
  const auto key_less = [](const Msg& a, const Msg& b) {
    if (a.t != b.t) return a.t < b.t;
    if (a.key != b.key) return a.key < b.key;
    return a.seq < b.seq;
  };
  std::sort(merged.begin(), merged.end(), key_less);
  if (merged.size() >= 2 && corrupt_.exchange(false, std::memory_order_relaxed))
    std::iter_swap(merged.begin(), merged.begin() + 1);
  for (std::size_t i = 0; i < merged.size(); ++i) {
    if (merged[i].t < prev_window_end)
      throw std::logic_error("ShardGroup: cross-shard message due before the window boundary");
    if (i > 0 && !key_less(merged[i - 1], merged[i]))
      throw std::logic_error("ShardGroup: cross-shard merge violates canonical (t, entity, seq) order");
  }
}

void ShardGroup::worker(std::size_t shard) {
  Engine& eng = *engines_[shard];
  tls_engine = &eng;
  tls_shard = shard;
  tls_window_end = 0.0;
  std::vector<Msg> merged;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double prev_end = 0.0;
  std::uint64_t prev_k = 0;
  bool first_window = true;
  // Host-runtime profiling: null costs one test per round; armed costs five
  // steady-clock reads per round, all into this shard's own padded slot.
  // Consecutive phases share their boundary reads (the execute-end read is
  // the next round's start), keeping the instrumented lockstep path as short
  // as possible — on an oversubscribed host every serialized instruction
  // between barrier rounds is amplified by the thread count.
  using profclock = std::chrono::steady_clock;
  obs::prof::ShardProfiler::Slot* const prof = prof_ ? &prof_->slot(shard) : nullptr;
  const auto secs = [](profclock::time_point a, profclock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };
  profclock::time_point pt{};
  if (prof) pt = profclock::now();
  for (std::uint64_t round = 0;; ++round) {
    const std::size_t parity = round & 1;
    // Publish this shard's horizon: the earliest thing it could make happen
    // (its own next event, or the earliest message it posted last window)
    // and how much it still owes the system.  Messages in flight, and an
    // unheard tally, count as pending until a drain schedules them onto an
    // engine.
    OutAcc& out = out_[shard];
    Horizon& h = horizon_[parity * n_shards_ + shard];
    h.next_event = std::min(eng.next_event_time(), out.min_t);
    h.pending = eng.pending_normal() + out.count + (out.tally.any() ? 1 : 0);
    h.tally = out.tally;
    if (prof) prof->msgs_posted += out.count;
    out.min_t = kInf;
    out.count = 0;
    out.tally = Tally{};
    if (shard == 0) rounds_ = round + 1;
    profclock::time_point pb{};
    if (prof) {
      pb = profclock::now();
      prof->skip_s += secs(pt, pb);
    }
    const bool alive = barrier_wait();
    if (prof) {
      pt = profclock::now();
      prof->barrier_s += secs(pb, pt);
      prof->rounds = round + 1;
      // events is NOT refreshed here: it only changes in run_before, so the
      // execute-end store below already covers the exit paths.
    }
    if (!alive) return;
    double min_next = kInf;
    std::size_t total = 0;
    Tally heard;
    for (std::size_t s = 0; s < n_shards_; ++s) {
      const Horizon& hs = horizon_[parity * n_shards_ + s];
      min_next = std::min(min_next, hs.next_event);
      total += hs.pending;
      heard.add(hs.tally);
    }
    if (total == 0) return;  // drained: engines idle, no message in flight
    drain_and_merge(shard, parity, heard, merged, prev_end);
    for (Msg& m : merged) eng.schedule_at(m.t, std::move(m.fn));
    if (prof) {
      const auto pm = profclock::now();
      prof->merge_s += secs(pt, pm);
      // A tally is posted by the shard that made its first contribution,
      // once for every shard that hears it (obs/prof.hpp).
      if (heard.any() && h.tally.key == heard.key)
        prof->msgs_posted += n_shards_;
      prof->msgs_drained += merged.size();
      prof->backlog_hw = std::max<std::uint64_t>(prof->backlog_hw, merged.size());
      pt = pm;
    }
    // Hop to the window containing the global minimum — one hop over any
    // run of empty windows — on an integer grid; the guard absorbs
    // floating-point rounding at exact-boundary timestamps.
    auto k = static_cast<std::uint64_t>(min_next / window_s_);
    double w_end = static_cast<double>(k + 1) * window_s_;
    while (w_end <= min_next) w_end = static_cast<double>(++k + 1) * window_s_;
    if (shard == 0) {
      ++windows_executed_;
      windows_skipped_ += first_window ? k : k - prev_k - 1;
    }
    first_window = false;
    prev_k = k;
    tls_window_end = w_end;
    tls_parity = (round + 1) & 1;
    profclock::time_point pe{};
    if (prof) {
      pe = profclock::now();
      prof->skip_s += secs(pt, pe);
    }
    eng.run_before(w_end);
    if (prof) {
      pt = profclock::now();  // doubles as the next round's start-of-skip read
      prof->execute_s += secs(pe, pt);
      prof->events = eng.steps();
    }
    prev_end = w_end;
  }
}

void ShardGroup::set_profiler(obs::prof::ShardProfiler* prof) {
  if (ran_) throw std::logic_error("ShardGroup: set_profiler must precede run()");
  prof_ = prof;
  if (prof_) prof_->bind(n_shards_);
}

void ShardGroup::run() {
  if (ran_) throw std::logic_error("ShardGroup: a group can only run once");
  ran_ = true;
  if (n_shards_ == 1) {
    worker(0);
    tls_parity = 0;
    return;
  }
  std::vector<std::thread> threads;
  threads.reserve(n_shards_);
  for (std::size_t s = 0; s < n_shards_; ++s) {
    threads.emplace_back([this, s] {
      try {
        worker(s);
      } catch (...) {
        errors_[s] = std::current_exception();
        abort_barrier();
      }
    });
  }
  for (auto& t : threads) t.join();
  // Re-bind the caller as the post-run context for shard 0 (result readers,
  // journal merging).
  tls_engine = engines_[0].get();
  tls_shard = 0;
  tls_parity = 0;
  for (auto& e : errors_)
    if (e) std::rethrow_exception(e);
}

void Homes::require(Entity::Kind kind, std::size_t count, const char* who) const {
  if (!group_) return;
  const auto k = static_cast<std::size_t>(kind);
  const std::size_t grid[] = {group_->n_ranks(), group_->n_osts(), group_->n_mds()};
  const char* const names[] = {": rank", ": OST", ": MDS"};
  if (count != grid[k])
    throw std::invalid_argument(std::string(who) + names[k] +
                                " count does not match the shard group");
}

void Homes::couple_after(Entity from, Entity to, Time delay, Engine::Callback&& fn) const {
  if (!group_) {
    engine_->schedule_fixed(delay, std::move(fn));
  } else if (exact(from, to)) {
    // Same node: the two ranks share an engine at any shard count.
    group_->engine(group_->shard_of(to)).schedule_fixed(delay, std::move(fn));
  } else {
    group_->post(group_->key_of(from), group_->shard_of(to), home(from).now() + delay,
                 std::move(fn));
  }
}

std::size_t ShardGroup::total_steps() const {
  std::size_t n = 0;
  for (const auto& e : engines_) n += e->steps();
  return n;
}

}  // namespace aio::sim
