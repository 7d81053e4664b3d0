#include "fs/ost.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "obs/journal.hpp"

namespace aio::fs {

namespace {
constexpr double kEps = 1e-6;  // byte-scale tolerance for crossings/completions
// Residual work that finishes in under this long at the current rate counts
// as done; prevents sub-ulp reschedule livelocks.
constexpr double kEpsSeconds = 1e-9;
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

Ost::Ost(sim::Engine& engine, Config config, int index)
    : engine_(engine), config_(config), index_(index), last_update_(engine.now()) {
  if (config_.disk_bw <= 0.0 || config_.ingest_bw <= 0.0)
    throw std::invalid_argument("Ost: bandwidths must be > 0");
  if (config_.cache_bytes < 0.0 || config_.alpha < 0.0 || config_.per_stream_cap < 0.0)
    throw std::invalid_argument("Ost: negative parameter");
}

Ost::~Ost() {
  if (pending_.valid()) engine_.cancel(pending_);
}

double Ost::cache_occupancy() const {
  const double dt = engine_.now() - last_update_;
  double q = std::max(0.0, orphan_ - orphan_outflow_ * dt);
  for (const Op& op : ops_) {
    if (op.is_read) continue;  // reads use no write-cache space
    q += std::max(0.0, op.dirty + (op.inflow - op.outflow) * dt);
  }
  return q;
}

double Ost::cum_ingested() const {
  return cum_in_ + rate_in_ * (engine_.now() - last_update_);
}

double Ost::cum_drained() const {
  return cum_drained_ + rate_drain_ * (engine_.now() - last_update_);
}

Ost::OpId Ost::write(double bytes, Mode mode, OnComplete on_complete) {
  if (!(bytes > 0.0 && std::isfinite(bytes)))
    throw std::invalid_argument("Ost::write: bytes must be > 0");
  advance();
  const OpId id = next_id_++;
  ops_.push_back(Op{id, bytes, 0.0, 0.0, mode, false, std::move(on_complete)});
  bytes_submitted_ += bytes;
  recompute();
  return id;
}

Ost::OpId Ost::read(double bytes, OnComplete on_complete) {
  if (!(bytes > 0.0 && std::isfinite(bytes)))
    throw std::invalid_argument("Ost::read: bytes must be > 0");
  advance();
  const OpId id = next_id_++;
  ops_.push_back(Op{id, bytes, bytes, bytes, Mode::Durable, true, std::move(on_complete)});
  bytes_read_requested_ += bytes;
  recompute();
  return id;
}

Ost::OpId Ost::flush(OnComplete on_complete) {
  advance();
  const OpId id = next_id_++;
  flushes_.push_back(Flush{id, std::move(on_complete)});
  recompute();
  return id;
}

bool Ost::abort(OpId id) {
  advance();
  const auto it = std::lower_bound(ops_.begin(), ops_.end(), id,
                                   [](const Op& op, OpId key) { return op.id < key; });
  if (it != ops_.end() && it->id == id) {
    orphan_ += it->dirty;  // in-cache bytes still have to drain
    ops_.erase(it);
    recompute();
    return true;
  }
  for (auto it = flushes_.begin(); it != flushes_.end(); ++it) {
    if (it->id == id) {
      flushes_.erase(it);
      recompute();
      return true;
    }
  }
  return false;
}

void Ost::set_fabric_factor(double factor) {
  if (factor < 0.0) throw std::invalid_argument("Ost: negative fabric factor");
  // The fabric factor only feeds ingest shares (net_total in recompute).
  // With no stream mid-ingest — was_active_ is exactly "n_ingest > 0 at the
  // last recompute", and ingest can't restart without a recompute — rates,
  // the pending transition time, and the activity state are all invariant
  // under a factor change, so the governor's broadcast can store the factor
  // and skip the advance/recompute/reschedule for this OST entirely.
  if (!was_active_) {
    fabric_factor_ = factor;
    return;
  }
  advance();
  fabric_factor_ = factor;
  recompute();
}

void Ost::set_load(double net_load, double disk_load) {
  if (net_load < 0.0 || net_load >= 1.0 || disk_load < 0.0 || disk_load >= 1.0)
    throw std::invalid_argument("Ost: load must lie in [0, 1)");
  advance();
  net_load_ = net_load;
  disk_load_ = disk_load;
  ++load_seq_;
  recompute();
}

void Ost::advance() {
  const sim::Time now = engine_.now();
  const double dt = now - last_update_;
  last_update_ = now;
  if (dt <= 0.0) return;

  double drained = std::min(orphan_, orphan_outflow_ * dt);
  orphan_ -= drained;
  double ingested = 0.0;
  for (Op& op : ops_) {
    const double in = std::min(op.inflow * dt, op.bytes - op.ingested);
    op.ingested += in;
    if (!op.is_read) ingested += in;
    const double out = std::min(op.outflow * dt, op.dirty + in);
    op.dirty = std::max(0.0, op.dirty + in - out);
    if (!op.is_read) drained += out;
  }
  cum_in_ += ingested;
  cum_drained_ += drained;
}

void Ost::recompute() {
  // --- classify entities ------------------------------------------------------
  std::size_t n_ingest = 0;  // ops actively moving bytes into the cache
  std::size_t m_dirty = 0;   // dirty streams sharing (and penalizing) the drain
  double q = orphan_;
  for (const Op& op : ops_) {
    if (!op.fully_ingested()) ++n_ingest;
    if (!op.fully_ingested() || op.dirty > kEps) ++m_dirty;
    if (!op.is_read) q += op.dirty;  // reads use no write-cache space
  }
  const bool orphan_active = orphan_ > kEps;
  if (orphan_active) ++m_dirty;

  const double net_total = config_.ingest_bw * fabric_factor_ * (1.0 - net_load_);
  const double disk_total =
      config_.disk_bw * (1.0 - disk_load_) * efficiency(std::max<std::size_t>(m_dirty, 1));
  const double share = m_dirty > 0 ? disk_total / static_cast<double>(m_dirty) : disk_total;
  const bool cache_full = q >= config_.cache_bytes - kEps;
  // Dedup inline: recompute() runs ~20x per emitted record, so the observed
  // tuple is compared here and the out-of-line emit runs only on a change.
  if (engine_.observing_records()) {
    const std::uint64_t key = (static_cast<std::uint64_t>(m_dirty) << 33) |
                              (static_cast<std::uint64_t>(load_seq_) << 1) |
                              (cache_full ? 1u : 0u);
    if (key != journaled_key_) observe_state(m_dirty, cache_full, key);
  }

  double r = 0.0;
  if (n_ingest > 0 && net_total > 0.0) {
    r = net_total / static_cast<double>(n_ingest);
    if (config_.per_stream_cap > 0.0) r = std::min(r, config_.per_stream_cap);
  }

  // --- assign per-entity rates ------------------------------------------------
  rate_in_ = 0.0;
  rate_drain_ = 0.0;
  orphan_outflow_ = orphan_active ? share : 0.0;
  rate_drain_ += orphan_outflow_;
  for (Op& op : ops_) {
    op.inflow = op.fully_ingested() ? 0.0 : r;
    // A full cache throttles each stream's ingest to its own drain share.
    if (cache_full && op.inflow > share) op.inflow = share;
    op.outflow = (op.dirty > kEps) ? share : std::min(op.inflow, share);
    rate_in_ += op.inflow;
    rate_drain_ += op.outflow;
  }

  // --- activity hook ------------------------------------------------------------
  // Called in place: the fabric governor only counts and decides here, and
  // re-times OSTs from its own same-instant flush event, never from inside
  // this recompute.
  const bool active = n_ingest > 0;
  if (active != was_active_) {
    was_active_ = active;
    if (activity_hook_) activity_hook_(active);
  }

  // --- find the next state-changing instant --------------------------------------
  double dt = kInf;
  bool immediate = false;
  for (const Op& op : ops_) {
    if (!op.fully_ingested()) {
      const double left = op.bytes - op.ingested;
      const double ingest_eps = kEps + op.inflow * kEpsSeconds;
      if (left <= ingest_eps) {
        immediate = true;
      } else if (op.inflow > 0.0) {
        dt = std::min(dt, left / op.inflow);
      }
      // An op mid-ingest whose dirty pool empties switches outflow mode.
      if (op.dirty > kEps && op.outflow > op.inflow + kEps)
        dt = std::min(dt, op.dirty / (op.outflow - op.inflow));
      continue;
    }
    // Fully ingested: cached ops complete now; durable ops complete when
    // their dirty bytes are gone.
    const double drain_eps = kEps + op.outflow * kEpsSeconds;
    if (op.mode == Mode::Cached) {
      immediate = true;
    } else if (op.dirty <= drain_eps) {
      immediate = true;
    } else if (op.outflow > kEps) {
      dt = std::min(dt, op.dirty / op.outflow);
    }
  }
  if (orphan_active && orphan_outflow_ > 0.0) {
    // Orphan exhaustion changes the share structure (and gates flushes).
    dt = std::min(dt, orphan_ / orphan_outflow_);
  }
  if (!flushes_.empty() && flush_ready()) immediate = true;
  // Cache-full crossing throttles every ingest to its drain share.
  const double net_flow = rate_in_ - rate_drain_;
  if (!cache_full && net_flow > kEps && q < config_.cache_bytes)
    dt = std::min(dt, (config_.cache_bytes - q) / net_flow);

  // With no ops outstanding the only pending transition is residual cache
  // writeback — background work that must not keep Engine::run() alive.
  const bool daemon = ops_.empty() && flushes_.empty();
  if (immediate) {
    arm(0.0, daemon);
  } else if (dt < kInf) {
    // Never schedule below the time resolution: a sub-ulp dt would fire at
    // an identical timestamp and make no fluid progress.
    arm(std::max(dt, kEpsSeconds), daemon);
  } else if (pending_.valid()) {
    engine_.cancel(pending_);
    pending_ = sim::EventHandle{};
  }
}

void Ost::arm(double delay, bool daemon) {
  // Re-timing in place keeps the event's slot and callback; the fabric
  // governor's flush re-times every busy OST once per instant it moves.
  const sim::Time t = engine_.now() + delay;
  if (pending_.valid() && engine_.rearm(pending_, t, daemon)) return;
  pending_ = daemon ? engine_.schedule_daemon_at(t, [this] { fire(); })
                    : engine_.schedule_at(t, [this] { fire(); });
}

void Ost::observe_state(std::size_t m_dirty, bool cache_full, std::uint64_t key) {
  // Journal and live plane share one dedup (the caller's inline compare):
  // both see the same step function, which keeps the live load integrals
  // equal to the analyzer's rebuild.
  journaled_key_ = key;
  obs::Record r;
  r.kind = obs::Rec::kOstState;
  r.t = engine_.now();
  r.id = static_cast<std::uint32_t>(index_);
  r.u0 = static_cast<std::uint32_t>(m_dirty);
  r.a = cache_full ? 1 : 0;
  r.v0 = efficiency(std::max<std::size_t>(m_dirty, 1));
  r.v1 = net_load_;
  r.v2 = disk_load_;
  engine_.record(r);
}

bool Ost::flush_ready() const {
  if (orphan_ > kEps) return false;
  for (const Op& op : ops_) {
    if (op.mode == Mode::Cached) return false;
  }
  return true;
}

void Ost::fire() {
  pending_ = sim::EventHandle{};
  advance();

  // Collect completions first; callbacks run only after the state is
  // consistent.  The batch reuses a member scratch vector: fire() never
  // re-enters (it only runs from engine events), and the callbacks it
  // invokes at the bottom only see the scratch after collection is done.
  std::vector<OnComplete>& done = done_scratch_;
  done.clear();
  std::size_t kept = 0;
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    Op& op = ops_[i];
    const double ingest_eps = kEps + (op.inflow + 1.0) * kEpsSeconds;
    if (!op.fully_ingested() && op.bytes - op.ingested <= ingest_eps) {
      const double remainder = op.bytes - op.ingested;
      cum_in_ += remainder;  // account the tolerance remainder
      op.dirty += remainder;
      op.ingested = op.bytes;
    }
    if (op.fully_ingested()) {
      const double drain_eps = kEps + (op.outflow + 1.0) * kEpsSeconds;
      if (op.mode == Mode::Cached) {
        orphan_ += op.dirty;  // residue keeps draining in background
        done.push_back(std::move(op.on_complete));
        continue;
      }
      if (op.dirty <= drain_eps) {
        if (!op.is_read) cum_drained_ += op.dirty;
        done.push_back(std::move(op.on_complete));
        continue;
      }
    }
    // Survivors slide down over completed ops in one pass, keeping id order.
    if (kept != i) ops_[kept] = std::move(op);
    ++kept;
  }
  ops_.erase(ops_.begin() + static_cast<std::ptrdiff_t>(kept), ops_.end());
  if (orphan_ <= kEps + orphan_outflow_ * kEpsSeconds) orphan_ = 0.0;
  if (!flushes_.empty() && flush_ready()) {
    for (auto& f : flushes_) done.push_back(std::move(f.on_complete));
    flushes_.clear();
  }

  recompute();
  const sim::Time now = engine_.now();
  for (auto& cb : done) {
    if (!cb) continue;
    // Fixed per-op server overhead (request processing, RPC round trip):
    // parallel writers absorb it once; serialized chains pay it per link.
    if (config_.op_latency_s > 0.0) {
      engine_.schedule_fixed(config_.op_latency_s,
                             [cb = std::move(cb), this]() mutable { cb(engine_.now()); });
    } else {
      cb(now);
    }
  }
}

}  // namespace aio::fs
