#include "sim/engine.hpp"

#include <cassert>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <utility>

#include "obs/env.hpp"
#include "sim/dary_heap.hpp"

namespace aio::sim {

// Debug aid: AIO_ENGINE_TRACE=1 prints a heartbeat every 2^20 events so
// runaway same-timestamp event storms are visible.  Read once per engine so
// the dispatch loop tests a plain member instead of a guarded static.
bool Engine::heartbeat_enabled() {
  static const bool enabled = obs::env_sink("AIO_ENGINE_TRACE").on;
  return enabled;
}

EventHandle Engine::schedule(Time t, Callback cb, bool daemon) {
  // Negated so NaN is rejected too: a NaN key orders against nothing and
  // would break the heap's strict weak ordering.
  if (!(t >= now_)) throw std::invalid_argument("Engine::schedule: time in the past or NaN");
  std::uint32_t idx;
  if (free_slots_.empty()) {
    idx = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    idx = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slot(idx);
  s.cb = std::move(cb);
  s.daemon = daemon;
  s.time = t;
  s.seq = s.stamp = next_seq_++;
  if (!daemon) ++normal_pending_;
  ++live_;
  dheap_push(heap_, Node{t, s.seq, idx}, before);
  return EventHandle{handle_id(idx, s.gen)};
}

std::uint32_t Engine::pending_slot(EventHandle h) const {
  if (!h.valid()) return kNoSlot;
  const auto idx = static_cast<std::uint32_t>((h.id_ >> 32) - 1);
  const auto gen = static_cast<std::uint32_t>(h.id_);
  if (idx >= slots_.size() || slot(idx).gen != gen) return kNoSlot;  // fired or cancelled
  return idx;
}

void Engine::release(std::uint32_t idx) {
  Slot& s = slot(idx);
  s.cb = Callback{};
  ++s.gen;  // any outstanding handle for this slot is now stale
  if (!s.daemon) {
    assert(normal_pending_ > 0);
    --normal_pending_;
  }
  assert(live_ > 0);
  --live_;
  free_slots_.push_back(idx);
}

void Engine::add_debris() {
  // Debris stays in the heap (lazy deletion); once it dominates, one O(n)
  // compaction keeps pops from wading through it.
  if (++debris_ > 64 && debris_ * 2 > heap_.size()) compact();
}

bool Engine::cancel(EventHandle h) {
  const std::uint32_t idx = pending_slot(h);
  if (idx == kNoSlot) return false;
  // No node carries a seq not yet issued, so this turns the node standing
  // for the event into debris and the slot can be reused at once.
  Slot& s = slot(idx);
  s.seq = s.stamp = next_seq_;
  release(idx);
  add_debris();
  return true;
}

bool Engine::rearm(EventHandle h, Time t, bool daemon) {
  if (!(t >= now_)) throw std::invalid_argument("Engine::rearm: time in the past or NaN");
  const std::uint32_t idx = pending_slot(h);
  if (idx == kNoSlot) return false;
  Slot& s = slot(idx);
  if (s.daemon != daemon) {
    if (daemon) {
      assert(normal_pending_ > 0);
      --normal_pending_;
    } else {
      ++normal_pending_;
    }
    s.daemon = daemon;
  }
  // The seq is drawn exactly where cancel + schedule would draw it, so every
  // (time, seq) key, and with it the firing order, is the same.
  const bool later = t >= s.time;
  s.time = t;
  s.seq = next_seq_++;
  // Moving later, the new key lies past the standing node's: leave the node
  // where it is; it is re-keyed when it surfaces.
  if (later) return true;
  // Moving earlier, the standing node would surface too late: push a fresh
  // one and let the old one become debris.
  s.stamp = s.seq;
  dheap_push(heap_, Node{t, s.seq, idx}, before);
  add_debris();
  return true;
}

void Engine::compact() {
  std::size_t kept = 0;
  for (const Node& n : heap_) {
    Slot& s = slot(n.slot);
    if (n.seq != s.stamp) continue;  // debris
    s.stamp = s.seq;                 // re-key a node standing for a moved event
    heap_[kept++] = Node{s.time, s.seq, n.slot};
  }
  heap_.resize(kept);
  dheap_make(heap_, before);
  debris_ = 0;
}

void Engine::fire(const Node& n) {
  assert(n.time >= now_);
  now_ = n.time;
  ++steps_;
  if (heartbeat_ && (steps_ & ((1u << 20) - 1)) == 0) {
    std::fprintf(stderr, "[engine] steps=%zu t=%.9f pending=%zu\n", steps_, now_, pending());
  }
  // Move the callback out before releasing: the callback may schedule new
  // events, reusing (or growing past) this very slot.
  Callback cb = std::move(slot(n.slot).cb);
  release(n.slot);
  cb();
}

bool Engine::settle() {
  while (!heap_.empty()) {
    const Node top = heap_.front();
    Slot& s = slot(top.slot);
    if (top.seq == s.seq) return true;  // an event at its true key
    if (top.seq == s.stamp) {
      // Stands in for an event moved later: re-key it in place.  Not a
      // step — the clock and steps_ stay put.
      s.stamp = s.seq;
      dheap_sift_down(heap_, 0, Node{s.time, s.seq, top.slot}, before);
    } else {
      dheap_pop(heap_, before);
      --debris_;
    }
  }
  return false;
}

void Engine::fire_head() {
#if defined(__GNUC__) || defined(__clang__)
  // settle() touched the slot's key line; start pulling the callback's line
  // so the fetch overlaps the O(log n) sift-down.
  __builtin_prefetch(&slot(heap_.front().slot));
#endif
  fire(dheap_pop(heap_, before));
}

bool Engine::pop_one() {
  if (!settle()) return false;
  fire_head();
  return true;
}

std::size_t Engine::run() {
  std::size_t n = 0;
  while (normal_pending_ > 0 && pop_one()) ++n;
  return n;
}

std::size_t Engine::run(std::size_t max_steps) {
  std::size_t n = 0;
  while (n < max_steps && normal_pending_ > 0 && pop_one()) ++n;
  return n;
}

std::size_t Engine::run_before(Time t) {
  // The sharded hot loop: stops at the first event at or past the window
  // edge without advancing the clock to it.
  std::size_t n = 0;
  while (settle() && heap_.front().time < t) {
    fire_head();
    ++n;
  }
  return n;
}

Time Engine::next_event_time() {
  return settle() ? heap_.front().time : std::numeric_limits<double>::infinity();
}

std::size_t Engine::run_until(Time t) {
  std::size_t n = 0;
  while (settle() && heap_.front().time <= t) {
    fire_head();
    ++n;
  }
  if (t > now_) now_ = t;
  return n;
}

}  // namespace aio::sim
