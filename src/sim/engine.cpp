#include "sim/engine.hpp"

#include <cassert>
#include <limits>
#include <stdexcept>
#include <utility>

#include "obs/journal.hpp"
#include "obs/live.hpp"
#include "sim/dary_heap.hpp"

namespace aio::sim {

void Engine::record(const obs::Record& r) {
  if (journal_) journal_->append(r);
  if (live_plane_) live_plane_->ingest(r);
}

std::uint32_t Engine::claim(Time t, Callback&& cb, bool daemon) {
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
  return idx;
}

EventHandle Engine::schedule(Time t, Callback cb, bool daemon) {
  // Negated so NaN is rejected too: a NaN key orders against nothing and
  // would break the heap's strict weak ordering.
  if (!(t >= now_)) throw std::invalid_argument("Engine::schedule: time in the past or NaN");
  const std::uint32_t idx = claim(t, std::move(cb), daemon);
  const Slot& s = slot(idx);
  dheap_push(heap_, Node{t, s.seq, idx}, before);
  return EventHandle{handle_id(idx, s.gen)};
}

void Engine::Lane::push(const Node& n) {
  if (size == ring.size()) {
    // Full: unroll into a ring twice the size, front first.
    std::vector<Node> grown(ring.empty() ? 16 : 2 * ring.size());
    for (std::size_t i = 0; i < size; ++i) grown[i] = ring[(head + i) & (ring.size() - 1)];
    ring.swap(grown);
    head = 0;
  }
  ring[(head + size) & (ring.size() - 1)] = n;
  ++size;
}

void Engine::schedule_fixed(Time delay, Callback cb) {
  if (!(delay >= 0.0)) throw std::invalid_argument("Engine::schedule_fixed: negative or NaN delay");
  Lane* lane = nullptr;
  for (std::size_t i = 0; i < n_lanes_ && !lane; ++i)
    if (lanes_[i].delay == delay) lane = &lanes_[i];
  if (!lane) {
    if (n_lanes_ == kMaxLanes) {
      schedule(now_ + delay, std::move(cb), false);
      return;
    }
    lane = &lanes_[n_lanes_++];
    lane->delay = delay;
  }
  const Time t = now_ + delay;
  const std::uint32_t idx = claim(t, std::move(cb), false);
  lane->push(Node{t, slot(idx).seq, idx});
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

const Engine::Node* Engine::head(Lane*& lane) {
  const Node* best = settle() ? &heap_.front() : nullptr;
  lane = nullptr;
  for (std::size_t i = 0; i < n_lanes_; ++i) {
    Lane& l = lanes_[i];
    if (l.size != 0 && (!best || before(l.front(), *best))) {
      best = &l.front();
      lane = &l;
    }
  }
  return best;
}

void Engine::fire_head(Lane* lane) {
  if (lane) {
    const Node n = lane->front();
    lane->pop();
    fire(n);
    return;
  }
#if defined(__GNUC__) || defined(__clang__)
  // settle() touched the slot's key line; start pulling the callback's line
  // so the fetch overlaps the O(log n) sift-down.
  __builtin_prefetch(&slot(heap_.front().slot));
#endif
  fire(dheap_pop(heap_, before));
}

bool Engine::pop_one() {
  Lane* lane;
  if (!head(lane)) return false;
  fire_head(lane);
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
  Lane* lane;
  for (const Node* h; (h = head(lane)) && h->time < t; ++n) fire_head(lane);
  return n;
}

Time Engine::next_event_time() {
  Lane* lane;
  const Node* h = head(lane);
  return h ? h->time : std::numeric_limits<double>::infinity();
}

std::size_t Engine::run_until(Time t) {
  std::size_t n = 0;
  Lane* lane;
  for (const Node* h; (h = head(lane)) && h->time <= t; ++n) fire_head(lane);
  if (t > now_) now_ = t;
  return n;
}

}  // namespace aio::sim
