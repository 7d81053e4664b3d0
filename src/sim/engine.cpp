#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <utility>

#include "obs/journal.hpp"
#include "obs/live.hpp"

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
  // would break the queue's strict weak ordering.
  if (!(t >= now_)) throw std::invalid_argument("Engine::schedule: time in the past or NaN");
  const std::uint32_t idx = claim(t, std::move(cb), daemon);
  const Slot& s = slot(idx);
  push(Node{t, s.seq, idx});
  return EventHandle{handle_id(idx, s.gen)};
}

void Engine::push(const Node& n) {
  ++queued_;
  const std::uint64_t k = key(n.time);
  if (k > last_) {
    std::uint32_t i = free_;
    if (i != kNil) {
      free_ = pool_[i].next;
      pool_[i].node = n;
    } else {
      i = static_cast<std::uint32_t>(pool_.size());
      pool_.push_back(Pooled{n, kNil});
    }
    link(i, k);
    return;
  }
  // At or below the radix point.  Same-instant schedules draw increasing
  // seqs, so the node almost always belongs at the back.  A key below
  // `last_` arrives only after a refill that fired nothing (a peek, a window
  // edge, or a bucket whose smallest key was debris or a stand-in), and is
  // inserted at its sorted position.
  const auto front = near_.begin() + static_cast<std::ptrdiff_t>(near_head_);
  if (front == near_.end() || !before(n, near_.back())) {
    near_.push_back(n);
    return;
  }
  const auto at = std::upper_bound(front, near_.end(), n, before);
  if (at == front && near_head_ > 0) {
    near_[--near_head_] = n;
    return;
  }
  near_.insert(at, n);
}

void Engine::link(std::uint32_t i, std::uint64_t k) {
  const int b = std::bit_width(k ^ last_) - 1;
  Bucket& bucket = buckets_[b];
  pool_[i].next = kNil;
  if (mask_ >> b & 1) {
    pool_[bucket.tail].next = i;
    bucket.min = std::min(bucket.min, k);
  } else {
    bucket.head = i;
    bucket.min = k;
    mask_ |= std::uint64_t{1} << b;
  }
  bucket.tail = i;
}

void Engine::refill() {
  assert(near_.empty() && mask_ != 0);
  const Bucket& bucket = buckets_[std::countr_zero(mask_)];
  mask_ &= mask_ - 1;
  last_ = bucket.min;
  // Every other node of the bucket agrees with the new radix point above
  // the bucket's bit, so it drops to a strictly lower bucket.
  bool sorted = true;
  for (std::uint32_t i = bucket.head; i != kNil;) {
    Pooled& p = pool_[i];
    const std::uint32_t next = p.next;
    const std::uint64_t k = key(p.node.time);
    if (k == last_) {
      sorted = sorted && (near_.empty() || before(near_.back(), p.node));
      near_.push_back(p.node);
      p.next = free_;
      free_ = i;
    } else {
      link(i, k);
    }
    i = next;
  }
  // One instant, so this orders by seq: needed only when a re-keyed
  // stand-in was filed behind younger nodes of its instant.
  if (!sorted) std::sort(near_.begin(), near_.end(), before);
}

void Engine::pop_near() {
  --queued_;
  if (++near_head_ == near_.size()) {
    near_.clear();
    near_head_ = 0;
  }
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
  // Debris stays in the queue (lazy deletion); once it dominates, one O(n)
  // compaction keeps pops from wading through it.
  if (++debris_ > 64 && debris_ * 2 > queued_) compact();
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
  push(Node{t, s.seq, idx});
  add_debris();
  return true;
}

void Engine::compact() {
  // In place: the near run stays sorted and each bucket keeps its FIFO
  // order.  Stand-ins stay too; they are re-keyed when they surface.
  const auto debris = [this](const Node& n) { return n.seq != slot(n.slot).stamp; };
  std::size_t kept = 0;
  for (std::size_t i = near_head_; i < near_.size(); ++i)
    if (!debris(near_[i])) near_[kept++] = near_[i];
  near_.resize(kept);
  near_head_ = 0;
  for (std::uint64_t m = mask_; m != 0; m &= m - 1) {
    const int b = std::countr_zero(m);
    std::uint32_t i = buckets_[b].head;
    mask_ &= ~(std::uint64_t{1} << b);
    while (i != kNil) {
      const std::uint32_t next = pool_[i].next;
      if (debris(pool_[i].node)) {
        pool_[i].next = free_;
        free_ = i;
      } else {
        link(i, key(pool_[i].node.time));  // back into bucket b
      }
      i = next;
    }
  }
  queued_ -= debris_;
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

const Engine::Node* Engine::head(Lane*& lane) {
  const Node* best = nullptr;
  lane = nullptr;
  for (std::size_t i = 0; i < n_lanes_; ++i) {
    Lane& l = lanes_[i];
    if (l.size != 0 && (!best || before(l.front(), *best))) {
      best = &l.front();
      lane = &l;
    }
  }
  // Settle the queue only while its floor could precede the lane head: a
  // refill run ahead of `now_` would push the next schedules below the
  // radix point, into the near run.
  for (;;) {
    if (near_.empty()) {
      if (mask_ == 0) return best;
      if (best && key(best->time) < buckets_[std::countr_zero(mask_)].min) return best;
      refill();
    }
    const Node front = near_[near_head_];
    if (best && before(*best, front)) return best;
    Slot& s = slot(front.slot);
    if (front.seq == s.seq) {  // an event at its true key
      lane = nullptr;
      return &near_[near_head_];
    }
    pop_near();
    if (front.seq == s.stamp) {
      // Stands in for an event moved later: re-key it.  Not a step — the
      // clock and steps_ stay put.
      s.stamp = s.seq;
      push(Node{s.time, s.seq, front.slot});
    } else {
      --debris_;
    }
  }
}

void Engine::fire_head(Lane* lane) {
  const Node n = lane ? lane->front() : near_[near_head_];
  if (lane) {
    lane->pop();
  } else {
    pop_near();
  }
  fire(n);
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
