#include "sim/fluid.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace aio::sim {

namespace {
// Completion tolerance: streams within this many bytes of done are finished.
// Guards against floating-point drift ever stalling a completion event.
constexpr double kEpsilonBytes = 1e-6;
// Time tolerance: residual work that would take less than this long at the
// current rate counts as done.  Without it, a residue that drains in less
// than one ulp of simulated time (e.g. 1e-6 B at 10 GB/s near t=2.5) would
// reschedule a zero-advance event forever.  The rate-scaled term also covers
// the ulp growth of the virtual-work clock itself: the clock's absolute error
// stays within a few ulps of rate * busy-period, which this term dominates.
constexpr double kEpsilonSeconds = 1e-9;
}  // namespace

FluidResource::FluidResource(Engine& engine, Config config, std::size_t n_links)
    : engine_(engine), config_(config) {
  // Negated so NaN is rejected too.
  if (!(config_.capacity > 0.0)) throw std::invalid_argument("FluidResource: capacity must be > 0");
  if (config_.per_stream_cap < 0.0 || config_.alpha < 0.0)
    throw std::invalid_argument("FluidResource: negative parameter");
  Link idle;
  idle.last_update = engine.now();
  links_.assign(n_links, idle);
}

FluidResource::~FluidResource() {
  for (Link& l : links_) disarm(l);
}

double FluidResource::stream_rate(const Link& l) const {
  const std::size_t n = l.active;
  if (n == 0) return 0.0;
  const double usable = config_.capacity * l.factor * efficiency(config_.alpha, n);
  double rate = usable / static_cast<double>(n);
  if (config_.per_stream_cap > 0.0) rate = std::min(rate, config_.per_stream_cap);
  return rate;
}

double FluidResource::done_threshold(const Link& l) const {
  return kEpsilonBytes + stream_rate(l) * kEpsilonSeconds;
}

FluidResource::StreamId FluidResource::start(std::size_t link, double bytes,
                                             OnComplete on_complete) {
  // Negated so NaN is rejected too, before any state changes.
  if (!(bytes >= 0.0)) throw std::invalid_argument("FluidResource::start: negative or NaN bytes");
  Link& l = links_.at(link);
  std::uint32_t i = free_;
  if (i == kNone) {
    if (slots_.size() == kMaxSlots) throw std::length_error("FluidResource: too many streams");
    i = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    free_ = slots_[i].next;
  }
  advance(l);
  const StreamId id = (next_start_++ << kSlotBits) | i;
  Slot& s = slots_[i];
  s.on_complete = std::move(on_complete);
  s.v_finish = l.vwork + bytes;
  s.id = id;
  s.link = static_cast<std::uint32_t>(link);
  s.child = kNone;
  s.live = true;
  l.top = l.top == kNone ? i : meld(l.top, i);
  ++l.active;
  reschedule(static_cast<std::uint32_t>(link));
  return id;
}

std::uint32_t FluidResource::meld(std::uint32_t a, std::uint32_t b) {
  if (before(b, a)) std::swap(a, b);
  slots_[b].next = slots_[a].child;
  slots_[a].child = b;
  return a;
}

std::uint32_t FluidResource::pop(Link& l) {
  // Two-pass pairing: meld the root's children in pairs left to right,
  // stacking each pair through `next`, then fold the stack right to left.
  const std::uint32_t top = l.top;
  std::uint32_t stack = kNone;
  for (std::uint32_t a = slots_[top].child; a != kNone;) {
    const std::uint32_t b = slots_[a].next;
    const std::uint32_t rest = b == kNone ? kNone : slots_[b].next;
    const std::uint32_t pair = b == kNone ? a : meld(a, b);
    slots_[pair].next = stack;
    stack = pair;
    a = rest;
  }
  std::uint32_t root = kNone;
  while (stack != kNone) {
    const std::uint32_t below = slots_[stack].next;
    root = root == kNone ? stack : meld(stack, root);
    stack = below;
  }
  l.top = root;
  return top;
}

void FluidResource::release(std::uint32_t slot) {
  slots_[slot].next = free_;
  free_ = slot;
}

std::uint32_t FluidResource::live_slot(StreamId id) const {
  const auto i = static_cast<std::uint32_t>(id & (kMaxSlots - 1));
  return i < slots_.size() && slots_[i].live && slots_[i].id == id ? i : kNone;
}

bool FluidResource::abort(StreamId id) {
  const std::uint32_t i = live_slot(id);
  if (i == kNone) return false;
  Slot& s = slots_[i];
  Link& l = links_[s.link];
  advance(l);
  // Drop the callback now — an aborted stream's captures must not outlive
  // the abort just because its slot waits in the heap.  The slot keeps its
  // key and is freed when it surfaces (lazy deletion) or at the next idle
  // rebase.
  s.on_complete = OnComplete{};
  s.live = false;
  --l.active;
  reschedule(s.link);
  return true;
}

void FluidResource::set_capacity_factor(std::size_t link, double factor) {
  if (factor < 0.0) throw std::invalid_argument("FluidResource: negative capacity factor");
  Link& l = links_.at(link);
  advance(l);
  l.factor = factor;
  reschedule(static_cast<std::uint32_t>(link));
}

double FluidResource::remaining(StreamId id) const {
  const std::uint32_t i = live_slot(id);
  if (i == kNone) return 0.0;
  const Link& l = links_[slots_[i].link];
  // Account for virtual work accrued since the last state change without
  // mutating, then apply the same completion tolerance fire() uses: a stream
  // the scheduler would complete "now" reports zero, not a sub-epsilon crumb.
  const double v_now = l.vwork + stream_rate(l) * (engine_.now() - l.last_update);
  const double rem = slots_[i].v_finish - v_now;
  if (rem <= done_threshold(l)) return 0.0;
  return rem;
}

void FluidResource::advance(Link& l) {
  const Time now = engine_.now();
  const double dt = now - l.last_update;
  l.last_update = now;
  if (dt <= 0.0 || l.active == 0) return;
  // The whole point of the virtual clock: every active stream shares one
  // instantaneous rate, so one multiply-add moves all of them at once.
  l.vwork += stream_rate(l) * dt;
}

void FluidResource::reschedule(std::uint32_t link) {
  Link& l = links_[link];
  if (l.active == 0) {
    // Idle rebase: with no streams the virtual clock is unobservable, so
    // reset it to zero and free any aborted slots still in the heap.  This
    // bounds the clock's magnitude — and hence its floating-point error —
    // by the longest busy period, not the whole run.
    l.vwork = 0.0;
    while (l.top != kNone) release(pop(l));
    disarm(l);
    return;
  }
  while (!slots_[l.top].live) release(pop(l));  // aborted: lazy deletion
  const double min_remaining = slots_[l.top].v_finish - l.vwork;
  if (min_remaining <= done_threshold(l)) {
    arm(link, 0.0);
    return;
  }
  const double rate = stream_rate(l);
  if (rate <= 0.0) {
    disarm(l);  // frozen; re-armed on the next state change
    return;
  }
  arm(link, min_remaining / rate);
}

void FluidResource::arm(std::uint32_t link, double delay) {
  // Re-timing in place keeps the event's slot and callback.
  Link& l = links_[link];
  const Time t = engine_.now() + delay;
  if (l.pending.valid() && engine_.rearm(l.pending, t, false)) return;
  l.pending = engine_.schedule_at(t, [this, link] { fire(link); });
}

void FluidResource::disarm(Link& l) {
  if (!l.pending.valid()) return;
  engine_.cancel(l.pending);
  l.pending = EventHandle{};
}

void FluidResource::fire(std::uint32_t link) {
  Link& l = links_[link];
  l.pending = EventHandle{};
  advance(l);
  // Collect completions first: callbacks may start new streams on this
  // resource, and must observe a consistent stream set.  Completions pop
  // off the heap in (finish work, start order) — exact ties complete FIFO.
  // The batch is chained through the slots' `next`, and its slots stay off
  // the free list until their callbacks have been moved out.  fire() never
  // re-enters: it only runs from engine events.
  const double threshold = done_threshold(l);
  std::uint32_t batch = kNone;
  std::uint32_t* tail = &batch;
  while (l.top != kNone) {
    const Slot& top = slots_[l.top];
    if (top.live && top.v_finish - l.vwork > threshold) break;
    const std::uint32_t i = pop(l);
    if (!slots_[i].live) {  // aborted stream: lazy deletion
      release(i);
      continue;
    }
    slots_[i].live = false;
    --l.active;
    *tail = i;
    tail = &slots_[i].next;
  }
  *tail = kNone;
  assert(batch != kNone);
  reschedule(link);
  // Each callback leaves its slot before it runs, so a stream it starts may
  // reuse the slot (and grow the slab) without touching the rest of the batch.
  const Time now = engine_.now();
  while (batch != kNone) {
    const std::uint32_t i = batch;
    batch = slots_[i].next;
    OnComplete cb = std::move(slots_[i].on_complete);
    release(i);
    if (cb) cb(now);
  }
}

}  // namespace aio::sim
