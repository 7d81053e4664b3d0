#include "sim/fluid.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/dary_heap.hpp"

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

FluidResource::FluidResource(Engine& engine, Config config)
    : engine_(engine), config_(config), last_update_(engine.now()) {
  if (config_.capacity <= 0.0) throw std::invalid_argument("FluidResource: capacity must be > 0");
  if (config_.per_stream_cap < 0.0 || config_.alpha < 0.0)
    throw std::invalid_argument("FluidResource: negative parameter");
}

FluidResource::~FluidResource() { disarm(); }

double FluidResource::stream_rate() const {
  const std::size_t n = active_streams();
  if (n == 0) return 0.0;
  const double usable = config_.capacity * factor_ * efficiency(config_.alpha, n);
  double rate = usable / static_cast<double>(n);
  if (config_.per_stream_cap > 0.0) rate = std::min(rate, config_.per_stream_cap);
  return rate;
}

double FluidResource::total_rate() const {
  return stream_rate() * static_cast<double>(active_streams());
}

double FluidResource::done_threshold() const {
  return kEpsilonBytes + stream_rate() * kEpsilonSeconds;
}

FluidResource::StreamId FluidResource::start(double bytes, OnComplete on_complete) {
  // Negated so NaN is rejected too, before any state changes.
  if (!(bytes >= 0.0)) throw std::invalid_argument("FluidResource::start: negative or NaN bytes");
  advance();
  const StreamId id = next_id_++;
  const double v_finish = vwork_ + bytes;
  if (!solo_ && streams_.empty() && heap_.empty()) {
    // First stream on an idle resource: keep it in the inline slot.
    solo_ = true;
    solo_id_ = id;
    solo_v_finish_ = v_finish;
    solo_cb_ = std::move(on_complete);
    reschedule();
    return id;
  }
  if (solo_) demote_solo();
  if (spare_nodes_.empty()) {
    streams_.emplace(id, Stream{v_finish, std::move(on_complete)});
  } else {
    auto node = std::move(spare_nodes_.back());
    spare_nodes_.pop_back();
    node.key() = id;
    node.mapped() = Stream{v_finish, std::move(on_complete)};
    streams_.insert(std::move(node));
  }
  dheap_push(heap_, HeapEntry{v_finish, id}, heap_before);
  reschedule();
  return id;
}

void FluidResource::demote_solo() {
  // The solo stream takes the map/heap slots it would have taken had it been
  // started through the general path — same insertion order, same heap
  // layout, same tie-breaking as a build without the fast path.
  solo_ = false;
  if (spare_nodes_.empty()) {
    streams_.emplace(solo_id_, Stream{solo_v_finish_, std::move(solo_cb_)});
  } else {
    auto node = std::move(spare_nodes_.back());
    spare_nodes_.pop_back();
    node.key() = solo_id_;
    node.mapped() = Stream{solo_v_finish_, std::move(solo_cb_)};
    streams_.insert(std::move(node));
  }
  solo_cb_ = OnComplete{};
  dheap_push(heap_, HeapEntry{solo_v_finish_, solo_id_}, heap_before);
}

bool FluidResource::abort(StreamId id) {
  advance();
  if (solo_) {
    if (id != solo_id_) return false;
    solo_ = false;
    solo_cb_ = OnComplete{};
    reschedule();
    return true;
  }
  auto node = streams_.extract(id);
  const bool erased = !node.empty();
  if (erased) {
    // Drop the callback now — an aborted stream's captures must not outlive
    // the abort just because the node is parked for reuse.
    node.mapped().on_complete = OnComplete{};
    spare_nodes_.push_back(std::move(node));
  }
  // The heap entry stays behind (lazy deletion): stream ids are never
  // reused, so an entry whose id is absent from the map is skipped when it
  // surfaces, and all debris is dropped at the next idle rebase.
  if (erased) reschedule();
  return erased;
}

void FluidResource::set_capacity_factor(double factor) {
  if (factor < 0.0) throw std::invalid_argument("FluidResource: negative capacity factor");
  advance();
  factor_ = factor;
  reschedule();
}

double FluidResource::remaining(StreamId id) const {
  double v_finish = 0.0;
  if (solo_) {
    if (id != solo_id_) return 0.0;
    v_finish = solo_v_finish_;
  } else {
    const auto it = streams_.find(id);
    if (it == streams_.end()) return 0.0;
    v_finish = it->second.v_finish;
  }
  // Account for virtual work accrued since the last state change without
  // mutating, then apply the same completion tolerance fire() uses: a stream
  // the scheduler would complete "now" reports zero, not a sub-epsilon crumb.
  const double v_now = vwork_ + stream_rate() * (engine_.now() - last_update_);
  const double rem = v_finish - v_now;
  if (rem <= done_threshold()) return 0.0;
  return rem;
}

void FluidResource::advance() {
  const Time now = engine_.now();
  const double dt = now - last_update_;
  last_update_ = now;
  if (dt <= 0.0 || active_streams() == 0) return;
  // The whole point of the virtual clock: every active stream shares one
  // instantaneous rate, so one multiply-add moves all of them at once.
  vwork_ += stream_rate() * dt;
}

double FluidResource::min_v_finish() {
  if (solo_) return solo_v_finish_;
  while (!heap_.empty()) {
    const HeapEntry& top = heap_.front();
    if (streams_.count(top.id) != 0) return top.v_finish;
    dheap_pop(heap_, heap_before);  // aborted stream: lazy deletion
  }
  return std::numeric_limits<double>::infinity();
}

void FluidResource::reschedule() {
  if (!solo_ && streams_.empty()) {
    // Idle rebase: with no streams the virtual clock is unobservable, so
    // reset it to zero and drop any aborted debris still in the heap.  This
    // bounds the clock's magnitude — and hence its floating-point error —
    // by the longest busy period, not the whole run.
    vwork_ = 0.0;
    heap_.clear();
    disarm();
    return;
  }

  const double min_remaining = min_v_finish() - vwork_;
  if (min_remaining <= done_threshold()) {
    arm(0.0);
    return;
  }
  const double rate = stream_rate();
  if (rate <= 0.0) {
    disarm();  // frozen; re-armed on the next state change
    return;
  }
  arm(min_remaining / rate);
}

void FluidResource::arm(double delay) {
  // Re-timing in place keeps the event's slot and callback.
  const Time t = engine_.now() + delay;
  if (pending_.valid() && engine_.rearm(pending_, t, false)) return;
  pending_ = engine_.schedule_at(t, [this] { fire(); });
}

void FluidResource::disarm() {
  if (!pending_.valid()) return;
  engine_.cancel(pending_);
  pending_ = EventHandle{};
}

void FluidResource::fire() {
  pending_ = EventHandle{};
  advance();
  if (solo_) {
    // Solo completion: no heap to pop, no map node to extract.  The epsilon
    // design guarantees the scheduled completion lands within tolerance.
    assert(solo_v_finish_ - vwork_ <= done_threshold());
    OnComplete cb = std::move(solo_cb_);
    solo_ = false;
    solo_cb_ = OnComplete{};
    reschedule();  // idle rebase, same ordering as the batch path below
    if (cb) cb(engine_.now());
    return;
  }
  // Collect completions first: callbacks may start new streams on this
  // resource, and must observe a consistent stream set.  Completions pop
  // off the heap in (finish work, start order) — exact ties complete FIFO.
  const double threshold = done_threshold();
  // The batch lives in a member scratch vector so steady-state completions
  // reuse its capacity.  Callbacks may start new streams (which touches
  // streams_/heap_ but not the scratch); fire() itself never re-enters — it
  // only runs from engine events.
  std::vector<OnComplete>& done = done_scratch_;
  done.clear();
  while (!heap_.empty()) {
    const HeapEntry top = heap_.front();
    const auto it = streams_.find(top.id);
    if (it == streams_.end()) {  // aborted stream: lazy deletion
      dheap_pop(heap_, heap_before);
      continue;
    }
    if (top.v_finish - vwork_ > threshold) break;
    dheap_pop(heap_, heap_before);
    done.push_back(std::move(it->second.on_complete));
    auto node = streams_.extract(it);
    node.mapped().on_complete = OnComplete{};
    spare_nodes_.push_back(std::move(node));
  }
  assert(!done.empty());
  reschedule();
  const Time now = engine_.now();
  for (auto& cb : done)
    if (cb) cb(now);
}

}  // namespace aio::sim
