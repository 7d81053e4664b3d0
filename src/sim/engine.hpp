// Discrete-event simulation engine.
//
// The engine owns a time-ordered queue of one-shot events.  Events scheduled
// for the same instant fire in scheduling order, which makes every simulation
// built on top of the engine fully deterministic for a fixed seed.  Events
// can be cancelled through the handle returned at scheduling time.
//
// Hot-path layout: the queue is a hand-rolled 4-ary min-heap over 16-byte
// POD nodes (all four children of a node share one cache line); callbacks
// and each event's true (time, seq) key live out-of-band in a
// generation-tagged slot table (`Slot`).  Cancellation frees the slot at
// once — no hashing, no heap surgery — and `rearm` re-times a pending event
// in place, keeping its slot, callback and handle.  A heap node whose seq
// differs from its slot's stamp is debris, skipped when it surfaces; a node
// standing in for an event moved later is re-pushed at the true key when it
// surfaces.  The callback type is `InplaceFunction` (96-byte small-buffer
// optimization), so every hot-path capture — up to a full protocol message
// plus its routing state — never touches the allocator.  When more than
// half the heap is debris the heap is compacted in one O(n) pass.
//
// Events come in two kinds: *normal* events represent work the simulation is
// waiting for; *daemon* events represent perpetual background processes
// (interference resampling, telemetry).  `run()` stops once no normal events
// remain, so daemons never keep a simulation alive on their own.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/inplace_function.hpp"

namespace aio::obs {
class Registry;
class Journal;
class LivePlane;
}  // namespace aio::obs

namespace aio::sim {

/// Simulated time in seconds since the start of the run.
using Time = double;

/// Identifies a scheduled event for cancellation.  A default-constructed
/// handle is invalid and cancelling it is a harmless no-op.
class EventHandle {
 public:
  EventHandle() = default;
  [[nodiscard]] bool valid() const { return id_ != 0; }

 private:
  friend class Engine;
  explicit EventHandle(std::uint64_t id) : id_(id) {}
  std::uint64_t id_ = 0;
};

class Engine {
 public:
  // 96 bytes of SBO: sized for the widest hot-path captures in the stack —
  // a protocol deliver closure holding a shared_ptr to the run, a
  // destination rank, and a 56-byte `core::Message` (see
  // net::Network::Deliver, which aliases this type so sends move into the
  // queue without re-wrapping), and the OST's op-latency wrapper around an
  // 80-byte fs completion callback.
  using Callback = InplaceFunction<void(), 96>;

  /// An engine optionally carries observability hooks: a metrics registry,
  /// a run journal, and a live telemetry plane, all null by default.
  /// Everything built on top of the engine (file system, transports, MDS)
  /// reaches them through `metrics()` / `journal()` / `live()`, so one
  /// injection point instruments the whole stack and a null pointer keeps
  /// every layer on its unobserved fast path.
  explicit Engine(obs::Registry* metrics = nullptr, obs::Journal* journal = nullptr,
                  obs::LivePlane* live = nullptr)
      : metrics_(metrics), journal_(journal), live_plane_(live) {}
  /// Forwards to the form above, dropping a leading null.  Its only caller is
  /// perf/aio_perf.cpp's ClassicRig (`engine(nullptr, nullptr, journal,
  /// live)`), which may change only together with the benchmark definition.
  Engine(std::nullptr_t, obs::Registry* metrics, obs::Journal* journal, obs::LivePlane* live)
      : Engine(metrics, journal, live) {}

  [[nodiscard]] obs::Registry* metrics() const { return metrics_; }
  [[nodiscard]] obs::Journal* journal() const { return journal_; }
  [[nodiscard]] obs::LivePlane* live() const { return live_plane_; }
  /// True when a journal or live plane is attached — the one-load gate the
  /// record-emitting hot paths (Ost::recompute) test per call.
  [[nodiscard]] bool observing_records() const { return journal_ || live_plane_; }
  void set_journal(obs::Journal* journal) { journal_ = journal; }
  void set_live(obs::LivePlane* live) { live_plane_ = live; }

  /// Current simulated time.  Starts at zero.
  [[nodiscard]] Time now() const { return now_; }

  /// Number of events executed so far.
  [[nodiscard]] std::size_t steps() const { return steps_; }

  /// Number of events scheduled and not yet fired or cancelled.
  [[nodiscard]] std::size_t pending() const { return live_; }

  /// Number of pending non-daemon events.
  [[nodiscard]] std::size_t pending_normal() const { return normal_pending_; }

  /// Schedules `cb` to run at absolute time `t`.  `t` must not lie in the
  /// past (a past or NaN `t` throws std::invalid_argument); scheduling "now"
  /// is allowed and fires after already-queued events at the same instant.
  EventHandle schedule_at(Time t, Callback cb) { return schedule(t, std::move(cb), false); }

  /// Schedules `cb` to run `delay` seconds from now (delay >= 0).
  EventHandle schedule_after(Time delay, Callback cb) {
    return schedule(now_ + delay, std::move(cb), false);
  }

  /// Daemon variants: these events fire in time order like any other, but do
  /// not keep `run()` alive once all normal events have drained.
  EventHandle schedule_daemon_at(Time t, Callback cb) { return schedule(t, std::move(cb), true); }
  EventHandle schedule_daemon_after(Time delay, Callback cb) {
    return schedule(now_ + delay, std::move(cb), true);
  }

  /// Cancels a pending event.  Returns true if the event existed and had not
  /// yet fired.
  bool cancel(EventHandle h);

  /// Moves a pending event to absolute time `t` (not in the past) as a
  /// normal or daemon event, keeping its callback and handle.  Fires in
  /// exactly the order a cancel followed by a fresh schedule of the same
  /// callback would.  Returns false (and changes nothing) if the event has
  /// already fired or been cancelled.
  bool rearm(EventHandle h, Time t, bool daemon);

  /// Runs events until no normal events remain.  Returns the number of
  /// events executed by this call (daemons included).
  std::size_t run();

  /// Like run(), but executes at most `max_steps` events.  A return value
  /// equal to `max_steps` with `pending_normal() > 0` means the budget ran
  /// out before the simulation drained (watchdog tripped).
  std::size_t run(std::size_t max_steps);

  /// Runs events with time <= `t` (normal or daemon), then advances the
  /// clock to exactly `t`.  Returns the number of events executed.
  std::size_t run_until(Time t);

  /// Runs events with time strictly < `t` and leaves the clock at the last
  /// event fired (never advanced to `t`).  This is the sharded window step:
  /// a shard executes everything inside [W, W + lookahead) and must still be
  /// able to accept boundary messages scheduled at exactly `t`.
  std::size_t run_before(Time t);

  /// Timestamp of the earliest pending event (normal or daemon), or +inf
  /// when the queue is empty.  Settles the head as a side effect (drops
  /// debris, re-keys moved events), so the answer is exact, not a bound.
  [[nodiscard]] Time next_event_time();

 private:
  // A heap node carries everything the ordering needs; the callback stays in
  // the slot table so heap moves shuffle 16 POD bytes, not a closure.  Every
  // seq is issued once, so a node is identified by its seq alone: it stands
  // for its slot's event while `seq == Slot::stamp`, and is debris otherwise
  // (the event fired, was cancelled, or was moved earlier past it).
  struct Node {
    Time time;
    std::uint32_t seq;  // tie-break: FIFO among same-time events (wrapping)
    std::uint32_t slot;
  };
  // Two cache lines, aligned, so settling and firing an event touch only its
  // own slot.  `no_unique_address` lets the key fields sit in the callback's
  // tail padding; without it the slot would spill into a third line.
  struct alignas(64) Slot {
    [[no_unique_address]] Callback cb;
    Time time = 0.0;          // the event's true key: (time, seq)
    std::uint32_t seq = 0;
    std::uint32_t stamp = 0;  // seq of the heap node standing for this event
    std::uint32_t gen = 1;    // bumped on fire/cancel, invalidating old handles
    bool daemon = false;
  };
  static_assert(sizeof(Slot) == 128, "Slot must stay two cache lines");

  static bool before(const Node& a, const Node& b) {
    if (a.time != b.time) return a.time < b.time;
    // Wrap-safe circular compare: FIFO is exact as long as two same-time
    // events never straddle 2^31 intervening schedules, far beyond any run
    // here (the bench watchdog trips orders of magnitude earlier).
    return static_cast<std::int32_t>(a.seq - b.seq) < 0;
  }
  static std::uint64_t handle_id(std::uint32_t slot, std::uint32_t gen) {
    // slot+1 in the high half keeps every issued id nonzero.
    return (static_cast<std::uint64_t>(slot) + 1) << 32 | gen;
  }

  [[nodiscard]] Slot& slot(std::uint32_t i) { return slots_[i]; }
  [[nodiscard]] const Slot& slot(std::uint32_t i) const { return slots_[i]; }

  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  EventHandle schedule(Time t, Callback cb, bool daemon);
  [[nodiscard]] std::uint32_t pending_slot(EventHandle h) const;  // kNoSlot if fired/cancelled
  void release(std::uint32_t slot);  // frees a fired or cancelled slot, maintaining counters
  void add_debris();                 // counts one more debris node; compacts when dominant
  void compact();                    // drops debris, re-keys stand-ins, re-heapifies
  void fire(const Node& n);  // advances the clock to a live node and runs its callback
  bool settle();     // pops until the head is an event at its true key; false if empty
  void fire_head();  // pops and fires a settled head
  bool pop_one();    // fires the next pending event; false if queue empty
  static bool heartbeat_enabled();

  std::vector<Node> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t debris_ = 0;  // heap nodes standing for no event
  std::size_t live_ = 0;
  Time now_ = 0.0;
  std::uint32_t next_seq_ = 0;
  std::size_t steps_ = 0;
  std::size_t normal_pending_ = 0;
  bool heartbeat_ = heartbeat_enabled();
  obs::Registry* metrics_ = nullptr;
  obs::Journal* journal_ = nullptr;
  obs::LivePlane* live_plane_ = nullptr;
};

}  // namespace aio::sim
