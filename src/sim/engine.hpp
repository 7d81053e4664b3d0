// Discrete-event simulation engine.
//
// The engine owns a time-ordered queue of one-shot events.  Events scheduled
// for the same instant fire in scheduling order, which makes every simulation
// built on top of the engine fully deterministic for a fixed seed.  Events
// can be cancelled through the handle returned at scheduling time.
//
// Hot-path layout: the queue is a monotone radix queue (Ahuja, Mehlhorn,
// Orlin and Tarjan, J. ACM 1990) over 16-byte POD nodes keyed (time, seq);
// callbacks and each event's true key live out-of-band in a
// generation-tagged slot table (`Slot`).  Engine time never decreases, so
// the queue keeps a radix point `last_`, the time key of its last refill.
// Nodes keyed at or below it form the *near run*, sorted by (time, seq) and
// read from its front; a node keyed above it sits in bucket b, the highest
// bit in which its time key differs from `last_`.  A push appends to a
// bucket or to the near run's back in O(1); only a key below `last_`, left
// behind by a refill that fired nothing (a peek, say), is inserted at its
// sorted position.  When the near run empties, the lowest non-empty bucket
// is split around its smallest key: the nodes at that key become the near
// run, the rest drop to strictly lower buckets, so no node moves more than
// 64 times.  The work is in ties: a `jaguar_224k` repetition pops about
// 899K queue nodes on only 2,363 distinct instants, so the near run hands
// out each same-instant batch in seq order without a comparison.
//
// Cancellation frees the slot at once — no hashing, no queue surgery — and
// `rearm` re-times a pending event in place, keeping its slot, callback and
// handle.  A queue node whose seq differs from its slot's stamp is debris,
// dropped when it surfaces; a node standing in for an event moved later is
// re-pushed at the true key when it surfaces.  The callback type is
// `InplaceFunction` (96-byte small-buffer optimization), so every hot-path
// capture — up to a full protocol message plus its routing state — never
// touches the allocator.  When more than half the queue is debris it is
// compacted in place.
//
// Fixed-delay lanes: `schedule_fixed(d, cb)` skips the queue.  It appends a
// node to a FIFO ring kept for that exact `d`, pointing into the same slot
// table.  `now_` never decreases, adding a fixed `d` is monotone, and seqs
// come from the one counter, so each lane is already in (time, seq) order.
// Dispatch fires the smallest key among the queue's head and the lane heads:
// the event a single queue holding every node would fire.  The queue is
// settled lazily: its radix point moves only when its floor could precede
// the earliest lane head, so lane events firing ahead of a later bucket
// leave it near `now_`.  Network deliveries and OST op-latency completions
// ride the lanes.
//
// Events come in two kinds: *normal* events represent work the simulation is
// waiting for; *daemon* events represent perpetual background processes
// (interference resampling, telemetry).  `run()` stops once no normal events
// remain, so daemons never keep a simulation alive on their own.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/inplace_function.hpp"

namespace aio::obs {
struct Record;
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

  /// An engine optionally carries two observability hooks, both null by
  /// default: a run journal and a live telemetry plane.  Everything built on
  /// top of the engine (file system, transports, MDS) emits through
  /// `record()`, so one injection point instruments the whole stack and a
  /// null pair keeps every layer on its unobserved fast path.
  explicit Engine(obs::Journal* journal = nullptr, obs::LivePlane* live = nullptr)
      : journal_(journal), live_plane_(live) {}
  /// Forwards to the form above, dropping two leading nulls.  Its only caller
  /// is perf/aio_perf.cpp's ClassicRig (`engine(nullptr, nullptr, journal,
  /// live)`), which may change only together with the benchmark definition.
  Engine(std::nullptr_t, std::nullptr_t, obs::Journal* journal, obs::LivePlane* live)
      : Engine(journal, live) {}

  [[nodiscard]] obs::Journal* journal() const { return journal_; }
  /// True when a journal or live plane is attached — the one-load gate the
  /// record-emitting hot paths (Ost::recompute) test per call.
  [[nodiscard]] bool observing_records() const { return journal_ || live_plane_; }
  void set_journal(obs::Journal* journal) { journal_ = journal; }
  /// Appends `r` to the attached journal and feeds it to the attached live
  /// plane: the stack's one emission path.  Callers gate on
  /// `observing_records()` before building the record.
  void record(const obs::Record& r);

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

  /// Fires exactly where `schedule_after(delay, cb)` would, from the FIFO
  /// lane kept for this `delay` instead of the queue.  No handle: a lane
  /// event cannot be cancelled or re-timed, so a lane never holds debris.
  /// A NaN or negative `delay` throws std::invalid_argument.  The first
  /// `kMaxLanes` distinct delays get a lane; later ones use the queue.
  void schedule_fixed(Time delay, Callback cb);
  static constexpr std::size_t kMaxLanes = 4;

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
  // A queue node carries everything the ordering needs; the callback stays
  // in the slot table so queue moves shuffle 16 POD bytes, not a closure.
  // Every seq is issued once, so a node is identified by its seq alone: it
  // stands for its slot's event while `seq == Slot::stamp`, and is debris
  // otherwise (the event fired, was cancelled, or was moved earlier past it).
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
    std::uint32_t stamp = 0;  // seq of the queue node standing for this event
    std::uint32_t gen = 1;    // bumped on fire/cancel, invalidating old handles
    bool daemon = false;
  };
  static_assert(sizeof(Slot) == 128, "Slot must stay two cache lines");
  // The nodes of events scheduled `delay` after their scheduling instant, in
  // firing order.  A power-of-two ring, so a warm lane never allocates.
  struct Lane {
    Time delay = 0.0;
    std::vector<Node> ring;
    std::size_t head = 0;  // index of the front node
    std::size_t size = 0;

    [[nodiscard]] const Node& front() const { return ring[head]; }
    void pop() {
      head = (head + 1) & (ring.size() - 1);
      --size;
    }
    void push(const Node& n);
  };

  static bool before(const Node& a, const Node& b) {
    if (a.time != b.time) return a.time < b.time;
    // Wrap-safe circular compare: FIFO is exact as long as two same-time
    // events never straddle 2^31 intervening schedules, far beyond any run
    // here (the bench watchdog trips orders of magnitude earlier).
    return static_cast<std::int32_t>(a.seq - b.seq) < 0;
  }
  // A time's IEEE-754 bits: for non-negative doubles bit order is numeric
  // order, and `+ 0.0` folds -0.0 into +0.0.
  static std::uint64_t key(Time t) { return std::bit_cast<std::uint64_t>(t + 0.0); }
  static std::uint64_t handle_id(std::uint32_t slot, std::uint32_t gen) {
    // slot+1 in the high half keeps every issued id nonzero.
    return (static_cast<std::uint64_t>(slot) + 1) << 32 | gen;
  }

  [[nodiscard]] Slot& slot(std::uint32_t i) { return slots_[i]; }
  [[nodiscard]] const Slot& slot(std::uint32_t i) const { return slots_[i]; }

  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};  // end of a pool chain

  // A bucket node: pooled, so a warm queue never allocates whichever bucket
  // a key lands in.
  struct Pooled {
    Node node;
    std::uint32_t next;  // the next node of its bucket, or of the free list
  };
  struct Bucket {
    std::uint32_t head = kNil;  // FIFO chain through Pooled::next
    std::uint32_t tail = kNil;
    std::uint64_t min = 0;  // smallest key chained here: the bucket's floor
  };

  EventHandle schedule(Time t, Callback cb, bool daemon);
  // Fills a free slot with a pending event keyed (t, next seq).
  std::uint32_t claim(Time t, Callback&& cb, bool daemon);
  [[nodiscard]] std::uint32_t pending_slot(EventHandle h) const;  // kNoSlot if fired/cancelled
  void release(std::uint32_t slot);  // frees a fired or cancelled slot, maintaining counters
  void add_debris();                 // counts one more debris node; compacts when dominant
  void compact();                    // drops debris from the near run and every bucket
  void fire(const Node& n);  // advances the clock to a live node and runs its callback
  void push(const Node& n);  // files a node in the near run or in its bucket
  void link(std::uint32_t i, std::uint64_t k);  // appends pooled node `i`, keyed `k`, to its bucket
  void refill();    // splits the lowest bucket: its smallest key becomes the near run
  void pop_near();  // drops the near run's front
  // The next event: the settled queue head or the earliest lane head, null
  // when nothing is pending.  `lane` names its lane, or is null for the queue.
  const Node* head(Lane*& lane);
  void fire_head(Lane* lane);  // pops and fires the node head() returned
  bool pop_one();    // fires the next pending event; false if queue empty

  std::vector<Node> near_;     // nodes keyed at or below last_, sorted by before()
  std::size_t near_head_ = 0;  // index of the near run's front
  std::vector<Pooled> pool_;   // bucket nodes and, through free_, spare ones
  std::uint32_t free_ = kNil;
  Bucket buckets_[64];
  std::uint64_t mask_ = 0;  // bit b set while bucket b is non-empty
  std::uint64_t last_ = 0;  // the radix point: the time key of the last refill
  std::size_t queued_ = 0;  // nodes in the near run and the buckets
  Lane lanes_[kMaxLanes];
  std::size_t n_lanes_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t debris_ = 0;  // queue nodes standing for no event
  std::size_t live_ = 0;
  Time now_ = 0.0;
  std::uint32_t next_seq_ = 0;
  std::size_t steps_ = 0;
  std::size_t normal_pending_ = 0;
  obs::Journal* journal_ = nullptr;
  obs::LivePlane* live_plane_ = nullptr;
};

}  // namespace aio::sim
