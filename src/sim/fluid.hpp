// Fluid-flow (processor-sharing) links.
//
// A FluidResource serves any number of independent processor-sharing
// *links* on one engine: a network's NICs, one per node, or a staging
// node's ingest link.  Each link serves a set of concurrent streams, each
// with a fixed amount of work (bytes).  At any instant a link's usable
// capacity is
//
//     capacity * capacity_factor * efficiency(n)
//
// shared equally among its n active streams, with an optional per-stream
// rate cap.  `efficiency(n) = 1 / (1 + alpha * (n - 1))` models the
// throughput loss caused by interleaving many concurrent streams (disk seeks,
// lock contention) — with alpha = 0 the link is work-conserving.
//
// Internally each link runs on a *virtual-work clock*: because equal sharing
// gives every active stream the same instantaneous rate, the cumulative
// per-stream work V(t) = ∫ stream_rate dt is shared by all of the link's
// streams, and a stream started at virtual work V₀ with w bytes completes
// exactly when V reaches V₀ + w.  Advancing a link is therefore one
// multiply-add (O(1) regardless of stream count), remaining work is one
// subtraction, and the next completion is the root of the link's pairing
// heap keyed by (finish virtual work, stream id).  start is O(1), a
// completion or abort O(log n) amortized, set_capacity_factor O(1) plus the
// engine reschedule — versus O(n) for all of these in a per-stream linear
// drain (the old model survives as tests/fluid_reference.{hpp,cpp} and a
// property sweep cross-validates the two).  A link needs only one pending
// engine event (its earliest completion), re-armed on every state change.
//
// Storage: a link is its clock (virtual work, last update, capacity factor,
// pending event, live count and heap root: 40 bytes), so a machine's NICs
// cost one vector and no allocation each.  Streams live in one slab of
// slots per resource (callback, finish work, link, heap links), reused
// through a free list.  A stream id is its start number above its slot
// index, so ids order a link's streams by start and `abort` and `remaining`
// find the slot without a map; a finished or aborted stream's id no longer
// matches its slot.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/engine.hpp"
#include "sim/inplace_function.hpp"

namespace aio::sim {

class FluidResource {
 public:
  struct Config {
    double capacity = 1.0;        ///< bytes/sec per link at factor 1, single stream
    double per_stream_cap = 0.0;  ///< max bytes/sec per stream; 0 = unlimited
    double alpha = 0.0;           ///< concurrency efficiency loss coefficient
  };

  using StreamId = std::uint64_t;
  /// Completion callback; receives the finish time.  128 bytes of SBO: the
  /// widest capture routed through a fluid stream is the NIC path's relay
  /// around a network deliver closure (a 96-byte-SBO `Engine::Callback` plus
  /// the network pointer and two ranks, 128 bytes), which must land inline
  /// or every message send would heap-allocate right back.
  using OnComplete = InplaceFunction<void(Time), 128>;

  /// `n_links` idle links sharing `config`, each at capacity factor 1.
  FluidResource(Engine& engine, Config config, std::size_t n_links);
  ~FluidResource();

  FluidResource(const FluidResource&) = delete;
  FluidResource& operator=(const FluidResource&) = delete;

  /// Starts a stream of `bytes` work on `link`.  Zero-byte streams complete
  /// via an immediate event (still asynchronously, preserving callback
  /// ordering).  A negative or NaN `bytes` throws std::invalid_argument and
  /// an unknown link std::out_of_range; either changes nothing.
  StreamId start(std::size_t link, double bytes, OnComplete on_complete);

  /// Aborts a stream; its callback is never invoked.  Returns false if the
  /// stream is unknown (already completed or aborted).
  bool abort(StreamId id);

  /// Adjusts a link's externally imposed capacity factor (interference,
  /// fabric governor).  Factor must be >= 0; 0 freezes the link's streams.
  void set_capacity_factor(std::size_t link, double factor);

  [[nodiscard]] std::size_t active_streams(std::size_t link) const {
    return links_.at(link).active;
  }
  /// Remaining work; 0 for unknown streams and for streams already within
  /// the completion tolerance (the same epsilon the scheduler uses).
  [[nodiscard]] double remaining(StreamId id) const;

  [[nodiscard]] static double efficiency(double alpha, std::size_t n) {
    return n <= 1 ? 1.0 : 1.0 / (1.0 + alpha * (static_cast<double>(n) - 1.0));
  }

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  // A stream id is (start number << kSlotBits) | slot: 2^24 concurrent
  // streams per resource and 2^40 starts over its lifetime.
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::size_t kMaxSlots = std::size_t{1} << kSlotBits;

  struct Link {
    double vwork = 0.0;  ///< cumulative per-stream work; rebased to 0 at idle
    Time last_update = 0.0;
    double factor = 1.0;
    EventHandle pending;        ///< the next-completion event
    std::uint32_t active = 0;   ///< live streams
    std::uint32_t top = kNone;  ///< heap root; aborted slots leave lazily
  };
  struct Slot {
    OnComplete on_complete;
    double v_finish = 0.0;  ///< virtual-work coordinate at which the stream is done
    StreamId id = 0;
    std::uint32_t link = 0;
    std::uint32_t child = kNone;  ///< pairing heap: first child
    std::uint32_t next = kNone;   ///< next sibling; also the free list and fire()'s batch
    bool live = false;            ///< started and not yet completed or aborted
  };

  // Completion order: earliest finish first, start order among exact ties.
  [[nodiscard]] bool before(std::uint32_t a, std::uint32_t b) const {
    const Slot& x = slots_[a];
    const Slot& y = slots_[b];
    return x.v_finish != y.v_finish ? x.v_finish < y.v_finish : x.id < y.id;
  }
  std::uint32_t meld(std::uint32_t a, std::uint32_t b);  ///< joins two heap roots
  std::uint32_t pop(Link& l);  ///< detaches the root of `l`'s heap and returns it
  void release(std::uint32_t slot);  ///< returns a slot to the free list
  [[nodiscard]] std::uint32_t live_slot(StreamId id) const;  ///< kNone if not live

  [[nodiscard]] double stream_rate(const Link& l) const;
  [[nodiscard]] double done_threshold(const Link& l) const;  ///< shared by fire()/remaining()
  void advance(Link& l);            ///< moves the link's clock from last_update to now
  void reschedule(std::uint32_t link);  ///< re-arms the link's next-completion event
  void arm(std::uint32_t link, double delay);  ///< moves (or schedules) it to now + delay
  void disarm(Link& l);             ///< cancels the link's pending event, if any
  void fire(std::uint32_t link);    ///< completes every stream whose finish work is reached

  Engine& engine_;
  Config config_;
  std::vector<Link> links_;
  std::vector<Slot> slots_;
  std::uint32_t free_ = kNone;  ///< head of the free slot list
  std::uint64_t next_start_ = 1;
};

}  // namespace aio::sim
