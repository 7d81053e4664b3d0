// Fluid-flow (processor-sharing) resource model.
//
// A FluidResource serves a set of concurrent streams, each with a fixed
// amount of work (bytes).  At any instant the resource's usable capacity is
//
//     capacity * capacity_factor * efficiency(n)
//
// shared equally among the n active streams, with an optional per-stream
// rate cap.  `efficiency(n) = 1 / (1 + alpha * (n - 1))` models the
// throughput loss caused by interleaving many concurrent streams (disk seeks,
// lock contention) — with alpha = 0 the resource is work-conserving.
//
// Internally the model runs on a *virtual-work clock*: because equal sharing
// gives every active stream the same instantaneous rate, the cumulative
// per-stream work V(t) = ∫ stream_rate dt is shared by all streams, and a
// stream started at virtual work V₀ with w bytes completes exactly when
// V reaches V₀ + w.  Advancing the model is therefore one multiply-add
// (O(1) regardless of stream count), remaining work is one subtraction, and
// the next completion is the top of a min-heap keyed by finish virtual work.
// start/abort are O(log n), set_capacity_factor is O(1) plus the engine
// reschedule — versus O(n) for all of these in a per-stream linear drain
// (the old model survives as tests/fluid_reference.{hpp,cpp} and a property
// sweep cross-validates the two).  The model still needs only one pending
// engine event (the earliest completion), re-armed on every state change.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/engine.hpp"
#include "sim/inplace_function.hpp"

namespace aio::sim {

class FluidResource {
 public:
  struct Config {
    double capacity = 1.0;        ///< bytes/sec at factor 1, single stream
    double per_stream_cap = 0.0;  ///< max bytes/sec per stream; 0 = unlimited
    double alpha = 0.0;           ///< concurrency efficiency loss coefficient
  };

  using StreamId = std::uint64_t;
  /// Completion callback; receives the finish time.  128 bytes of SBO: the
  /// widest capture routed through a fluid stream is the NIC path's relay
  /// around a network deliver closure (a 96-byte-SBO `Engine::Callback` plus
  /// the NIC's own latency/this state, 128 bytes total), which must land
  /// inline or every message send would heap-allocate right back.
  using OnComplete = InplaceFunction<void(Time), 128>;

  FluidResource(Engine& engine, Config config);
  ~FluidResource();

  FluidResource(const FluidResource&) = delete;
  FluidResource& operator=(const FluidResource&) = delete;

  /// Starts a stream of `bytes` work.  Zero-byte streams complete via an
  /// immediate event (still asynchronously, preserving callback ordering).
  /// A negative or NaN `bytes` throws std::invalid_argument and changes
  /// nothing.
  StreamId start(double bytes, OnComplete on_complete);

  /// Aborts a stream; its callback is never invoked.  Returns false if the
  /// stream is unknown (already completed or aborted).
  bool abort(StreamId id);

  /// Adjusts the externally imposed capacity factor (interference, fabric
  /// governor).  Factor must be >= 0; 0 freezes all streams.
  void set_capacity_factor(double factor);
  [[nodiscard]] double capacity_factor() const { return factor_; }

  [[nodiscard]] std::size_t active_streams() const {
    return streams_.size() + (solo_ ? 1 : 0);
  }
  /// Remaining work; 0 for unknown streams and for streams already within
  /// the completion tolerance (the same epsilon the scheduler uses).
  [[nodiscard]] double remaining(StreamId id) const;
  /// Current aggregate service rate (bytes/sec across all streams).
  [[nodiscard]] double total_rate() const;
  /// Current per-stream service rate.
  [[nodiscard]] double stream_rate() const;
  [[nodiscard]] const Config& config() const { return config_; }

  [[nodiscard]] static double efficiency(double alpha, std::size_t n) {
    return n <= 1 ? 1.0 : 1.0 / (1.0 + alpha * (static_cast<double>(n) - 1.0));
  }

 private:
  struct Stream {
    double v_finish;  ///< virtual-work coordinate at which the stream is done
    OnComplete on_complete;
  };
  // Completion order: earliest finish first, FIFO among exact ties.
  struct HeapEntry {
    double v_finish;
    StreamId id;
  };
  static bool heap_before(const HeapEntry& a, const HeapEntry& b) {
    if (a.v_finish != b.v_finish) return a.v_finish < b.v_finish;
    return a.id < b.id;
  }

  [[nodiscard]] double done_threshold() const;  ///< shared by fire()/remaining()
  void advance();      ///< moves the virtual clock from last_update_ to now
  void reschedule();   ///< re-arms the next-completion event
  void arm(double delay);  ///< moves (or schedules) the pending event to now + delay
  void disarm();       ///< cancels the pending event, if any
  void fire();         ///< completes every stream whose finish work is reached
  double min_v_finish();  ///< earliest live finish; +inf if none (pops stale)
  void demote_solo();  ///< moves the solo stream into the map/heap machinery

  using StreamMap = std::unordered_map<StreamId, Stream>;

  Engine& engine_;
  Config config_;
  double factor_ = 1.0;
  StreamMap streams_;
  std::vector<HeapEntry> heap_;  // aborted streams removed lazily
  // Finished/aborted map nodes are kept and re-keyed on the next start(), so
  // steady-state stream churn never touches the allocator (the table's bucket
  // array and the heap stop growing once warm).
  std::vector<StreamMap::node_type> spare_nodes_;
  std::vector<OnComplete> done_scratch_;  // fire()'s completion batch
  StreamId next_id_ = 1;
  Time last_update_ = 0.0;
  double vwork_ = 0.0;  ///< cumulative per-stream work; rebased to 0 at idle
  EventHandle pending_;
  // Solo fast path: a resource serving exactly one stream (the overwhelmingly
  // common OST state between bursts, and the whole of churn/1) keeps it in
  // this inline slot and never touches the map or the heap.  The slot demotes
  // into the general machinery the moment a second stream starts; the
  // arithmetic is the shared-clock formulas with n = 1, so results are
  // bitwise identical either way.  Invariant: solo_ implies streams_ empty.
  bool solo_ = false;
  StreamId solo_id_ = 0;
  double solo_v_finish_ = 0.0;
  OnComplete solo_cb_;
};

}  // namespace aio::sim
