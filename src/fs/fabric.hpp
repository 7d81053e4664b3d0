// Storage-fabric governor.
//
// Large parallel file systems never deliver n_osts * per-OST bandwidth: the
// network between compute nodes and storage servers caps the aggregate (the
// paper quotes ~60 GB/s practical vs. 672 * 180 MB/s raw on Jaguar).  The
// governor watches which OSTs are actively ingesting and scales every active
// OST's network factor so the sum cannot exceed the fabric capacity:
//
//     factor = min(1, fabric_bw / (n_active * ost_ingest_bw))
//
// A new factor is adopted only when it moves by more than a small hysteresis
// band, so OST activity flapping does not cause event storms.  Adopting one
// does not touch the OSTs at once: it arms a single *flush* event at the
// current instant, and the flush hands every OST the instant's final factor.
// A burst of transitions queued at one instant therefore re-times each busy
// OST once, however many decisions it moved.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "fs/ost.hpp"
#include "sim/engine.hpp"

namespace aio::fs {

class FabricGovernor {
 public:
  /// `fabric_bw` <= 0 disables the governor (infinite fabric).  Flushes run
  /// on `engine`, which must outlive the governor.
  FabricGovernor(sim::Engine& engine, double fabric_bw, double hysteresis = 0.02)
      : engine_(engine), fabric_bw_(fabric_bw), hysteresis_(hysteresis) {}
  ~FabricGovernor();
  FabricGovernor(const FabricGovernor&) = delete;
  FabricGovernor& operator=(const FabricGovernor&) = delete;

  /// Registers an OST and installs its activity hook.  The hook runs inside
  /// the OST's recompute and makes the hysteresis decision for every
  /// transition, in transition order.  The governor must outlive the OSTs
  /// it manages.
  void attach(Ost& ost);

  /// Registers an OST without installing a hook.  Sharded runs keep one
  /// governor replica per shard: every replica hears each window's net
  /// activity change over all OSTs through `notify_activity_batched`, so all
  /// replicas run the same hysteresis state machine and each applies
  /// factors only to its own shard's OSTs.
  void adopt(Ost& ost) { osts_.push_back(&ost); }

  /// Batched replica feed for sharded runs: adds a window's net count of
  /// OSTs that became active (negative when more went idle) at once and
  /// leaves the hysteresis decision to the flush.  The flush decides once
  /// from the boundary instant's *final* active count, so one net delta per
  /// boundary gives the decision one call per transition would — in any
  /// order — which is what keeps the factor sequence invariant under the
  /// shard count.
  void notify_activity_batched(std::int64_t net_delta);

  [[nodiscard]] std::size_t active_count() const { return active_; }
  [[nodiscard]] double current_factor() const { return applied_factor_; }
  [[nodiscard]] double fabric_bw() const { return fabric_bw_; }

 private:
  void count(bool became_active);
  /// Hysteresis decision from the current count; true when the factor moved.
  bool decide();
  void arm_flush();
  /// The flush event: re-times every OST once with the instant's factor.
  void flush();

  sim::Engine& engine_;
  double fabric_bw_;
  double hysteresis_;
  std::vector<Ost*> osts_;
  std::size_t active_ = 0;
  double applied_factor_ = 1.0;
  sim::EventHandle flush_;        // armed flush at the current instant, if any
  bool decide_at_flush_ = false;  // batched feed: the flush makes the decision
};

}  // namespace aio::fs
