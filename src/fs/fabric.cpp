#include "fs/fabric.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace aio::fs {

FabricGovernor::~FabricGovernor() {
  if (flush_.valid()) engine_.cancel(flush_);
}

void FabricGovernor::attach(Ost& ost) {
  osts_.push_back(&ost);
  // Counts and decides only: the OSTs are re-timed by the flush.
  ost.set_activity_hook([this](bool active) {
    count(active);
    if (decide()) arm_flush();
  });
}

void FabricGovernor::notify_activity_batched(std::int64_t net_delta) {
  const auto active = static_cast<std::int64_t>(active_) + net_delta;
  assert(active >= 0);
  active_ = static_cast<std::size_t>(active);
  decide_at_flush_ = true;
  arm_flush();
}

void FabricGovernor::count(bool became_active) {
  if (became_active) {
    ++active_;
  } else {
    assert(active_ > 0);
    --active_;
  }
}

bool FabricGovernor::decide() {
  if (fabric_bw_ <= 0.0 || osts_.empty()) return false;
  double factor = 1.0;
  if (active_ > 0) {
    // All OSTs share one config in practice; use the first as representative.
    const double per_ost = osts_.front()->config().ingest_bw;
    factor = std::min(1.0, fabric_bw_ / (static_cast<double>(active_) * per_ost));
  }
  if (std::abs(factor - applied_factor_) <= hysteresis_ * applied_factor_) return false;
  applied_factor_ = factor;
  return true;
}

void FabricGovernor::arm_flush() {
  if (flush_.valid()) return;
  // Same-instant events fire FIFO, so the flush runs after every event
  // already pending at this instant — for a boundary batch, after all of it.
  flush_ = engine_.schedule_at(engine_.now(), [this] { flush(); });
}

void FabricGovernor::flush() {
  flush_ = sim::EventHandle{};
  if (std::exchange(decide_at_flush_, false) && !decide()) return;
  for (Ost* ost : osts_) ost->set_fabric_factor(applied_factor_);
}

}  // namespace aio::fs
