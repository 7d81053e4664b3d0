#include "fs/mds.hpp"

#include <algorithm>
#include <utility>

#include "obs/journal.hpp"
#include "obs/live.hpp"
#include "obs/metrics.hpp"

namespace aio::fs {

void MetadataServer::enqueue(OpKind kind, std::uint32_t items, OnComplete on_complete) {
  queue_.push_back(Request{kind, std::move(on_complete), items});
  peak_backlog_ = std::max(peak_backlog_, backlog());
  if (!busy_) dispatch();
}

void MetadataServer::dispatch() {
  if (queue_.empty()) {
    busy_ = false;
    return;
  }
  busy_ = true;
  in_service_ = std::move(queue_.front());
  queue_.pop_front();
  const double service =
      base_time(in_service_.kind) *
          (1.0 + config_.queue_penalty * static_cast<double>(queue_.size())) +
      static_cast<double>(in_service_.items - 1) * config_.batch_item_s;
  if (engine_.observing_records()) {
    obs::Record r;
    r.kind = obs::Rec::kMdsOp;
    r.t = engine_.now();
    r.id = index_;
    r.a = static_cast<std::uint8_t>(in_service_.kind);
    r.u0 = static_cast<std::uint32_t>(queue_.size());
    r.u1 = in_service_.items - 1;  // 0 for plain submits, as before the batch op
    r.v0 = service;
    if (auto* journal = engine_.journal()) journal->append(r);
    if (auto* live = engine_.live()) live->ingest(r);
  }
  // The in-service request stays in `in_service_` rather than riding in the
  // closure: the event then captures one pointer and an open storm's worth
  // of service events stays inside the engine's callback SBO.
  engine_.schedule_after(service, [this] { complete_in_service(); });
}

void MetadataServer::complete_in_service() {
  ++completed_;
  completed_items_ += in_service_.items;
  if (auto* reg = engine_.metrics()) reg->counter("mds.ops").add();
  // Move the finished request out before dispatching the next one (which
  // reuses the `in_service_` slot), and dispatch before running the callback
  // so a callback that submits more work observes an idle-or-busy server
  // consistently.
  Request req = std::move(in_service_);
  dispatch();
  if (req.on_complete) req.on_complete(engine_.now());
}

}  // namespace aio::fs
