// Metadata server (MDS) model.
//
// Lustre-era parallel file systems funnel every open/create/close and every
// stripe-layout lookup through a single metadata server, whose service time
// degrades as concurrent requests pile up — the "open storm" a petascale
// application unleashes when every rank opens a file at the same instant.
// The paper's stagger technique (and its 5-file split discussion) exists to
// soften exactly this.
//
// The model is a single FIFO server: each request's service time is
//
//     base * (1 + penalty * backlog_at_dispatch) + (items - 1) * batch_item
//
// where `backlog_at_dispatch` counts the requests queued behind the server
// when the request starts service.  This reproduces the super-linear cost of
// simultaneous opens while staying O(1) per request.  A *batched* request
// (submit_batch) carries `items` operations in one queue slot: the fixed
// per-request cost (RPC round trip, journal commit) is paid once through
// `base`, and each additional item adds only the marginal `batch_item_s` —
// the client-side amortization the multi-MDS tier's sub-coordinator batching
// relies on.  `items == 1` is arithmetically identical to a plain submit.
//
// Several servers form an `MdsGroup` (fs/mds_group.hpp); each carries an
// `index` identity so journal records and probes attribute service to the
// right namespace shard.
#pragma once

#include <cstdint>
#include <deque>
#include <stdexcept>

#include "sim/engine.hpp"

namespace aio::fs {

class MetadataServer {
 public:
  struct Config {
    double open_base_s = 0.5e-3;    ///< open service time, unloaded
    double close_base_s = 0.2e-3;   ///< close service time, unloaded
    double stat_base_s = 0.1e-3;    ///< getattr/lookup service time, unloaded
    double queue_penalty = 0.004;   ///< per-queued-request service-time growth
    /// Marginal cost of each item beyond the first in a batched request —
    /// the per-entry inode/log work left after the per-request fixed cost
    /// has been amortized across the batch.
    double batch_item_s = 0.05e-3;
  };

  enum class OpKind { Open, Close, Stat, Create };

  /// Completion callback (move-only, 96-byte SBO): sized for
  /// FileSystem::close, which moves an 80-byte fs completion callback
  /// straight into the queue.  MdsGroup::submit_batch_from's hand-back
  /// wrapper (group, requester, server, and a full callback) does not fit
  /// and costs one allocation per request.
  using OnComplete = sim::InplaceFunction<void(sim::Time), 96>;

  /// `index` is this server's identity within its MdsGroup (0 when it
  /// stands alone) — stamped into journal records so per-MDS telemetry can
  /// tell the namespace shards apart.
  MetadataServer(sim::Engine& engine, Config config, std::uint32_t index = 0)
      : engine_(engine), config_(config), index_(index) {}
  MetadataServer(const MetadataServer&) = delete;
  MetadataServer& operator=(const MetadataServer&) = delete;

  /// Enqueues a metadata operation; the callback fires when it completes.
  void submit(OpKind kind, OnComplete on_complete) { enqueue(kind, 1, std::move(on_complete)); }

  /// Enqueues `items` operations of one kind as a single batched request
  /// occupying one queue slot; the callback fires once, when the whole
  /// batch completes.  `items == 1` is exactly equivalent to submit().
  void submit_batch(OpKind kind, std::size_t items, OnComplete on_complete) {
    if (items == 0) throw std::invalid_argument("MetadataServer: empty batch");
    enqueue(kind, static_cast<std::uint32_t>(items), std::move(on_complete));
  }

  [[nodiscard]] std::size_t backlog() const { return queue_.size() + (busy_ ? 1 : 0); }
  /// Requests completed (a batch counts once).
  [[nodiscard]] std::uint64_t completed_ops() const { return completed_; }
  /// Individual operations completed (a batch counts its item count).
  [[nodiscard]] std::uint64_t completed_items() const { return completed_items_; }
  /// Largest backlog ever observed (storm severity metric).
  [[nodiscard]] std::size_t peak_backlog() const { return peak_backlog_; }
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] std::uint32_t index() const { return index_; }
  [[nodiscard]] sim::Engine& engine() { return engine_; }

 private:
  struct Request {
    OpKind kind;
    OnComplete on_complete;
    std::uint32_t items = 1;
  };

  void enqueue(OpKind kind, std::uint32_t items, OnComplete on_complete);
  void dispatch();
  void complete_in_service();

  [[nodiscard]] double base_time(OpKind kind) const {
    // Exhaustive over OpKind: adding a kind without a price is a compile
    // error (-Wswitch), not a silent fall-through to some default.
    switch (kind) {
      case OpKind::Open: return config_.open_base_s;
      case OpKind::Close: return config_.close_base_s;
      case OpKind::Stat: return config_.stat_base_s;
      case OpKind::Create: return config_.open_base_s;  // no preset prices them apart
    }
    __builtin_unreachable();
  }

  sim::Engine& engine_;
  Config config_;
  std::uint32_t index_ = 0;
  std::deque<Request> queue_;
  // The request currently in service.  Held as a member (not captured in the
  // service event) so the event closure is just a this-pointer — a metadata
  // storm enqueues thousands of service events without touching the heap.
  Request in_service_{};
  bool busy_ = false;
  std::uint64_t completed_ = 0;
  std::uint64_t completed_items_ = 0;
  std::size_t peak_backlog_ = 0;
};

}  // namespace aio::fs
