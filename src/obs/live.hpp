// Online telemetry plane: live sliding-window attribution, straggler
// scoring, and a flight recorder.
//
// The plane ingests the journal's `Record` stream *during* the run through
// the `obs::Fold` (obs/fold.hpp) that the offline analyzer (obs/analysis.hpp)
// replays, and keeps on top of it, incrementally:
//
//   * the wait partition summed in completion order: cumulative totals that
//     agree with the analyzer's rank-order sums to floating-point noise (CI
//     gates the match at 1e-6), plus a sliding window over a ring of
//     fixed-duration slots;
//   * per-OST time-decayed EWMAs of external load and of writer service
//     time, and a straggler score combining the two;
//   * steal benefits, priced online against the analyzer's no-steal
//     counterfactual (queue depth x source service time), a per-file
//     service EWMA standing in for the end-of-run mean;
//   * run-level timing: CoV over a bounded ring of recent run times and p99
//     from an `obs::Histogram` log-bucket sketch.
//
// The plane hangs off the engine as a null-by-default observability hook
// next to the journal: emission sites build one `Record` and hand it to
// journal and/or live plane, so an engine without a plane pays one pointer
// test per site.  `ingest()` is allocation-free in steady state — all
// per-run state lives in vectors grown during the first (warm-up) run and
// reused thereafter — keeping the plane inside the hot-path budgets
// tests/test_alloc_guard enforces.
//
// Snapshots: when `AIO_LIVE=<path>` is set, a periodic daemon (armed by the
// host next to the metrics sampler) appends one aio-live-v1 JSON row per
// tick that follows a record other than `kOstState`; `flush()` appends a
// `"final": true` row carrying the cumulative attribution in the report's
// shape.  Rows are fflush()ed as written, so a crashed run keeps every
// completed row.  Queries (`straggler_score()`, `steals()`, ...) read the
// same state mid-run as telemetry.
//
// The flight recorder is a bounded ring of the most recent records.  On
// abort (the rig's failure path, api::Observers::run) `dump_flight()`
// writes the ring as a *valid binary journal*, so a hung or failed run
// still yields evidence that tools/aio_report can analyze.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "obs/fold.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"

namespace aio::obs {

/// One wait-attribution bucket: either a window slot or the cumulative
/// totals, with the writers whose waits it sums.
struct LiveWait : WaitSplit {
  std::uint64_t writers = 0;
};

/// Point-in-time view of one OST.
struct LiveOst {
  std::uint32_t ost = 0;
  double load_ewma = 0.0;       ///< EWMA of max(net_load, disk_load)
  double service_ewma_s = 0.0;  ///< EWMA of writer service time landing here
  double score = 0.0;           ///< straggler score (see straggler_score)
  std::uint64_t writes = 0;
};

/// Windowed run-time statistics: CoV over the recent-runs ring, p99 from
/// the cumulative log-bucket sketch.
struct LiveRunStats {
  std::uint64_t count = 0;
  double mean_s = 0.0;
  double cov = 0.0;
  double p99_s = 0.0;
};

struct LiveSteals {
  std::uint64_t completed = 0;
  double est_saved_s = 0.0;  ///< online counterfactual estimate, summed
};

/// One coherent snapshot for callers that want everything at once
/// (api::Simulation::live_view()).
struct LiveView {
  std::uint64_t runs = 0;
  LiveWait window;
  LiveWait cumulative;
  LiveRunStats run_time;
  LiveSteals steals;
  std::vector<LiveOst> stragglers;  ///< top-k by score, descending
};

class LivePlane {
 public:
  struct Config {
    /// aio-live-v1 snapshot destination (JSON rows, one per tick); empty
    /// keeps the plane query-only.
    std::string snapshot_path;
    std::size_t flight_records = 65'536;  ///< flight-recorder ring; 0 disables
    std::string flight_path = "aio-flight.journal";  ///< dump_flight() target
  };
  static constexpr double kSnapshotPeriod_s = 1.0;  ///< host daemon cadence
  static constexpr double kWindowSlot_s = 1.0;      ///< seconds per wait-window slot
  static constexpr std::size_t kWindowSlots = 16;   ///< wait-window ring length

  explicit LivePlane(Config config);
  ~LivePlane();
  LivePlane(const LivePlane&) = delete;
  LivePlane& operator=(const LivePlane&) = delete;

  /// Builds a plane when `AIO_LIVE` (snapshot rows; "1"/"-" = query-only)
  /// or `AIO_FLIGHT` (flight-recorder dump path) is set; nullptr when both
  /// are unset.  Paths are numbered by the machine's `slot` (obs/env.hpp).
  [[nodiscard]] static std::unique_ptr<LivePlane> from_env(int slot);

  /// Folds one journal record into the live state.  Allocation-free once
  /// the first run has sized the per-run vectors.
  void ingest(const Record& r);

  // --- queries (the LiveView API) -------------------------------------------
  /// Latest simulated time seen by ingest().
  [[nodiscard]] double now() const { return now_; }
  [[nodiscard]] std::uint64_t runs_completed() const { return runs_completed_; }

  /// Straggler score of one OST: its external-load EWMA plus the excess of
  /// its service-time EWMA over the fleet mean (0 for an unknown or
  /// unloaded OST).  Deterministic, and monotone in the load EWMA.
  [[nodiscard]] double straggler_score(std::uint32_t ost) const;

  /// Sum over the live window ring (the last kWindowSlots * kWindowSlot_s
  /// seconds of writer completions).
  [[nodiscard]] LiveWait window() const;
  /// Exact cumulative totals — the values CI compares against the offline
  /// analyzer's summary.attribution.
  [[nodiscard]] const LiveWait& cumulative() const { return cum_; }
  [[nodiscard]] LiveRunStats run_stats() const;
  [[nodiscard]] LiveSteals steals() const { return steals_; }
  [[nodiscard]] LiveView view(std::size_t top_k = 8) const;

  // --- snapshot export ------------------------------------------------------
  [[nodiscard]] bool snapshot_enabled() const { return snap_ != nullptr; }
  /// One aio-live-v1 row at time `now` (or the latest ingested time).
  [[nodiscard]] Json snapshot_json(double now, bool final = false) const;
  /// Appends one row to the snapshot file, unless the plane is query-only or
  /// has folded only `kOstState` records since the last row: load changes
  /// move nothing but the straggler EWMAs, and a machine idling between IOR
  /// samples would otherwise write a row per tick.
  void snapshot_tick(double now);
  /// Appends the `"final": true` row and closes the snapshot file.
  /// Idempotent; safe to call from both failure paths and destructors.
  void flush();
  [[nodiscard]] std::uint64_t rows_written() const { return rows_; }
  /// Snapshot rows that could not be written (open or write failure).
  [[nodiscard]] std::uint64_t rows_dropped() const { return rows_dropped_; }

  // --- flight recorder ------------------------------------------------------
  [[nodiscard]] bool flight_enabled() const { return config_.flight_records > 0; }
  /// Records currently retained (<= config().flight_records).
  [[nodiscard]] std::size_t flight_size() const { return flight_.size(); }
  [[nodiscard]] std::uint64_t flight_total() const { return flight_total_; }
  /// Dumps the ring, oldest record first, as a loadable binary journal.
  [[nodiscard]] bool dump_flight() const { return dump_flight(config_.flight_path); }
  [[nodiscard]] bool dump_flight(const std::string& path) const;

  [[nodiscard]] const Config& config() const { return config_; }

 private:
  /// Time-decayed EWMA with time constant kEwmaTau_s.
  struct Ewma {
    double value = 0.0;
    double t = -1.0;  ///< time of the last sample; < 0 before the first
    void add(double v, double at);
    [[nodiscard]] double get() const { return t >= 0.0 ? value : 0.0; }
  };
  struct OstState {
    Ewma load;
    Ewma svc;
    std::uint64_t writes = 0;
  };

  void ensure_ost(std::uint32_t id);
  /// Advances the window ring to the slot containing `t`, zeroing skipped
  /// slots.
  LiveWait& slot_at(double t);
  void on_writer_end(const Record& r);
  [[nodiscard]] static Json wait_json(const LiveWait& w);

  Config config_;
  double now_ = 0.0;
  Fold fold_;
  std::uint64_t runs_completed_ = 0;

  std::vector<OstState> osts_;
  std::vector<Ewma> file_svc_;  // per file: the steal counterfactual's service rate

  // Fleet-wide service statistics (straggler-score denominator).
  std::uint64_t svc_count_ = 0;
  double svc_sum_ = 0.0;

  // Wait-window ring + cumulative totals.
  std::vector<LiveWait> slots_;
  std::int64_t cur_slot_ = INT64_MIN;
  LiveWait cum_;

  // Run-level timing.
  std::vector<double> run_ring_;
  std::size_t run_ring_next_ = 0;
  Histogram run_hist_;

  LiveSteals steals_;

  std::vector<Record> flight_;
  std::size_t flight_next_ = 0;
  std::uint64_t flight_total_ = 0;

  std::FILE* snap_ = nullptr;
  std::uint64_t rows_ = 0;
  std::uint64_t rows_dropped_ = 0;
  bool fresh_ = false;  // a record other than kOstState since the last row
  bool flushed_ = false;
};

}  // namespace aio::obs
