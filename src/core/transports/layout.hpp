// IO job and result descriptions shared by all transports.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <limits>
#include <string>
#include <vector>

#include "core/index/index.hpp"
#include "sim/engine.hpp"

namespace aio::fs {
class StripedFile;
}  // namespace aio::fs

namespace aio::core {

/// One collective output operation: every writer contributes a payload.
struct IoJob {
  std::vector<double> bytes_per_writer;
  /// Optional blueprint factory: the variable blocks each writer produces
  /// (file offsets unset).  Defaults to one anonymous block of the full
  /// payload.  It must be a pure, thread-safe function of the rank: when a
  /// run keeps the global index, each build of the records calls it once
  /// per writer, on the building thread (the thread runtime's SC threads
  /// concurrently), and a run whose job declares no index_size calls it
  /// once more per writer to size the index.  A copy outlives the run in
  /// IoResult::kept_index.
  Blueprint blueprint;
  /// Optional: each writer's index size, stated without building its index.
  /// It must equal IndexSize::of(blueprint_for(r)) at every rank, with the
  /// blueprint's purity and thread-safety.  A run times the index transfers
  /// and writes from it; a kept index built from blueprints that disagree
  /// fails its build (core::build_file_index).
  std::function<IndexSize(Rank)> index_size;
  /// Names of the var_ids the blueprints reference, interned once for the
  /// whole run and shared by pointer (null = anonymous variables).
  std::shared_ptr<const VarTable> var_names;

  [[nodiscard]] std::size_t n_writers() const { return bytes_per_writer.size(); }
  [[nodiscard]] double total_bytes() const;
  [[nodiscard]] LocalIndex blueprint_for(Rank r) const;
  /// Writer r's index size: the declared index_size, else the measured
  /// blueprint_for(r).
  [[nodiscard]] IndexSize index_size_for(Rank r) const;

  /// n writers, each producing `bytes`.
  static IoJob uniform(std::size_t n, double bytes);
};

struct WriterTiming {
  double start = 0.0;
  double end = 0.0;
  [[nodiscard]] double duration() const { return end - start; }
};

/// Outcome of one collective output operation.  All times are simulation
/// seconds relative to the start of the run() call.
struct IoResult {
  std::string transport;
  double t_begin = 0.0;
  double t_open_done = 0.0;    ///< files created/opened (0 if opens skipped)
  double t_data_done = 0.0;    ///< last data byte (incl. required flushes)
  double t_complete = 0.0;     ///< indices written + files closed
  double total_bytes = 0.0;
  std::vector<WriterTiming> writer_times;

  // Adaptive-transport bookkeeping (zero/empty for the baselines).
  std::uint64_t steals = 0;
  std::uint64_t grants_issued = 0;
  std::size_t total_blocks_indexed = 0;
  /// The kept index (null when the run kept none) and the files it refers
  /// to — everything a consumer needs for read-back (see
  /// core/transports/readback.hpp).  It holds where each write landed;
  /// kept_index->build() builds the master index's records on request.
  std::shared_ptr<const KeptIndex> kept_index;
  /// The job's interned variable names (shared, never copied per run).
  std::shared_ptr<const VarTable> var_names;
  std::vector<fs::StripedFile*> output_files;
  fs::StripedFile* master_file = nullptr;

  /// The paper's reported time: write + flush + close, excluding open.
  [[nodiscard]] double io_seconds() const { return t_complete - t_open_done; }
  /// Aggregate bandwidth over the reported interval, bytes/sec.
  [[nodiscard]] double bandwidth() const {
    const double dt = io_seconds();
    return dt > 0.0 ? total_bytes / dt : 0.0;
  }
  /// Mean per-writer bandwidth, bytes/sec.
  [[nodiscard]] double per_writer_bandwidth() const;
  /// Slowest / fastest writer duration (the paper's imbalance factor).
  [[nodiscard]] double imbalance_factor() const;
  [[nodiscard]] double slowest_writer() const;
  [[nodiscard]] double fastest_writer() const;
};

/// A transport executes one collective output on the simulated machine.
/// run() wires everything into the event queue and returns immediately; the
/// callback fires when the operation completes.  Drive the engine to
/// completion with Engine::run().
class Transport {
 public:
  virtual ~Transport() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  virtual void run(const IoJob& job, std::function<void(IoResult)> on_done) = 0;
};

}  // namespace aio::core
