// Shared plumbing for the paper-reproduction bench binaries.
//
// Every bench assembles a simulated machine from a MachineSpec, runs
// transports on it, and prints the same rows/series the paper's table or
// figure reports.  Sample counts, scale caps, and observability honour the
// `AIO_*` environment variables of DESIGN.md §8 (parsed by obs/env.hpp), so
// the full 40-sample runs of the paper are one export away.
#pragma once

#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/transports/adaptive_transport.hpp"
#include "env.hpp"
#include "core/transports/layout.hpp"
#include "core/transports/mpiio_transport.hpp"
#include "core/transports/posix_transport.hpp"
#include "fs/filesystem.hpp"
#include "fs/interference.hpp"
#include "fs/machine.hpp"
#include "net/network.hpp"
#include "obs/analysis.hpp"
#include "obs/journal.hpp"
#include "obs/live.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "report.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "stats/histogram.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"

namespace aio::bench {

inline std::size_t samples_or(std::size_t fallback) {
  return obs::env_count("AIO_BENCH_SAMPLES", fallback);
}

/// Builds the per-machine metrics registry when `AIO_METRICS` is on.  Null
/// otherwise so the default path has zero bookkeeping.
inline std::unique_ptr<obs::Registry> metrics_from_env() {
  if (obs::env_sink("AIO_METRICS", /*needs_path=*/true).on)
    return std::make_unique<obs::Registry>();
  return nullptr;
}

/// A fully assembled simulated machine.
struct Machine {
  fs::MachineSpec spec;
  /// Numbers every output path of this machine (obs/env.hpp): slot 0
  /// writes `<path>`, slot k writes `<path>.k+1`.
  const int obs_slot;
  // Observability precedes engine: the engine captures the journal and
  // live-plane pointers.
  std::unique_ptr<obs::Registry> metrics;
  std::unique_ptr<obs::Journal> journal;
  std::unique_ptr<obs::LivePlane> live;
  sim::Engine engine;
  fs::FileSystem filesystem;
  net::Network network;
  std::optional<obs::Sampler> sampler;
  std::optional<fs::BackgroundLoad> load;
  std::optional<fs::InterferenceJob> job;

  /// AIO_MDS_COUNT widens the metadata tier of any bench machine; the
  /// override applies only when the variable is set, so specs keep their
  /// own n_mds (and every default stdout stays byte-identical) otherwise.
  static fs::MachineSpec apply_env(fs::MachineSpec s) {
    if (const std::size_t n_mds = obs::env_count("AIO_MDS_COUNT", 0); n_mds > 0)
      s.fs.n_mds = n_mds;
    return s;
  }

  /// `slot` -1 (the default) numbers machines in construction order — fine
  /// serially, nondeterministic under AIO_BENCH_THREADS>1, so benches that
  /// run machines in parallel pass their unit index.
  Machine(fs::MachineSpec machine_spec, std::uint64_t seed, bool with_load,
          std::size_t min_ranks = 0, int slot = -1)
      : spec(apply_env(std::move(machine_spec))),
        obs_slot(obs::machine_slot(slot)),
        metrics(metrics_from_env()),
        journal(obs::Journal::from_env(obs_slot)),
        live(obs::LivePlane::from_env(obs_slot)),
        engine(journal.get(), live.get()),
        filesystem(engine, spec.fs),
        network(engine,
                net::NetConfig{spec.msg_latency_s, spec.nic_bw, spec.cores_per_node},
                std::max(min_ranks, spec.total_cores())) {
    if (metrics) {
      // One sample per simulated second, per-OST probes on the first 32 OSTs.
      sampler.emplace(*metrics, 1.0);
      filesystem.register_probes(*sampler, 32);
      arm_sampler();
    }
    if (live && live->snapshot_enabled()) arm_live();
    if (with_load) {
      load.emplace(engine, sim::Rng(seed).fork(1), spec.load, filesystem.ost_pointers());
      load->start();
    }
  }

  ~Machine() { flush_obs(); }
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  /// Installs the paper's Section IV artificial interference job.
  void add_interference_job() {
    job.emplace(engine, fs::InterferenceJob::Config{}, filesystem.ost_pointers());
  }

  /// Writes the journal, report, trace and metrics artifacts (also called on
  /// destruction and on watchdog abort, so a hung run still leaves its
  /// evidence behind).  Report/journal emission is latched: the watchdog path
  /// and the destructor never print the summary twice.
  void flush_obs() {
    if (journal && !report_flushed_) {
      report_flushed_ = true;
      (void)journal->write();
      (void)obs::flush_report(*journal, obs_slot);
    }
    if (live) live->flush();
    // Export the drop counters once per machine so the bench JSON records
    // whether any observability channel lost data (flush-fix satellite).
    if ((journal || live) && !drops_published_) {
      drops_published_ = true;
      ObsDropTotals& totals = obs_drop_totals();
      if (journal) totals.journal.fetch_add(journal->dropped(), std::memory_order_relaxed);
      if (live) totals.live_rows.fetch_add(live->rows_dropped(), std::memory_order_relaxed);
      totals.published.store(true, std::memory_order_relaxed);
    }
    if (!metrics) return;
    if (const obs::EnvSink sink = obs::env_sink("AIO_METRICS", /*needs_path=*/true); sink.on) {
      if (std::FILE* f = std::fopen(obs::numbered_path(sink.path, obs_slot).c_str(), "w")) {
        const std::string doc = metrics->to_json().dump();
        std::fwrite(doc.data(), 1, doc.size(), f);
        std::fputc('\n', f);
        std::fclose(f);
      }
    }
  }

  /// Runs one collective output; starts/stops the interference job around
  /// it.  `AIO_BENCH_MAX_STEPS` bounds the engine steps per run: a protocol
  /// that hangs (or livelocks at one timestamp) aborts with diagnostics and
  /// a trace dump instead of spinning forever.
  core::IoResult run(core::Transport& transport, const core::IoJob& io_job) {
    if (job) job->start();
    std::optional<core::IoResult> result;
    transport.run(io_job, [&](core::IoResult r) {
      result = std::move(r);
      if (job) job->stop();
    });
    const std::size_t max_steps = obs::env_count("AIO_BENCH_MAX_STEPS", 0);
    if (max_steps == 0) {
      engine.run();
    } else {
      engine.run(max_steps);
      if (!result && engine.pending_normal() > 0)
        fail(transport, "engine watchdog tripped after " + std::to_string(max_steps) +
                            " steps (AIO_BENCH_MAX_STEPS)");
    }
    if (!result) fail(transport, "transport did not complete (event queue drained)");
    return *result;
  }

  /// Advances wall-clock (compute phase between output steps).
  void advance(double seconds) { engine.run_until(engine.now() + seconds); }

 private:
  [[noreturn]] void fail(const core::Transport& transport, const std::string& what) {
    std::string msg = "bench: " + transport.name() + ": " + what +
                      " [t=" + std::to_string(engine.now()) +
                      "s steps=" + std::to_string(engine.steps()) +
                      " pending=" + std::to_string(engine.pending()) +
                      " pending_normal=" + std::to_string(engine.pending_normal()) + "]";
    // Capture the metrics tail between the last daemon tick and the abort
    // instant, then write everything out before throwing.
    if (sampler) sampler->tick(engine.now());
    flush_obs();
    if (const obs::EnvSink trace = obs::env_sink("AIO_TRACE", /*needs_path=*/true); trace.on)
      msg += "; trace dumped to " + obs::numbered_path(trace.path, obs_slot);
    if (live && live->flight_enabled() && live->dump_flight())
      msg += "; flight recorder dumped to " + live->config().flight_path;
    throw std::runtime_error(msg);
  }

  void arm_sampler() {
    engine.schedule_daemon_after(sampler->period(), [this] {
      sampler->tick(engine.now());
      arm_sampler();
    });
  }

  void arm_live() {
    engine.schedule_daemon_after(live->config().snapshot_period_s, [this] {
      live->snapshot_tick(engine.now());
      arm_live();
    });
  }

  bool report_flushed_ = false;
  bool drops_published_ = false;
};

inline void banner(const char* binary, const char* reproduces, const char* setup) {
  std::printf("================================================================\n");
  std::printf("%s\n", binary);
  std::printf("Reproduces: %s\n", reproduces);
  std::printf("Setup:      %s\n", setup);
  std::printf("================================================================\n\n");
}

inline std::string mb(double bytes) { return stats::Table::bytes(bytes); }

}  // namespace aio::bench
