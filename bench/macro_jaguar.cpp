// Paper-scale weak scaling — the full-Jaguar run, measured as simulator cost.
//
// Every other bench reports *simulated* seconds; this one reports what it
// costs to produce them.  It sweeps 16,384 -> 65,536 -> 224,160 writers (the
// full 18,680-node x 12-core Jaguar) against the 672-OST Lustre scratch with
// Pixie3D small payloads (2 MB/process), and records host wall-clock,
// engine events/sec, process peak RSS, and resident bytes per writer — the
// numbers that decide whether "paper-scale" fits one workstation core.
//
// The adaptive transport runs at every scale without keeping the global
// index, so only index sizes travel and no block record is built; MPI-IO
// rides along at the scales where the baseline is worth timing (<= 16,384
// writers).
//
// Honours the usual knobs (bench/harness.hpp): AIO_BENCH_SAMPLES,
// AIO_BENCH_MAX_PROCS (672 groups need at most 224,160 writers — the cap
// trims the sweep, see bench/env.hpp), AIO_BENCH_MAX_STEPS, AIO_BENCH_JSON.
//
// With `AIO_SIM_SHARDS` set (a comma list, e.g. 1,2,8) the adaptive rows
// additionally sweep the sharded engine at those shard counts: a "shards"
// column appears, each adaptive row runs through core::ShardedAdaptiveSim,
// and the JSON rows carry a "shards" value plus window-loop telemetry
// (window_batch, windows_executed, windows_skipped, barrier_rounds).
// A shard count runs clamped to [1, min(32, n_osts)], and the rows report
// the count that ran; `AIO_SIM_WINDOW_BATCH` sets the window multiplier (a
// number >= 1).
// Unset, the bench's stdout is byte-identical to a build without sharding.
//
// `AIO_PROF` arms the shard-runtime profiler on the sharded
// rows: a one-line stderr host-time split per sweep point and — when
// AIO_PROF is a path — an aio-prof-v1 document array written there at exit,
// each document carrying the sweep point's writers and window counts.
// Simulated results and the journal are bit-identical armed or not, and
// neither stdout nor the JSON rows carry any of the profile.
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#if defined(__unix__)
#include <unistd.h>
#endif

#include "core/transports/sharded.hpp"
#include "harness.hpp"
#include "workload/pixie3d.hpp"

namespace {

using namespace aio;

/// Resident set size right now, in bytes (0 where /proc is unavailable).
/// Unlike the getrusage high-water mark this can go down, so per-scale
/// deltas around a rig build+run measure that scale's own footprint.
std::uint64_t current_rss_bytes() {
#if defined(__unix__)
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (!f) return 0;
  unsigned long pages = 0, resident = 0;
  const int n = std::fscanf(f, "%lu %lu", &pages, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return static_cast<std::uint64_t>(resident) *
         static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
#else
  return 0;
#endif
}

struct RunCost {
  double wall_s = 0.0;        ///< host seconds: rig build + run to completion
  double sim_s = 0.0;         ///< simulated seconds the run produced
  double events_per_s = 0.0;  ///< engine steps per host second
  std::uint64_t rss_delta = 0;  ///< resident growth across the whole sample
  // Sharded rows only: the shard count the group ran (the request,
  // clamped), the window multiplier the sample ran at and the shard group's
  // window-loop telemetry (see sim::ShardGroup).
  std::size_t shards = 0;
  double window_batch = 0.0;
  double window_s = 0.0;
  std::uint64_t windows_executed = 0;
  std::uint64_t windows_skipped = 0;
  std::uint64_t barrier_rounds = 0;
};

/// One cold sample: build a rig sized to `procs`, run one collective output,
/// tear everything down.  The RSS delta brackets the entire sample so it
/// charges the job, the network, the transport, and every live index to the
/// scale that allocated them.  That is why the sample builds its own engine
/// and a network of `procs` ranks rather than an api::Simulation (whose
/// network spans every core of the machine); the sweep's Observers supply
/// the live daemon, the watchdog and the failure flush.
RunCost run_one(const fs::MachineSpec& spec, const workload::Pixie3dConfig& model,
                std::size_t procs, bool adaptive, api::Observers& sweep) {
  const std::uint64_t rss0 = current_rss_bytes();
  const auto t0 = std::chrono::steady_clock::now();

  sim::Engine engine(sweep.journal(), sweep.live());
  fs::FileSystem filesystem(engine, spec.fs);
  std::optional<net::Network> network;
  std::unique_ptr<core::Transport> transport;
  if (adaptive) {
    network.emplace(engine,
                    net::NetConfig{spec.msg_latency_s, spec.nic_bw, spec.cores_per_node}, procs);
    core::AdaptiveTransport::Config cfg;  // n_files = 0: one file per OST (672 groups)
    cfg.retain_global_index = false;  // no block record is built or carried
    transport = std::make_unique<core::AdaptiveTransport>(filesystem, *network, cfg);
  } else {
    core::MpiioTransport::Config cfg;
    cfg.stripe_count = 160;  // the Lustre single-file limit, as in fig5
    cfg.stripe_size = model.bytes_per_process();
    cfg.max_segments = 4;
    transport = std::make_unique<core::MpiioTransport>(filesystem, cfg);
  }
  sweep.arm(engine);  // periodic aio-live-v1 rows

  const core::IoJob job = workload::pixie3d_job(model, procs);
  std::optional<core::IoResult> result;
  transport->run(job, [&](core::IoResult r) { result = std::move(r); });
  // The rig's watchdog: a hung run leaves the sweep journal, its report and
  // trace, the live tail and the flight recorder behind, then throws.
  sweep.run(engine, *transport, result);

  RunCost cost;
  cost.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  cost.sim_s = result->io_seconds();
  cost.events_per_s =
      cost.wall_s > 0.0 ? static_cast<double>(engine.steps()) / cost.wall_s : 0.0;
  const std::uint64_t rss1 = current_rss_bytes();
  cost.rss_delta = rss1 > rss0 ? rss1 - rss0 : 0;
  return cost;
}

/// One cold sharded sample: a ShardedAdaptiveSim sized to `procs` running at
/// `n_shards` shards, clamped as the group clamps them (RunCost::shards is
/// the count that ran).  Per-shard journal records are canonically merged and
/// re-homed into the bench-wide journal under a fresh run ordinal, so
/// tools/aio_report reads sharded and classic runs out of one file.  A
/// sweep live plane that writes snapshot rows ingests the same merged
/// records after the run; its flight ring gets none, since a run that
/// completed says nothing about a hang.
RunCost run_one_sharded(const fs::MachineSpec& spec, const workload::Pixie3dConfig& model,
                        std::size_t procs, std::size_t n_shards, double window_batch,
                        api::Observers& sweep, obs::prof::ShardProfiler* prof) {
  obs::Journal* const journal = sweep.journal();
  obs::LivePlane* const live =
      sweep.live() && sweep.live()->snapshot_enabled() ? sweep.live() : nullptr;
  const std::uint64_t rss0 = current_rss_bytes();
  const auto t0 = std::chrono::steady_clock::now();

  core::ShardedAdaptiveSim::Config cfg;
  cfg.n_shards = n_shards;
  cfg.n_ranks = procs;
  cfg.fs = spec.fs;
  cfg.net = net::NetConfig{spec.msg_latency_s, spec.nic_bw, spec.cores_per_node};
  cfg.adaptive.retain_global_index = false;  // n_files = 0: one file per OST
  cfg.collect_journal = journal != nullptr || live != nullptr;
  cfg.window_batch = window_batch;
  cfg.profiler = prof;  // re-bound (and zeroed) per sample by set_profiler
  core::ShardedAdaptiveSim sim(cfg);
  const core::IoResult result = sim.run(workload::pixie3d_job(model, procs));

  RunCost cost;
  cost.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  cost.sim_s = result.io_seconds();
  cost.events_per_s =
      cost.wall_s > 0.0 ? static_cast<double>(sim.steps()) / cost.wall_s : 0.0;
  cost.shards = sim.shards().n_shards();
  cost.window_batch = window_batch;
  cost.window_s = sim.shards().window_s();
  cost.windows_executed = sim.shards().windows_executed();
  cost.windows_skipped = sim.shards().windows_skipped();
  cost.barrier_rounds = sim.shards().barrier_rounds();
  const std::uint64_t rss1 = current_rss_bytes();
  cost.rss_delta = rss1 > rss0 ? rss1 - rss0 : 0;

  if (cfg.collect_journal) {
    // Without a journal, run-scoped records carry ordinal 0, as a classic
    // engine emits them to a live plane alone.
    const std::uint32_t run_id = journal ? journal->begin_run() : 0;
    for (obs::Record r : sim.merged_records()) {
      // Run-scoped records carry the per-shard journals' local ordinal (1);
      // re-home them under the bench journal's run numbering.
      if (r.kind == obs::Rec::kRunBegin || r.kind == obs::Rec::kRunMark ||
          r.kind == obs::Rec::kFileMap)
        r.id = run_id;
      if (journal) journal->append(r);
      if (live) live->ingest(r);
    }
  }
  return cost;
}

}  // namespace

int main() {
  const std::size_t samples = bench::samples_or(1);
  const std::size_t max_procs = bench::max_procs_or(224160);
  const std::vector<std::size_t> shard_sweep = obs::env_counts("AIO_SIM_SHARDS");
  const double window_batch = obs::env_seconds("AIO_SIM_WINDOW_BATCH", 64.0, 1.0);
  bench::warn_unreached_max_procs(max_procs, {16384, 65536, 224160});
  bench::banner("macro_jaguar",
                "paper-scale weak scaling: simulator cost up to the full 224,160-core Jaguar",
                "Pixie3D small (2 MB/process), 672 OSTs, adaptive (+ MPI-IO at <= 16k)");

  bench::Report report("macro_jaguar", 4200);
  report.config("samples", static_cast<double>(samples))
      .config("max_procs", static_cast<double>(max_procs));

  const fs::MachineSpec spec = fs::jaguar();
  const workload::Pixie3dConfig model = workload::Pixie3dConfig::small_model();

  // One journal across the whole sweep (serial bench, one "machine" at a
  // time); each adaptive run appends its own kRunBegin..kComplete span.
  // One live plane the same way: the overhead it adds (or doesn't) is the
  // number this bench exists to measure, so it rides through every run.
  // Both are written when `sweep` is destroyed, at the end of main.
  api::Observers sweep(/*slot=*/0);
  obs::Journal* const journal = sweep.journal();
  if (journal) journal->reserve(1 << 20);
  // Shard-runtime profiler (AIO_PROF): one instance reused across the sweep
  // (each sample re-binds and zeroes it).  Per-sweep-point documents are
  // collected and written as one aio-prof-v1 array at the end.
  const obs::EnvSink prof_env = obs::env_sink("AIO_PROF");
  std::unique_ptr<obs::prof::ShardProfiler> prof;
  if (prof_env.on && !shard_sweep.empty())
    prof = std::make_unique<obs::prof::ShardProfiler>();
  if (prof_env.on && shard_sweep.empty())
    std::fprintf(stderr,
                 "macro_jaguar: AIO_PROF needs a sharded sweep (set AIO_SIM_SHARDS)\n");
  obs::Json prof_docs = obs::Json::array();

  std::vector<std::string> headers{"writers", "transport", "wall s", "sim s",
                                   "Mevents/s", "rss delta", "B/writer"};
  if (!shard_sweep.empty()) headers.insert(headers.begin() + 2, "shards");
  stats::Table table(std::move(headers));

  // One finished (transport, scale[, shards]) sweep point -> one table row
  // plus one JSON row.  `shards` == 0 means "classic engine" and keeps the
  // row layout (and the whole stdout) identical to a sweep-less run.
  const auto emit = [&](std::size_t procs, const char* transport, std::size_t shards,
                        const stats::Summary& wall, const RunCost& last) {
    const double bytes_per_writer =
        static_cast<double>(last.rss_delta) / static_cast<double>(procs);
    std::vector<std::string> cells{std::to_string(procs), transport,
                                   stats::Table::num(wall.mean(), 3),
                                   stats::Table::num(last.sim_s, 2),
                                   stats::Table::num(last.events_per_s / 1e6, 2),
                                   bench::mb(static_cast<double>(last.rss_delta)),
                                   stats::Table::num(bytes_per_writer, 0)};
    if (!shard_sweep.empty())
      cells.insert(cells.begin() + 2, shards == 0 ? std::string("-") : std::to_string(shards));
    table.add_row(std::move(cells));
    auto& row = report.row();
    row.tag("transport", transport)
        .value("procs", static_cast<double>(procs))
        .value("sim_s", last.sim_s)
        .value("events_per_sec", last.events_per_s)
        .value("rss_delta_bytes", static_cast<double>(last.rss_delta))
        .value("bytes_per_writer", bytes_per_writer)
        .value("peak_rss_bytes", static_cast<double>(bench::peak_rss_bytes()))
        .stat("wall_s", wall);
    if (shards != 0) {
      row.value("shards", static_cast<double>(shards))
          .value("window_batch", last.window_batch)
          .value("windows_executed", static_cast<double>(last.windows_executed))
          .value("windows_skipped", static_cast<double>(last.windows_skipped))
          .value("barrier_rounds", static_cast<double>(last.barrier_rounds));
    }
  };

  // Ascending scales: the first (16,384-writer) rows run in a pristine
  // process, which is what the pre/post A-B comparison reads.
  for (const std::size_t procs :
       {std::size_t{16384}, std::size_t{65536}, std::size_t{224160}}) {
    if (procs > max_procs) continue;
    const bool mpiio_feasible = procs <= 16384;
    for (const bool adaptive : {true, false}) {
      if (!adaptive && !mpiio_feasible) continue;
      if (adaptive && !shard_sweep.empty()) {
        // Sharded sweep: each requested shard count is its own sweep point.
        for (const std::size_t n_shards : shard_sweep) {
          stats::Summary wall;
          RunCost last;
          for (std::size_t s = 0; s < samples; ++s) {
            last = run_one_sharded(spec, model, procs, n_shards, window_batch, sweep,
                                   prof.get());
            wall.add(last.wall_s);
          }
          emit(procs, "adaptive", last.shards, wall, last);
          if (prof) {
            // One summary + document per sweep point (the last sample's
            // numbers — each sample re-binds the profiler).
            const std::string label =
                std::to_string(procs) + "w x " + std::to_string(last.shards) + "sh";
            prof->print_summary(label.c_str());
            obs::Json doc = prof->to_json();
            doc.set("procs", static_cast<double>(procs));
            doc.set("window_s", last.window_s);
            doc.set("windows_executed", static_cast<double>(last.windows_executed));
            doc.set("windows_skipped", static_cast<double>(last.windows_skipped));
            doc.set("barrier_rounds", static_cast<double>(last.barrier_rounds));
            prof_docs.push(std::move(doc));
          }
        }
        continue;
      }
      stats::Summary wall;
      RunCost last;
      for (std::size_t s = 0; s < samples; ++s) {
        last = run_one(spec, model, procs, adaptive, sweep);
        wall.add(last.wall_s);
      }
      emit(procs, adaptive ? "adaptive" : "mpiio", 0, wall, last);
    }
  }

  std::printf("%s\n", table.render().c_str());
  std::printf("peak RSS (whole process): %s\n",
              bench::mb(static_cast<double>(bench::peak_rss_bytes())).c_str());
  if (prof && !prof_env.path.empty()) {
    std::ofstream out(prof_env.path);
    if (out)
      out << prof_docs.dump() << '\n';
    else
      std::fprintf(stderr, "macro_jaguar: cannot write AIO_PROF path %s\n",
                   prof_env.path.c_str());
  }
  return 0;
}
