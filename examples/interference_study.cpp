// Interference study: watching a production storage system breathe.
//
// Uses the substrate directly (no middleware): a Jaguar-class file system
// under stochastic production load, sampled with IOR every 3 simulated
// minutes for an hour.  Prints the per-OST load snapshot, the bandwidth
// series, and the imbalance factor over time — the phenomena of the paper's
// Section II in one self-contained program.
#include <cstdio>
#include <functional>
#include <memory>

#include "fs/interference.hpp"
#include "fs/machine.hpp"
#include "obs/analysis.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "stats/histogram.hpp"
#include "stats/summary.hpp"
#include "workload/ior.hpp"

using namespace aio;

int main() {
  const fs::MachineSpec spec = fs::jaguar();
  obs::Registry metrics;
  // AIO_JOURNAL/AIO_REPORT/AIO_TRACE capture the per-OST state timeline for
  // tools/aio_report even though this study runs no adaptive protocol.
  const std::unique_ptr<obs::Journal> journal = obs::Journal::from_env(0);
  sim::Engine engine(&metrics, journal.get());
  fs::FileSystem filesystem(engine, spec.fs);
  fs::BackgroundLoad load(engine, sim::Rng(2026).fork(1), spec.load,
                          filesystem.ost_pointers());
  load.start();

  // Sample the storage landscape into the registry every simulated 30 s.
  // Daemon events never keep run() alive, so sampling is purely an observer.
  obs::Sampler sampler(metrics, /*period_s=*/30.0);
  filesystem.register_probes(sampler, /*per_ost_limit=*/8);
  std::function<void()> arm = [&] {
    sampler.tick(engine.now());
    engine.schedule_daemon_after(sampler.period(), arm);
  };
  engine.schedule_daemon_after(sampler.period(), arm);
  engine.run_until(600.0);  // let the load process reach steady state

  // Snapshot of the load landscape across the first 64 OSTs.
  std::printf("per-OST background load at t=10min (64 of %zu targets):\n  ",
              filesystem.n_osts());
  for (std::size_t i = 0; i < 64; ++i) {
    const double l = load.current_load(i);
    std::putchar(l < 0.15 ? '.' : l < 0.35 ? '-' : l < 0.55 ? 'o' : l < 0.75 ? 'O' : '#');
    if ((i + 1) % 32 == 0) std::printf("\n  ");
  }
  std::printf("( . <15%%  - <35%%  o <55%%  O <75%%  # loaded )\n\n");

  // IOR every 3 minutes for an hour: the Fig. 3 experiment as a time series.
  std::printf("IOR 512 writers x 128 MB, one writer per OST, every 3 minutes:\n");
  std::printf("%6s %14s %12s\n", "t(min)", "aggregate", "imbalance");
  stats::Summary bw_summary;
  std::vector<double> bandwidths;
  for (int minute = 10; minute <= 70; minute += 3) {
    workload::IorConfig cfg;
    cfg.writers = 512;
    cfg.bytes_per_writer = 128.0 * (1 << 20);
    cfg.osts_to_use = 512;
    const workload::IorSample s = workload::run_ior_once(filesystem, cfg);
    bandwidths.push_back(s.aggregate_bw / 1e9);
    bw_summary.add(s.aggregate_bw / 1e9);
    metrics.counter("study.ior_samples").add();
    metrics.gauge("study.last_imbalance").set(s.imbalance);
    std::printf("%6d %11.2f GB/s %11.2fx\n", minute, s.aggregate_bw / 1e9, s.imbalance);
    engine.run_until(engine.now() + 180.0);
  }

  std::printf("\nhour summary: mean %.2f GB/s, stddev %.2f, CV %.0f%% "
              "(the paper's Table I reports 40-60%% on busy systems)\n\n",
              bw_summary.mean(), bw_summary.stddev(), bw_summary.cv() * 100.0);
  const stats::Histogram hist = stats::Histogram::fit(bandwidths, 8);
  std::printf("bandwidth histogram (GB/s):\n%s", hist.render(40).c_str());

  std::printf("\nend-of-run metrics (obs::Registry, %zu-sample per-OST series):\n%s",
              sampler.ticks(), metrics.render_text().c_str());
  if (journal) {
    (void)journal->write();
    (void)obs::flush_report(*journal, 0);
  }
  return 0;
}
