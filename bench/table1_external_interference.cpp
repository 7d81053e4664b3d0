// Table I + Figure 2 — IO performance variability due to external
// interference.
//
// Hourly IOR tests on three machines: Jaguar (512 writers, one per OST, 469
// samples), Franklin (80 writers, NERSC monitoring-style series), and
// Sandia's XTP in two controlled modes — one IOR program alone ("without
// Int.") and two IOR programs launched simultaneously ("with Int.").
// Reports the paper's Table I columns (samples, average bandwidth, standard
// deviation, covariance = CV) and prints the Fig. 2 bandwidth histograms.
//
// Shape targets: Jaguar/Franklin CV in the 40-60% band; XTP-with-Int CV
// near 43%; XTP-without-Int far tighter.
#include <optional>

#include "core/transports/posix_transport.hpp"
#include "harness.hpp"
#include "parallel.hpp"
#include "workload/ior.hpp"

namespace {

using namespace aio;

constexpr double kMiB = 1 << 20;

struct SeriesResult {
  std::string machine;
  std::vector<double> bandwidths;  // bytes/sec per sample
};

SeriesResult hourly_series(const std::string& label, const fs::MachineSpec& spec,
                           std::size_t writers, std::size_t osts, std::size_t samples,
                           std::uint64_t seed, bool twin_job, int obs_slot) {
  api::Simulation machine(spec, seed, {.slot = obs_slot});
  sim::Rng overlap_rng = sim::Rng(seed).fork(0x714F);
  SeriesResult out;
  out.machine = label;
  out.bandwidths.reserve(samples);
  // The competing IOR program of the "XTP with Int." mode.  It lives as long
  // as the machine: each of its runs completes inside the IOR sample it
  // overlaps, after the block that started it has ended.
  core::PosixTransport::Config cc;
  cc.osts_to_use = osts;
  core::PosixTransport competitor_transport(machine.file_system(), cc);

  for (std::size_t s = 0; s < samples; ++s) {
    // A second full-size job launched "at the same time".  Real co-scheduled
    // jobs never align perfectly, so the competitor gets a random head start
    // — the varying overlap is what makes the interference transient.
    std::optional<core::IoResult> competitor;
    if (twin_job) {
      competitor_transport.run(core::IoJob::uniform(writers, 128.0 * kMiB),
                               [&](core::IoResult r) { competitor = std::move(r); });
      machine.advance(overlap_rng.uniform(0.0, 9.0));
    }
    workload::IorConfig cfg;
    cfg.writers = writers;
    cfg.bytes_per_writer = 128.0 * kMiB;
    cfg.osts_to_use = osts;
    const workload::IorSample sample = workload::run_ior_once(machine.file_system(), cfg);
    out.bandwidths.push_back(sample.aggregate_bw);
    machine.advance(3600.0);  // hourly tests
  }
  return out;
}

void report(const std::vector<SeriesResult>& series, bench::Report& rep) {
  stats::Table table({"Machine", "Samples", "Avg. IO Bandwidth (MB/sec)",
                      "Std. Deviation (MB/sec)", "Covariance"});
  for (const auto& s : series) {
    stats::Summary summary;
    for (const double bw : s.bandwidths) summary.add(bw / 1e6);
    rep.row().tag("machine", s.machine).stat("bw_mbs", summary);
    table.add_row({s.machine, std::to_string(summary.count()),
                   stats::Table::num(summary.mean(), 1),
                   stats::Table::num(summary.stddev(), 1),
                   stats::Table::num(summary.cv() * 100.0, 1) + "%"});
  }
  std::printf("Table I: IO performance variability due to external interference\n%s\n",
              table.render().c_str());

  std::printf("Fig 2: histograms of IO bandwidth (MB/sec buckets)\n\n");
  for (const auto& s : series) {
    std::vector<double> mbs;
    mbs.reserve(s.bandwidths.size());
    for (const double bw : s.bandwidths) mbs.push_back(bw / 1e6);
    const stats::Histogram hist = stats::Histogram::fit(mbs, 12);
    std::printf("Fig 2 (%s):\n%s\n", s.machine.c_str(), hist.render(48, "MB/sec").c_str());
  }
}

}  // namespace

int main() {
  bench::banner("table1_external_interference",
                "Table I and Fig. 2(a-d) (Jaguar, Franklin, XTP with/without interference)",
                "hourly IOR, POSIX, one file per writer, one writer per OST");

  const std::size_t jaguar_samples = obs::env_count("AIO_BENCH_TABLE1_SAMPLES", 469);
  const std::size_t franklin_samples = std::min<std::size_t>(jaguar_samples, 365);
  const std::size_t xtp_samples = std::min<std::size_t>(jaguar_samples, 60);

  bench::Report rep("table1_external_interference", 11);
  rep.config("samples", static_cast<double>(jaguar_samples));

  // Five independent replications — four hourly series plus the paper's
  // imbalance-factor study — each on its own machine, fanned out by
  // bench/parallel.hpp and reassembled in fixed order below.
  struct Unit {
    SeriesResult series;        // units 0-3
    stats::Summary imbalance;   // unit 4
  };
  const auto run_unit = [&](std::size_t i) -> Unit {
    switch (i) {
      case 0:
        return {hourly_series("Jaguar", fs::jaguar(), 512, 512, jaguar_samples, 11, false, 0),
                {}};
      case 1:
        return {
            hourly_series("Franklin", fs::franklin(), 80, 96, franklin_samples, 13, false, 1),
            {}};
      case 2:
        return {hourly_series("XTP (with Int.)", fs::xtp(), 512, 40, xtp_samples, 17, true, 2),
                {}};
      case 3:
        return {
            hourly_series("XTP (without Int.)", fs::xtp(), 512, 40, xtp_samples, 19, false, 3),
            {}};
      default: {
        // The paper's summary observation across all external-interference
        // tests.
        stats::Summary imbalance;
        api::Simulation machine(fs::jaguar(), 23, {.slot = 4});
        for (int s = 0; s < 40; ++s) {
          workload::IorConfig cfg;
          cfg.writers = 512;
          cfg.bytes_per_writer = 128.0 * kMiB;
          cfg.osts_to_use = 512;
          imbalance.add(workload::run_ior_once(machine.file_system(), cfg).imbalance);
          machine.advance(3600.0);
        }
        return {{}, imbalance};
      }
    }
  };
  const auto units = bench::run_samples(5, run_unit);

  std::vector<SeriesResult> series;
  for (std::size_t i = 0; i < 4; ++i) series.push_back(units[i].series);
  report(series, rep);
  const stats::Summary& imbalance = units[4].imbalance;
  rep.row().tag("machine", "Jaguar").tag("metric", "imbalance_factor").stat("imbalance", imbalance);
  std::printf("Overall average imbalance factor (paper: ~3.9): %.2f\n", imbalance.mean());
  return 0;
}
