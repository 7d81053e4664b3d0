// Figure 1 — internal interference on Jaguar/Lustre.
//
// IOR, POSIX-IO, one file per writer, 512 OSTs, writers split evenly across
// the OSTs.  Writer counts sweep 512..16384 (1:1 to 32:1 writers per OST)
// and per-writer sizes sweep 1 MB..1024 MB with weak scaling.  Reports
// (a) aggregate write bandwidth and (b) average per-writer bandwidth, with
// min/avg/max across samples (the paper uses 40 samples; default here is 8,
// override with AIO_BENCH_SAMPLES).
//
// Shape targets from the paper: per-writer bandwidth decreases monotonically
// with writer count; aggregate bandwidth peaks near 4 writers/OST (later for
// cache-friendly 8 MB) and declines 16-28% from 8192 to 16384 writers for
// sizes >= 128 MB; 1 MB stays cache-absorbed and never declines.
#include <iterator>

#include "harness.hpp"
#include "parallel.hpp"
#include "workload/ior.hpp"

namespace {

using namespace aio;

constexpr double kMiB = 1 << 20;

// One table line of one per-size series; produced off-thread, printed in
// order on the main thread.
struct ScalePoint {
  std::size_t writers;
  stats::Summary aggregate;
  stats::Summary per_writer;
};

}  // namespace

int main() {
  const std::size_t samples = bench::samples_or(8);
  const std::size_t max_procs = bench::max_procs_or(16384);
  bench::banner("fig1_internal_interference",
                "Fig. 1(a) aggregate and 1(b) per-writer write bandwidth (Jaguar/Lustre)",
                "IOR POSIX, 512 OSTs, one file per writer, weak scaling");

  const double sizes_mb[] = {1, 8, 32, 128, 512, 1024};
  std::vector<std::size_t> writer_counts;
  for (std::size_t w = 512; w <= max_procs; w *= 2) writer_counts.push_back(w);
  bench::warn_unreached_max_procs(max_procs, writer_counts.empty() ? 0 : writer_counts.back());

  bench::Report report("fig1_internal_interference", 1000);
  report.config("samples", static_cast<double>(samples))
      .config("max_procs", static_cast<double>(max_procs));
  stats::Table aggregate({"size/writer", "writers", "ratio", "agg min", "agg avg", "agg max"});
  stats::Table per_writer({"size/writer", "writers", "ratio", "pw min", "pw avg", "pw max"});

  // The paper's ratio sweep is a controlled experiment: production noise is
  // present (the error bars) but mild compared to the Table I conditions, or
  // the internal-interference trend could not have been isolated.  Use a
  // light background so the contention curve dominates and the load only
  // contributes spread.
  fs::MachineSpec spec = fs::jaguar();
  spec.load.mean_load = 0.12;
  spec.load.local_cv = 0.5;
  spec.load.global_cv = 0.3;
  spec.load.max_load = 0.55;
  spec.load.clamp_jitter_lo = 0.9;
  spec.load.clamp_jitter_hi = 1.0;

  // Each per-writer size is an independent replication — a fresh machine
  // with its own seed, so cache state does not leak across series and the
  // series can run concurrently (bench/parallel.hpp).
  const auto series_for_size = [&](std::size_t i) {
    const double size_mb = sizes_mb[i];
    api::Simulation machine(spec, /*seed=*/1000 + static_cast<std::uint64_t>(size_mb),
                            {.slot = static_cast<int>(i)});
    std::vector<ScalePoint> points;
    points.reserve(writer_counts.size());
    for (const std::size_t writers : writer_counts) {
      workload::IorConfig cfg;
      cfg.writers = writers;
      cfg.bytes_per_writer = size_mb * kMiB;
      cfg.osts_to_use = 512;
      cfg.mode = fs::Ost::Mode::Cached;
      cfg.samples = samples;
      cfg.gap_seconds = 1.0;  // back-to-back iterations, as IOR runs them
      cfg.warmup = 2;         // reach cache steady state before recording
      const workload::IorSeries series = workload::run_ior(machine.file_system(), cfg);
      machine.advance(120.0);  // let caches settle before the next scale
      points.push_back({writers, series.aggregate_summary(), series.per_writer_summary()});
    }
    return points;
  };
  const auto per_size = bench::run_samples(std::size(sizes_mb), series_for_size);

  for (std::size_t i = 0; i < per_size.size(); ++i) {
    const double size_mb = sizes_mb[i];
    for (const ScalePoint& p : per_size[i]) {
      const stats::Summary& agg = p.aggregate;
      const stats::Summary& pw = p.per_writer;
      const std::string ratio = std::to_string(p.writers / 512) + ":1";
      report.row()
          .tag("ratio", ratio)
          .value("size_mb", size_mb)
          .value("writers", static_cast<double>(p.writers))
          .stat("aggregate_bw", agg)
          .stat("per_writer_bw", pw);
      aggregate.add_row({bench::mb(size_mb * kMiB), std::to_string(p.writers), ratio,
                         stats::Table::bandwidth(agg.min()), stats::Table::bandwidth(agg.mean()),
                         stats::Table::bandwidth(agg.max())});
      per_writer.add_row({bench::mb(size_mb * kMiB), std::to_string(p.writers), ratio,
                          stats::Table::bandwidth(pw.min()), stats::Table::bandwidth(pw.mean()),
                          stats::Table::bandwidth(pw.max())});
    }
  }

  std::printf("Fig 1(a): scaling of aggregate write bandwidth\n%s\n",
              aggregate.render().c_str());
  std::printf("Fig 1(b): scaling of per-writer write bandwidth\n%s\n",
              per_writer.render().c_str());
  return 0;
}
