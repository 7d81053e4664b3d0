// Figure 7 — standard deviation of write time, adaptive vs MPI-IO.
//
// The paper's Fig. 7 plots, for each of the four Section IV cases (Pixie3D
// small / large / extra-large and XGC1), the standard deviation of the
// measured write times: "once the caches on the storage targets start to be
// taxed, adaptive IO reduces variability", dramatically so for the
// extra-large model.  The threshold is "some small multiple of the storage
// target count, e.g. 4" processes per target.
#include <iterator>

#include "harness.hpp"
#include "parallel.hpp"
#include "workload/pixie3d.hpp"
#include "workload/xgc1.hpp"

namespace {

using namespace aio;

struct Case {
  const char* name;
  core::IoJob (*job)(std::size_t procs);
  std::uint64_t seed;
};

core::IoJob small_job(std::size_t procs) {
  return workload::pixie3d_job(workload::Pixie3dConfig::small_model(), procs);
}
core::IoJob large_job(std::size_t procs) {
  return workload::pixie3d_job(workload::Pixie3dConfig::large_model(), procs);
}
core::IoJob xl_job(std::size_t procs) {
  return workload::pixie3d_job(workload::Pixie3dConfig::xl_model(), procs);
}
core::IoJob xgc_job(std::size_t procs) { return workload::xgc1_job({}, procs); }

struct ScalePoint {
  std::size_t procs;
  double ratio;
  stats::Summary mpi_t;
  stats::Summary ad_t;
  obs::Histogram mpi_h;  // quantiles for the machine-readable report
  obs::Histogram ad_h;
};

}  // namespace

int main() {
  const std::size_t samples = bench::samples_or(6);
  const std::size_t max_procs = bench::max_procs_or(16384);
  bench::warn_unreached_max_procs(max_procs, {512, 2048, 8192, 16384});
  bench::banner("fig7_variability",
                "Fig. 7(a-d): standard deviation of write time for the 4 cases",
                "Jaguar, MPI-IO/160 OSTs vs adaptive/512 OSTs, base conditions");

  bench::Report report("fig7_variability", 700);
  report.config("samples", static_cast<double>(samples))
      .config("max_procs", static_cast<double>(max_procs));
  const Case cases[] = {
      {"Fig 7(a) Pixie3D small (2 MB)", small_job, 700},
      {"Fig 7(b) Pixie3D large (128 MB)", large_job, 710},
      {"Fig 7(c) Pixie3D extra-large (1 GB)", xl_job, 720},
      {"Fig 7(d) XGC1 (38 MB)", xgc_job, 730},
  };

  // Each of the four cases is an independent machine, run concurrently.
  const auto per_case = bench::run_samples(std::size(cases), [&](std::size_t i) {
    const Case& c = cases[i];
    api::Simulation machine(fs::jaguar(), c.seed,
                            {.min_ranks = max_procs, .slot = static_cast<int>(i)});
    std::vector<ScalePoint> points;
    for (const std::size_t procs : {std::size_t{512}, std::size_t{2048}, std::size_t{8192},
                                    std::size_t{16384}}) {
      if (procs > max_procs) continue;
      const core::IoJob job = c.job(procs);

      core::MpiioTransport::Config mpi_cfg;
      mpi_cfg.stripe_count = 160;
      mpi_cfg.stripe_size = job.bytes_per_writer.front();
      mpi_cfg.max_segments = 4;
      core::MpiioTransport mpi(machine.file_system(), mpi_cfg);
      core::AdaptiveTransport::Config ad_cfg;
      ad_cfg.n_files = 512;
      core::AdaptiveTransport adaptive(machine.file_system(), machine.network(), ad_cfg);

      stats::Summary mpi_t;
      stats::Summary ad_t;
      obs::Histogram mpi_h, ad_h;
      for (std::size_t s = 0; s < samples; ++s) {
        const double m = machine.run(mpi, job).io_seconds();
        mpi_t.add(m);
        mpi_h.add(m);
        machine.advance(600.0);
        const double a = machine.run(adaptive, job).io_seconds();
        ad_t.add(a);
        ad_h.add(a);
        machine.advance(600.0);
      }
      const double ratio = ad_t.stddev() > 0.0 ? mpi_t.stddev() / ad_t.stddev() : 0.0;
      points.push_back({procs, ratio, mpi_t, ad_t, mpi_h, ad_h});
    }
    return points;
  });

  for (std::size_t i = 0; i < std::size(cases); ++i) {
    const Case& c = cases[i];
    stats::Table table({"procs", "procs/target", "MPI-IO mean (s)", "MPI-IO stddev (s)",
                        "Adaptive mean (s)", "Adaptive stddev (s)", "stddev ratio"});
    for (const ScalePoint& p : per_case[i]) {
      report.row()
          .tag("case", c.name)
          .value("procs", static_cast<double>(p.procs))
          .value("stddev_ratio", p.ratio)
          .stat("mpiio_t", p.mpi_t, p.mpi_h)
          .stat("adaptive_t", p.ad_t, p.ad_h);
      table.add_row({std::to_string(p.procs),
                     stats::Table::num(static_cast<double>(p.procs) / 512.0, 1),
                     stats::Table::num(p.mpi_t.mean(), 2), stats::Table::num(p.mpi_t.stddev(), 2),
                     stats::Table::num(p.ad_t.mean(), 2), stats::Table::num(p.ad_t.stddev(), 2),
                     stats::Table::num(p.ratio, 1) + "x"});
    }
    std::printf("%s — std deviation of write time\n%s\n", c.name, table.render().c_str());
  }
  std::printf(
      "Paper shape: beyond ~4 procs/target the adaptive stddev sits below MPI-IO's,\n"
      "with the largest gap for the extra-large model (Fig 7(c)).\n");
  return 0;
}
