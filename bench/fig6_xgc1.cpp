// Figure 6 — XGC1 IO performance (38 MB/process), adaptive vs MPI-IO.
//
// The full-code configuration of the paper's Section IV-B: the XGC1
// gyrokinetic PIC kernel generating 38 MB per process with weak scaling,
// run on Jaguar under normal conditions and with the artificial
// interference job.  "Adaptive IO shows clear advantages ... the
// performance improvement ranges from 30% to greater than 224%."
#include "harness.hpp"
#include "parallel.hpp"
#include "workload/xgc1.hpp"

namespace {

using namespace aio;

struct ScalePoint {
  std::size_t procs;
  double gain;
  stats::Summary mpi_bw;
  stats::Summary ad_bw;
  stats::Summary steals;
};

}  // namespace

int main() {
  const std::size_t samples = bench::samples_or(5);
  const std::size_t max_procs = bench::max_procs_or(16384);
  bench::warn_unreached_max_procs(max_procs, {512, 2048, 8192, 16384});
  bench::banner("fig6_xgc1", "Fig. 6: XGC1 IO performance (38 MB/process)",
                "XGC1 kernel, Jaguar, MPI-IO/160 OSTs vs adaptive/512 OSTs");

  bench::Report report("fig6_xgc1", 400);
  report.config("samples", static_cast<double>(samples))
      .config("max_procs", static_cast<double>(max_procs));
  const workload::Xgc1Config model;
  stats::Table table({"condition", "procs", "MPI-IO avg", "MPI-IO max", "Adaptive avg",
                      "Adaptive max", "adaptive gain", "steals/run"});

  // Two independent machines — base and interference — run concurrently.
  const auto conditions = bench::run_samples(2, [&](std::size_t i) {
    const bool interference = i == 1;
    api::Simulation machine(fs::jaguar(), 400 + (interference ? 7 : 0),
                            {.interference_job = interference,
                             .min_ranks = max_procs,
                             .slot = static_cast<int>(i)});

    std::vector<ScalePoint> points;
    for (const std::size_t procs : {std::size_t{512}, std::size_t{2048}, std::size_t{8192},
                                    std::size_t{16384}}) {
      if (procs > max_procs) continue;
      core::MpiioTransport::Config mpi_cfg;
      mpi_cfg.stripe_count = 160;
      mpi_cfg.stripe_size = model.bytes_per_process;
      mpi_cfg.max_segments = 4;
      core::MpiioTransport mpi(machine.file_system(), mpi_cfg);

      core::AdaptiveTransport::Config ad_cfg;
      ad_cfg.n_files = 512;
      core::AdaptiveTransport adaptive(machine.file_system(), machine.network(), ad_cfg);

      const core::IoJob job = workload::xgc1_job(model, procs);
      stats::Summary mpi_bw;
      stats::Summary ad_bw;
      stats::Summary steals;
      for (std::size_t s = 0; s < samples; ++s) {
        mpi_bw.add(machine.run(mpi, job).bandwidth());
        machine.advance(900.0);  // XGC1 writes every 15-30 minutes
        const core::IoResult ar = machine.run(adaptive, job);
        ad_bw.add(ar.bandwidth());
        steals.add(static_cast<double>(ar.steals));
        machine.advance(900.0);
      }
      const double gain = (ad_bw.mean() / mpi_bw.mean() - 1.0) * 100.0;
      points.push_back({procs, gain, mpi_bw, ad_bw, steals});
    }
    return points;
  });

  for (std::size_t i = 0; i < 2; ++i) {
    const char* cond = i == 1 ? "interference" : "base";
    for (const ScalePoint& p : conditions[i]) {
      report.row()
          .tag("condition", cond)
          .value("procs", static_cast<double>(p.procs))
          .value("gain_pct", p.gain)
          .stat("mpiio_bw", p.mpi_bw)
          .stat("adaptive_bw", p.ad_bw)
          .stat("steals", p.steals);
      table.add_row({cond, std::to_string(p.procs), stats::Table::bandwidth(p.mpi_bw.mean()),
                     stats::Table::bandwidth(p.mpi_bw.max()),
                     stats::Table::bandwidth(p.ad_bw.mean()),
                     stats::Table::bandwidth(p.ad_bw.max()),
                     (p.gain >= 0 ? "+" : "") + stats::Table::num(p.gain, 0) + "%",
                     stats::Table::num(p.steals.mean(), 0)});
    }
  }
  std::printf("Fig 6: XGC1 IO performance (paper: adaptive +30%% .. +224%%)\n%s\n",
              table.render().c_str());
  return 0;
}
