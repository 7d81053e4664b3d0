// Extension — adaptive IO beyond Jaguar (paper Section VI future work).
//
// "Our future work will examine the benefits of adaptive IO on systems
// beyond Lustre at ORNL, including Franklin at NERSC, PanFS on Sandia's
// XTP."  This bench runs the same S3D restart (38 MB/process class) with
// MPI-IO and adaptive on all three machine presets.  The structural
// differences drive the expected outcome:
//
//   * Jaguar: 672 OSTs but a 160-OST single-file limit -> adaptive gets a
//     3.2x target advantage on top of stealing; biggest gains.
//   * Franklin: 96 OSTs, the shared file may span all of them -> gains come
//     from serialization + stealing only.
//   * XTP: 40 blades, no Lustre-style limit, quiet machine -> smallest
//     gains; adaptive must not *hurt*.
#include <iterator>

#include "harness.hpp"
#include "parallel.hpp"
#include "workload/s3d.hpp"

namespace {

using namespace aio;

struct MachineCase {
  fs::MachineSpec spec;
  std::size_t procs;
  std::size_t mpi_stripes;      // 0 = the machine's stripe limit
  std::size_t adaptive_files;
};

struct CaseResult {
  stats::Summary mpi_bw;
  stats::Summary ad_bw;
};

}  // namespace

int main() {
  const std::size_t samples = bench::samples_or(5);
  bench::banner("ext_cross_machine",
                "Section VI future work: adaptive IO on Franklin and XTP, vs Jaguar",
                "S3D small restart (38 MB/process class), production background load");

  const workload::S3dConfig model = workload::S3dConfig::small_run();
  const MachineCase cases[] = {
      {fs::jaguar(), 4096, 160, 512},
      {fs::franklin(), 2048, 96, 96},
      {fs::xtp(), 1536, 40, 40},
  };

  bench::Report report("ext_cross_machine", 970);
  report.config("samples", static_cast<double>(samples));
  stats::Table table({"machine", "procs", "targets (MPI/adaptive)", "MPI-IO avg",
                      "Adaptive avg", "adaptive gain"});
  // Each machine preset is an independent replication, run concurrently.
  const auto results = bench::run_samples(std::size(cases), [&](std::size_t i) {
    const MachineCase& mc = cases[i];
    api::Simulation machine(mc.spec, 970,
                            {.min_ranks = mc.procs, .slot = static_cast<int>(i)});
    const core::IoJob job = workload::s3d_job(model, mc.procs);

    core::MpiioTransport::Config mpi_cfg;
    mpi_cfg.stripe_count = mc.mpi_stripes;
    mpi_cfg.stripe_size = job.bytes_per_writer.front();
    mpi_cfg.max_segments = 4;
    core::MpiioTransport mpi(machine.file_system(), mpi_cfg);
    core::AdaptiveTransport::Config ad_cfg;
    ad_cfg.n_files = mc.adaptive_files;
    core::AdaptiveTransport adaptive(machine.file_system(), machine.network(), ad_cfg);

    CaseResult out;
    for (std::size_t s = 0; s < samples; ++s) {
      out.mpi_bw.add(machine.run(mpi, job).bandwidth());
      machine.advance(600.0);
      out.ad_bw.add(machine.run(adaptive, job).bandwidth());
      machine.advance(600.0);
    }
    return out;
  });

  for (std::size_t i = 0; i < std::size(cases); ++i) {
    const MachineCase& mc = cases[i];
    const stats::Summary& mpi_bw = results[i].mpi_bw;
    const stats::Summary& ad_bw = results[i].ad_bw;
    const double gain = (ad_bw.mean() / mpi_bw.mean() - 1.0) * 100.0;
    report.row()
        .tag("machine", mc.spec.name)
        .value("procs", static_cast<double>(mc.procs))
        .value("mpi_stripes", static_cast<double>(mc.mpi_stripes))
        .value("adaptive_files", static_cast<double>(mc.adaptive_files))
        .value("gain_pct", gain)
        .stat("mpiio_bw", mpi_bw)
        .stat("adaptive_bw", ad_bw);
    table.add_row({mc.spec.name, std::to_string(mc.procs),
                   std::to_string(mc.mpi_stripes) + "/" + std::to_string(mc.adaptive_files),
                   stats::Table::bandwidth(mpi_bw.mean()), stats::Table::bandwidth(ad_bw.mean()),
                   (gain >= 0 ? "+" : "") + stats::Table::num(gain, 0) + "%"});
  }
  std::printf("Cross-machine S3D restart (%s/process)\n%s\n",
              stats::Table::bytes(model.bytes_per_process()).c_str(), table.render().c_str());
  std::printf("Expected ordering: Jaguar (stripe-limit advantage + stealing) > Franklin\n"
              "(stealing only) > XTP (quiet, no stripe limit) — and adaptive never loses.\n");
  return 0;
}
