// Ablation — number of adaptive output targets.
//
// The paper evaluates with 512 OSTs "to simplify the discussion of ratios"
// and notes "the adaptive approach has been successfully tested with 672
// storage targets with no penalties compared with the 512 storage targets
// measurements".  This bench sweeps the target-file count: 160 (the MPI-IO
// stripe limit — isolates the protocol from the extra parallelism), 512,
// and the full 672.
#include "harness.hpp"
#include "workload/pixie3d.hpp"

namespace {
using namespace aio;
}  // namespace

int main() {
  const std::size_t samples = bench::samples_or(5);
  const std::size_t procs = bench::max_procs_or(8192);
  bench::banner("ablation_targets",
                "design-choice ablation: adaptive target-file count (160 / 512 / 672)",
                "Pixie3D large (128 MB), Jaguar");

  const workload::Pixie3dConfig model = workload::Pixie3dConfig::large_model();

  bench::Report report("ablation_targets", 930);
  report.config("samples", static_cast<double>(samples))
      .config("procs", static_cast<double>(procs));
  const std::size_t target_counts[] = {160, 512, 672};
  // One machine carries all three target counts in sequence (the sweep is
  // deliberately on a shared, evolving system), so it runs serially.
  const auto sweep = [&] {
    api::Simulation machine(fs::jaguar(), 930, {.min_ranks = procs});
    const core::IoJob job = workload::pixie3d_job(model, procs);
    std::vector<stats::Summary> out;
    for (std::size_t i = 0; i < 3; ++i) {
      core::AdaptiveTransport::Config cfg;
      cfg.n_files = target_counts[i];
      core::AdaptiveTransport transport(machine.file_system(), machine.network(), cfg);
      stats::Summary bw;
      for (std::size_t s = 0; s < samples; ++s) {
        bw.add(machine.run(transport, job).bandwidth());
        machine.advance(600.0);
      }
      out.push_back(bw);
    }
    return out;
  }();

  double means[3] = {};
  double maxes[3] = {};
  for (std::size_t i = 0; i < 3; ++i) {
    means[i] = sweep[i].mean();
    maxes[i] = sweep[i].max();
    report.row()
        .value("targets", static_cast<double>(target_counts[i]))
        .stat("bw", sweep[i]);
  }

  stats::Table table(
      {"targets", "procs/target", "avg bandwidth", "max bandwidth", "vs 512 targets"});
  for (std::size_t i = 0; i < 3; ++i) {
    const double rel = (means[i] / means[1] - 1.0) * 100.0;
    table.add_row({std::to_string(target_counts[i]),
                   stats::Table::num(static_cast<double>(procs) / target_counts[i], 1),
                   stats::Table::bandwidth(means[i]), stats::Table::bandwidth(maxes[i]),
                   (rel >= 0 ? "+" : "") + stats::Table::num(rel, 1) + "%"});
  }
  std::printf("Adaptive target-count ablation (paper: 672 showed no penalty vs 512)\n%s\n",
              table.render().c_str());
  return 0;
}
