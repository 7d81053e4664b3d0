// Extension — history-aware target placement (paper Section VI future work).
//
// "There are likely more complex and/or state-rich methods for system
// adaptation, including those that take into account past usage data."
// On Jaguar the adaptive transport uses 512 of the 672 OSTs; which 512 is a
// free choice.  This bench compares naive placement (the first 512) against
// placement informed by a probe of every target's recent service time — the
// state a production deployment accumulates across output steps — under
// production background load.
#include <optional>

#include "core/transports/target_probe.hpp"
#include "harness.hpp"
#include "workload/pixie3d.hpp"

namespace {
using namespace aio;
}  // namespace

int main() {
  const std::size_t samples = bench::samples_or(5);
  const std::size_t procs = bench::max_procs_or(4096);
  bench::banner("ext_history_targets",
                "future-work extension: past-usage-informed choice of the 512 targets",
                "Pixie3D large (128 MB), Jaguar (672 OSTs), adaptive transport");

  bench::Report report("ext_history_targets", 950);
  report.config("samples", static_cast<double>(samples))
      .config("procs", static_cast<double>(procs));
  stats::Table table({"placement", "avg bandwidth", "min", "max"});
  // Naive and informed placement alternate on one evolving machine (the
  // probe history is the point), so this bench runs serially.
  struct Result {
    stats::Summary naive_bw;
    stats::Summary informed_bw;
  };
  const auto [naive_bw, informed_bw] = [&] {
    api::Simulation machine(fs::jaguar(), 950, {.min_ranks = procs});
    const core::IoJob job =
        workload::pixie3d_job(workload::Pixie3dConfig::large_model(), procs);
    Result r;
    for (std::size_t s = 0; s < samples; ++s) {
      // Naive: the first 512 targets, whatever their current state.
      core::AdaptiveTransport::Config naive_cfg;
      naive_cfg.n_files = 512;
      core::AdaptiveTransport naive(machine.file_system(), machine.network(), naive_cfg);
      r.naive_bw.add(machine.run(naive, job).bandwidth());
      machine.advance(600.0);

      // Informed: probe all 672 targets (1 MB durable each — the cost of one
      // tiny output step), then take the fastest 512.
      std::optional<std::vector<double>> probe;
      core::probe_targets(machine.file_system(), 1 << 20,
                          [&](std::vector<double> sec) { probe = std::move(sec); });
      machine.engine().run();
      core::AdaptiveTransport::Config informed_cfg;
      informed_cfg.targets = core::rank_targets(*probe, 512);
      core::AdaptiveTransport informed(machine.file_system(), machine.network(), informed_cfg);
      r.informed_bw.add(machine.run(informed, job).bandwidth());
      machine.advance(600.0);
    }
    return r;
  }();

  table.add_row({"naive (first 512)", stats::Table::bandwidth(naive_bw.mean()),
                 stats::Table::bandwidth(naive_bw.min()),
                 stats::Table::bandwidth(naive_bw.max())});
  table.add_row({"history-informed (best 512 of 672)",
                 stats::Table::bandwidth(informed_bw.mean()),
                 stats::Table::bandwidth(informed_bw.min()),
                 stats::Table::bandwidth(informed_bw.max())});
  const double gain = (informed_bw.mean() / naive_bw.mean() - 1.0) * 100.0;
  report.row().tag("placement", "naive").stat("bw", naive_bw);
  report.row().tag("placement", "informed").value("gain_pct", gain).stat("bw", informed_bw);
  std::printf("History-aware placement\n%s\ninformed vs naive: %+.1f%%\n"
              "(gains are bounded: stealing already routes around slow targets at run\n"
              "time; informed placement removes them from the set up front.)\n",
              table.render().c_str(), gain);
  return 0;
}
