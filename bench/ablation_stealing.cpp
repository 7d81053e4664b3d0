// Ablation — work stealing on/off.
//
// Separates the two ingredients of adaptive IO: (1) per-target write
// serialization under sub-coordinators (helps *internal* interference), and
// (2) the coordinator's redistribution of waiting writers from slow to fast
// targets (helps *external* interference).  Stealing is what the paper's
// Algorithm 3 adds; with it disabled the transport degenerates to static
// one-file-per-target output.
#include "harness.hpp"
#include "workload/pixie3d.hpp"

namespace {
using namespace aio;
}  // namespace

int main() {
  const std::size_t samples = bench::samples_or(5);
  const std::size_t max_procs = bench::max_procs_or(8192);
  bench::warn_unreached_max_procs(max_procs, {512, 2048, 8192});
  bench::banner("ablation_stealing",
                "design-choice ablation: coordinator work redistribution on/off",
                "Pixie3D large (128 MB), Jaguar, adaptive/512 OSTs, with interference job");

  bench::Report report("ablation_stealing", 900);
  report.config("samples", static_cast<double>(samples))
      .config("max_procs", static_cast<double>(max_procs));
  stats::Table table({"procs", "no-steal avg", "steal avg", "steal gain", "no-steal stddev(s)",
                      "steal stddev(s)", "steals/run"});
  const workload::Pixie3dConfig model = workload::Pixie3dConfig::large_model();

  // One machine carries the whole on/off sweep in sequence, so it runs serially.
  struct Point {
    std::size_t procs;
    stats::Summary off_bw, off_t, on_bw, on_t, steals;
  };
  const auto points = [&] {
    api::Simulation machine(fs::jaguar(), 900,
                            {.interference_job = true, .min_ranks = max_procs});
    std::vector<Point> out;
    for (const std::size_t procs : {std::size_t{512}, std::size_t{2048}, std::size_t{8192}}) {
      if (procs > max_procs) continue;
      core::AdaptiveTransport::Config off_cfg;
      off_cfg.n_files = 512;
      off_cfg.stealing = false;
      core::AdaptiveTransport off(machine.file_system(), machine.network(), off_cfg);
      core::AdaptiveTransport::Config on_cfg;
      on_cfg.n_files = 512;
      core::AdaptiveTransport on(machine.file_system(), machine.network(), on_cfg);

      const core::IoJob job = workload::pixie3d_job(model, procs);
      Point p;
      p.procs = procs;
      for (std::size_t s = 0; s < samples; ++s) {
        const core::IoResult ro = machine.run(off, job);
        p.off_bw.add(ro.bandwidth());
        p.off_t.add(ro.io_seconds());
        machine.advance(600.0);
        const core::IoResult rn = machine.run(on, job);
        p.on_bw.add(rn.bandwidth());
        p.on_t.add(rn.io_seconds());
        p.steals.add(static_cast<double>(rn.steals));
        machine.advance(600.0);
      }
      out.push_back(std::move(p));
    }
    return out;
  }();

  for (const auto& p : points) {
    const double gain = (p.on_bw.mean() / p.off_bw.mean() - 1.0) * 100.0;
    report.row()
        .value("procs", static_cast<double>(p.procs))
        .value("gain_pct", gain)
        .stat("nosteal_bw", p.off_bw)
        .stat("steal_bw", p.on_bw)
        .stat("nosteal_t", p.off_t)
        .stat("steal_t", p.on_t)
        .stat("steals", p.steals);
    table.add_row({std::to_string(p.procs), stats::Table::bandwidth(p.off_bw.mean()),
                   stats::Table::bandwidth(p.on_bw.mean()),
                   (gain >= 0 ? "+" : "") + stats::Table::num(gain, 0) + "%",
                   stats::Table::num(p.off_t.stddev(), 2), stats::Table::num(p.on_t.stddev(), 2),
                   stats::Table::num(p.steals.mean(), 0)});
  }
  std::printf("Stealing ablation (expect: gains once procs >> targets, lower stddev)\n%s\n",
              table.render().c_str());
  return 0;
}
