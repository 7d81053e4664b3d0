// Ablation — writers per storage target (the paper's untried generalization).
//
// "One might use 2 or 3 simultaneous writers per storage location ... We
// have not experimented with these generalizations."  (Paper, Section III.)
// This bench does: max_concurrent = 1 (the paper's configuration), 2 and 3
// local writers in flight per sub-coordinator file.  More concurrency
// trades per-target interference for shorter queues.
#include "harness.hpp"
#include "workload/pixie3d.hpp"

namespace {
using namespace aio;
}  // namespace

int main() {
  const std::size_t samples = bench::samples_or(5);
  const std::size_t max_procs = bench::max_procs_or(8192);
  bench::warn_unreached_max_procs(max_procs, {2048, 8192});
  bench::banner("ablation_concurrency",
                "design-choice ablation: 1 / 2 / 3 simultaneous writers per target",
                "Pixie3D large (128 MB), Jaguar, adaptive/512 OSTs");

  bench::Report report("ablation_concurrency", 910);
  report.config("samples", static_cast<double>(samples))
      .config("max_procs", static_cast<double>(max_procs));
  stats::Table table({"procs", "k=1 avg", "k=2 avg", "k=3 avg", "k=2 vs k=1", "k=3 vs k=1"});
  const workload::Pixie3dConfig model = workload::Pixie3dConfig::large_model();

  // One machine carries the whole sweep in sequence, so it runs serially.
  struct Point {
    std::size_t procs;
    std::size_t k;
    stats::Summary bw;
  };
  const auto points = [&] {
    api::Simulation machine(fs::jaguar(), 910, {.min_ranks = max_procs});
    std::vector<Point> out;
    for (const std::size_t procs : {std::size_t{2048}, std::size_t{8192}}) {
      if (procs > max_procs) continue;
      const core::IoJob job = workload::pixie3d_job(model, procs);
      for (std::size_t k = 1; k <= 3; ++k) {
        core::AdaptiveTransport::Config cfg;
        cfg.n_files = 512;
        cfg.max_concurrent = k;
        core::AdaptiveTransport transport(machine.file_system(), machine.network(), cfg);
        stats::Summary bw;
        for (std::size_t s = 0; s < samples; ++s) {
          bw.add(machine.run(transport, job).bandwidth());
          machine.advance(600.0);
        }
        out.push_back({procs, k, bw});
      }
    }
    return out;
  }();

  for (std::size_t i = 0; i < points.size(); i += 3) {
    double means[4] = {0, 0, 0, 0};
    for (std::size_t j = 0; j < 3; ++j) {
      const Point& p = points[i + j];
      means[p.k] = p.bw.mean();
      report.row()
          .value("procs", static_cast<double>(p.procs))
          .value("writers_per_target", static_cast<double>(p.k))
          .stat("bw", p.bw);
    }
    auto pct = [&](std::size_t k) {
      const double gain = (means[k] / means[1] - 1.0) * 100.0;
      return (gain >= 0 ? "+" : "") + stats::Table::num(gain, 1) + "%";
    };
    table.add_row({std::to_string(points[i].procs), stats::Table::bandwidth(means[1]),
                   stats::Table::bandwidth(means[2]), stats::Table::bandwidth(means[3]),
                   pct(2), pct(3)});
  }
  std::printf("Writers-per-target ablation\n%s\n", table.render().c_str());
  return 0;
}
