// Pixie3D checkpoint campaign.
//
// Reproduces the paper's motivating scenario: a fusion code writing restart
// dumps every 15-30 simulated minutes must stay "within a generally
// acceptable 5% of wall clock time spent in IO".  This example runs a
// multi-step Pixie3D campaign (128 MB/process, 2048 processes) under both
// the MPI-IO and adaptive transports and reports each step's IO time, the
// cumulative IO share of wall-clock, and whether the 5% budget holds.
#include <algorithm>
#include <cstdio>

#include "core/api/adios.hpp"
#include "workload/pixie3d.hpp"

using namespace aio;

namespace {

struct Campaign {
  double io_seconds = 0.0;
  double wall_seconds = 0.0;
  double worst_step = 0.0;
};

Campaign run_campaign(api::Simulation& sim, core::Transport& transport, const core::IoJob& job,
                      int steps, double compute_s) {
  Campaign c;
  const double t0 = sim.engine().now();
  for (int s = 0; s < steps; ++s) {
    const double io = sim.run(transport, job).io_seconds();
    c.io_seconds += io;
    c.worst_step = std::max(c.worst_step, io);
    std::printf("    step %d: %7.2f s IO\n", s, io);
    sim.advance(compute_s);
  }
  c.wall_seconds = sim.engine().now() - t0;
  return c;
}

}  // namespace

int main() {
  constexpr std::size_t kProcs = 2048;
  constexpr int kSteps = 4;
  constexpr double kComputePhase = 900.0;  // 15-minute output cadence

  const core::IoJob job =
      workload::pixie3d_job(workload::Pixie3dConfig::large_model(), kProcs);
  std::printf("Pixie3D checkpoint campaign: %zu procs, %d steps, %.0f MB/process, "
              "15-minute cadence\n\n",
              kProcs, kSteps, job.bytes_per_writer[0] / 1e6);

  for (const bool adaptive : {false, true}) {
    api::Simulation sim(fs::jaguar(), /*seed=*/7);

    std::printf("  %s:\n", adaptive ? "Adaptive (512 targets)" : "MPI-IO (160 OSTs)");
    Campaign c;
    if (adaptive) {
      core::AdaptiveTransport::Config cfg;
      cfg.n_files = 512;
      core::AdaptiveTransport transport(sim.file_system(), sim.network(), cfg);
      c = run_campaign(sim, transport, job, kSteps, kComputePhase);
    } else {
      core::MpiioTransport::Config cfg;
      cfg.stripe_count = 160;
      cfg.stripe_size = job.bytes_per_writer[0];
      core::MpiioTransport transport(sim.file_system(), cfg);
      c = run_campaign(sim, transport, job, kSteps, kComputePhase);
    }
    const double share = 100.0 * c.io_seconds / c.wall_seconds;
    std::printf("    total IO %.1f s over %.0f s wall (%.1f%% of wall clock) — %s\n"
                "    worst step %.1f s\n\n",
                c.io_seconds, c.wall_seconds, share,
                share <= 5.0 ? "within the 5% budget" : "OVER the 5% budget",
                c.worst_step);
  }
  return 0;
}
