// Extension — data staging vs adaptive IO (paper Section II-3).
//
// The paper's "Alternatives to Adaptive IO": staging looks instant while the
// output fits the staging buffers, but "the total buffer space available in
// the staging area is limited, thereby limiting the achievable degree of
// asynchronicity", typically to "one or at most a few simulation output
// steps" — after which the application blocks on the drain anyway.
//
// This bench writes a sequence of Pixie3D output steps at checkpoint
// cadence through a staging area sized to hold ~1.5 steps, and reports each
// step's app-visible IO time: step 1 is nearly free, later steps degrade
// toward drain speed.  The adaptive transport is shown alongside: slower
// than an empty buffer, but *consistent* — the paper's point that staging
// complements rather than replaces managed IO.
#include <optional>

#include "core/transports/adaptive_transport.hpp"
#include "core/transports/staging_transport.hpp"
#include "harness.hpp"
#include "workload/pixie3d.hpp"

namespace {

using namespace aio;

}  // namespace

int main() {
  const std::size_t procs = bench::max_procs_or(2048);
  const std::size_t steps = bench::samples_or(5);
  bench::banner("ext_staging",
                "Section II-3: staging's buffer-limited asynchronicity vs adaptive IO",
                "Pixie3D large (128 MB), Jaguar, 128 staging nodes sized to ~1.5 steps");

  const core::IoJob job =
      workload::pixie3d_job(workload::Pixie3dConfig::large_model(), procs);
  const double step_bytes = job.total_bytes();

  // Burst cadence: output steps arrive faster than the staging area can
  // drain — the regime where the paper's buffer-space argument bites.
  // (At relaxed checkpoint cadence the drain keeps up and staging hides IO
  // completely; that regime is reported in the footer.)
  const double cadence = 5.0;

  // The staging and adaptive series share one evolving machine (and the
  // staging residue is the experiment), so this bench runs serially.
  struct Out {
    double capacity_bytes;
    std::vector<double> staged_times;
    std::vector<double> residues;
    std::vector<double> adaptive_times;
  };
  const Out out = [&] {
    api::Simulation machine(fs::jaguar(), 960, {.min_ranks = procs});
    core::StagingTransport::Config st_cfg;
    st_cfg.n_staging_nodes = 128;
    st_cfg.buffer_bytes = 1.5 * step_bytes / st_cfg.n_staging_nodes;
    core::StagingTransport staging(machine.file_system(), st_cfg);

    core::AdaptiveTransport::Config ad_cfg;
    ad_cfg.n_files = 512;
    core::AdaptiveTransport adaptive(machine.file_system(), machine.network(), ad_cfg);

    Out o;
    o.capacity_bytes = staging.capacity_bytes();
    for (std::size_t s = 0; s < steps; ++s) {
      std::optional<core::IoResult> staged;
      staging.run(job, [&](core::IoResult r) { staged = std::move(r); });
      while (!staged) machine.engine().run_until(machine.engine().now() + 0.5);
      o.staged_times.push_back(staged->io_seconds());
      o.residues.push_back(staging.buffered_bytes());
      machine.advance(cadence);
    }
    // Drain fully, then run the adaptive series at the same burst cadence.
    machine.engine().run();
    machine.advance(60.0);
    for (std::size_t s = 0; s < steps; ++s) {
      o.adaptive_times.push_back(machine.run(adaptive, job).io_seconds());
      machine.advance(cadence);
    }
    return o;
  }();

  bench::Report report("ext_staging", 960);
  report.config("procs", static_cast<double>(procs))
      .config("steps", static_cast<double>(steps))
      .config("cadence_s", cadence)
      .config("step_bytes", step_bytes)
      .config("capacity_bytes", out.capacity_bytes);
  const std::vector<double>& staged_times = out.staged_times;
  const std::vector<double>& residues = out.residues;
  const std::vector<double>& adaptive_times = out.adaptive_times;

  stats::Table table({"step", "staging app-visible (s)", "staging residue after",
                      "adaptive (s)"});
  for (std::size_t s = 0; s < steps; ++s) {
    report.row()
        .value("step", static_cast<double>(s))
        .value("staging_s", staged_times[s])
        .value("residue_bytes", residues[s])
        .value("adaptive_s", adaptive_times[s]);
    table.add_row({std::to_string(s), stats::Table::num(staged_times[s], 1),
                   stats::Table::bytes(residues[s]), stats::Table::num(adaptive_times[s], 1)});
  }
  std::printf("Each step writes %s; staging capacity %s (~1.5 steps)\n%s\n",
              stats::Table::bytes(step_bytes).c_str(),
              stats::Table::bytes(out.capacity_bytes).c_str(), table.render().c_str());
  std::printf("Shape (paper SII-3): step 0 is absorbed at network speed; once the residue\n"
              "approaches capacity, later steps block on the drain — \"near-synchronous\n"
              "IO\".  At relaxed checkpoint cadence (15+ min) the drain keeps up and the\n"
              "cliff never appears, which is why the paper treats staging as a\n"
              "complement: its own staging software integrates adaptive IO underneath.\n");
  return 0;
}
