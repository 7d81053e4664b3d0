// Figure 5 — Pixie3D IO performance, adaptive vs MPI-IO.
//
// The paper's Section IV evaluation on Jaguar: the Pixie3D IO kernel at
// three data models (small 2 MB, large 128 MB, extra-large 1 GB per
// process), 512..16384 processes, MPI-IO against 160 OSTs (the Lustre
// single-file limit) vs adaptive against 512 OSTs, under normal background
// conditions and with the artificial interference job (24 processes
// continuously writing 1 GB to a file striped over 8 OSTs).  Reported time
// covers write + flush + close, excluding opens.
//
// Shape targets: small model ~10% adaptive advantage growing with scale;
// large model +1%..350% base and +62%..430% with interference; extra-large
// ~4.8x with >300% whenever there are more processes than targets.
#include "harness.hpp"
#include "parallel.hpp"
#include "workload/pixie3d.hpp"

namespace {

using namespace aio;

struct Condition {
  const char* name;
  bool interference;
};

constexpr Condition kConditions[] = {{"base", false}, {"interference", true}};

struct ScalePoint {
  std::size_t procs;
  double gain;
  stats::Summary mpi_bw;
  stats::Summary ad_bw;
  stats::Summary steals;
};

// One replication unit: one (model, condition) pair on its own machine —
// every scale faces the same storage system and the same evolving
// background, exactly like consecutive job sizes on the real Jaguar.
std::vector<ScalePoint> run_condition(const workload::Pixie3dConfig& model, bool interference,
                                      std::size_t samples, std::size_t max_procs,
                                      std::uint64_t seed, int obs_slot) {
  api::Simulation machine(
      fs::jaguar(), seed + (interference ? 7 : 0),
      {.interference_job = interference, .min_ranks = max_procs, .slot = obs_slot});
  std::vector<ScalePoint> points;
  for (const std::size_t procs : {std::size_t{512}, std::size_t{2048}, std::size_t{8192},
                                  std::size_t{16384}}) {
    if (procs > max_procs) continue;

    core::MpiioTransport::Config mpi_cfg;
    mpi_cfg.stripe_count = 160;
    // ADIOS's tuned Lustre striping gives every rank a stripe-aligned
    // region: one contiguous segment per writer.
    mpi_cfg.stripe_size = model.bytes_per_process();
    mpi_cfg.max_segments = 4;
    core::MpiioTransport mpi(machine.file_system(), mpi_cfg);

    core::AdaptiveTransport::Config ad_cfg;
    ad_cfg.n_files = 512;
    core::AdaptiveTransport adaptive(machine.file_system(), machine.network(), ad_cfg);

    const core::IoJob job = workload::pixie3d_job(model, procs);
    stats::Summary mpi_bw;
    stats::Summary ad_bw;
    stats::Summary steals;
    for (std::size_t s = 0; s < samples; ++s) {
      mpi_bw.add(machine.run(mpi, job).bandwidth());
      machine.advance(600.0);
      const core::IoResult ar = machine.run(adaptive, job);
      ad_bw.add(ar.bandwidth());
      steals.add(static_cast<double>(ar.steals));
      machine.advance(600.0);
    }
    const double gain = (ad_bw.mean() / mpi_bw.mean() - 1.0) * 100.0;
    points.push_back({procs, gain, mpi_bw, ad_bw, steals});
  }
  return points;
}

}  // namespace

int main() {
  const std::size_t samples = bench::samples_or(5);
  const std::size_t max_procs = bench::max_procs_or(16384);
  bench::warn_unreached_max_procs(max_procs, {512, 2048, 8192, 16384});
  bench::banner("fig5_pixie3d",
                "Fig. 5(a) small 2 MB, 5(b) large 128 MB, 5(c) extra-large 1 GB per process",
                "Pixie3D kernel, Jaguar, MPI-IO/160 OSTs vs adaptive/512 OSTs");

  bench::Report report("fig5_pixie3d", 100);
  report.config("samples", static_cast<double>(samples))
      .config("max_procs", static_cast<double>(max_procs));

  struct Model {
    const char* title;
    const char* tag;
    workload::Pixie3dConfig config;
    std::uint64_t seed;
  };
  const Model models[] = {
      {"Fig 5(a): Pixie3D small data (2 MB/process)", "small",
       workload::Pixie3dConfig::small_model(), 100},
      {"Fig 5(b): Pixie3D large data (128 MB/process)", "large",
       workload::Pixie3dConfig::large_model(), 200},
      {"Fig 5(c): Pixie3D extra-large data (1 GB/process)", "xl",
       workload::Pixie3dConfig::xl_model(), 300},
  };

  // 3 models x 2 conditions = 6 independent machines.
  const auto results = bench::run_samples(6, [&](std::size_t i) {
    const Model& m = models[i / 2];
    const Condition& cond = kConditions[i % 2];
    return run_condition(m.config, cond.interference, samples, max_procs, m.seed,
                         static_cast<int>(i));
  });

  for (std::size_t mi = 0; mi < 3; ++mi) {
    const Model& m = models[mi];
    stats::Table table({"condition", "procs", "MPI-IO avg", "MPI-IO max", "Adaptive avg",
                        "Adaptive max", "adaptive gain", "steals/run"});
    for (std::size_t ci = 0; ci < 2; ++ci) {
      const Condition& cond = kConditions[ci];
      for (const ScalePoint& p : results[mi * 2 + ci]) {
        report.row()
            .tag("model", m.tag)
            .tag("condition", cond.name)
            .value("procs", static_cast<double>(p.procs))
            .value("seed", static_cast<double>(m.seed))
            .value("gain_pct", p.gain)
            .stat("mpiio_bw", p.mpi_bw)
            .stat("adaptive_bw", p.ad_bw)
            .stat("steals", p.steals);
        table.add_row({cond.name, std::to_string(p.procs),
                       stats::Table::bandwidth(p.mpi_bw.mean()),
                       stats::Table::bandwidth(p.mpi_bw.max()),
                       stats::Table::bandwidth(p.ad_bw.mean()),
                       stats::Table::bandwidth(p.ad_bw.max()),
                       (p.gain >= 0 ? "+" : "") + stats::Table::num(p.gain, 0) + "%",
                       stats::Table::num(p.steals.mean(), 0)});
      }
    }
    std::printf("%s\n%s\n", m.title, table.render().c_str());
  }
  return 0;
}
