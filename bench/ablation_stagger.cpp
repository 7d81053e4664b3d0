// Ablation — staggered vs simultaneous file opens (metadata-server storms).
//
// The paper's earlier "stagger" work (CUG'09) and its Section I discussion:
// thousands of simultaneous creates/open at a single metadata server degrade
// super-linearly.  Adaptive IO already reduces the create count to one per
// storage target (plus the master file); this bench measures the open phase
// under three policies and two file-count regimes, plus the baseline
// one-file-per-process POSIX storm for contrast.
#include "harness.hpp"

namespace {

using namespace aio;

double open_phase(api::Simulation& machine, std::size_t n_files,
                  core::AdaptiveTransport::Config::OpenMode mode, double gap) {
  core::AdaptiveTransport::Config cfg;
  cfg.n_files = n_files;
  cfg.open_mode = mode;
  cfg.stagger_gap_s = gap;
  core::AdaptiveTransport transport(machine.file_system(), machine.network(), cfg);
  const core::IoResult r =
      machine.run(transport, core::IoJob::uniform(n_files * 4, 1 << 20));
  machine.advance(60.0);
  return r.t_open_done - r.t_begin;
}

}  // namespace

int main() {
  bench::banner("ablation_stagger",
                "design-choice ablation: metadata open storms vs staggered opens",
                "Jaguar metadata server; per-SC file creates; 4 writers per file");

  using OpenMode = core::AdaptiveTransport::Config::OpenMode;

  bench::Report report("ablation_stagger", 920);

  // Both phases share one machine (and its metadata server state), so they
  // run serially.
  struct Out {
    struct OpenPair {
      std::size_t files;
      double storm, staggered;
    };
    struct Storm {
      std::size_t procs;
      double opens_s;
    };
    std::vector<OpenPair> opens;
    std::vector<Storm> storms;
  };
  const Out out = [&] {
    api::Simulation machine(fs::jaguar(), 920, {.background_load = false});
    Out o;
    for (const std::size_t files : {std::size_t{128}, std::size_t{512}}) {
      const double storm = open_phase(machine, files, OpenMode::Storm, 0.0);
      const double stag = open_phase(machine, files, OpenMode::Staggered, 0.002);
      o.opens.push_back({files, storm, stag});
    }
    // Contrast: the one-file-per-process storm adaptive IO avoids by design.
    for (const std::size_t procs : {std::size_t{2048}, std::size_t{8192}, std::size_t{16384}}) {
      fs::MetadataServer mds(machine.engine(), fs::jaguar().fs.mds);
      double done = 0.0;
      std::size_t remaining = procs;
      const double t0 = machine.engine().now();
      for (std::size_t i = 0; i < procs; ++i) {
        mds.submit(fs::MetadataServer::OpKind::Open, [&](sim::Time now) {
          if (--remaining == 0) done = now - t0;
        });
      }
      machine.engine().run();
      o.storms.push_back({procs, done});
    }
    return o;
  }();

  stats::Table table({"files", "storm opens (s)", "staggered opens (s)", "storm/staggered"});
  for (const auto& p : out.opens) {
    report.row()
        .tag("phase", "adaptive_opens")
        .value("files", static_cast<double>(p.files))
        .value("storm_s", p.storm)
        .value("staggered_s", p.staggered);
    table.add_row({std::to_string(p.files), stats::Table::num(p.storm, 4),
                   stats::Table::num(p.staggered, 4),
                   stats::Table::num(p.storm / p.staggered, 2) + "x"});
  }
  std::printf("Adaptive per-SC creates (one file per target + master)\n%s\n",
              table.render().c_str());

  stats::Table posix({"processes", "creates", "storm opens (s)"});
  for (const auto& s : out.storms) {
    report.row()
        .tag("phase", "posix_storm")
        .value("procs", static_cast<double>(s.procs))
        .value("opens_s", s.opens_s);
    posix.add_row(
        {std::to_string(s.procs), std::to_string(s.procs), stats::Table::num(s.opens_s, 2)});
  }
  std::printf("Baseline one-file-per-process create storm (what adaptive IO avoids)\n%s\n",
              posix.render().c_str());
  std::printf("Expect: staggering flattens the queue penalty; adaptive's per-target file\n"
              "count makes the metadata phase a function of targets, not processes.\n");
  return 0;
}
