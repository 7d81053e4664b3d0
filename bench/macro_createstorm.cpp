// Paper-scale create storms against the metadata tier.
//
// The file-per-process pattern the paper's stagger work exists to soften:
// every writer creates its own file at the same instant, and the whole storm
// serializes through the metadata service whose per-request cost grows
// super-linearly with backlog.  This bench drives the `MdsGroup` tier
// directly (the ablation_stagger storm loop, scaled up) and sweeps the two
// levers that move that wall:
//
//   * tier width  — 1/2/4/8 independent metadata servers, hash placement;
//   * client batching — one batched CREATE per contiguous span of writers
//     per server (the sub-coordinator amortization), span = kBatch (64).
//
// Arrival model: a deterministic fan-out ramp.  Ranks do not reach the
// metadata service in the same nanosecond — they arrive at the fan-out rate
// of the open collective, here one writer every 50us (20k opens/s).  A
// writer's open latency is completion minus its own arrival.  The seed path
// (1 MDS, request per file) is ~10x overloaded at that rate, so the queue
// — and with it the superlinear backlog penalty — absorbs the whole storm:
// latency ramps into the hundreds of seconds and its CoV is the ramp's.
// The tier + batching keep utilization below one, so latency collapses to
// roughly one batched service time and the CoV falls with it.
//
// Reported per (writers x tier x mode) row: per-writer open latency
// (mean/cov + p50/p90/p99), the storm span, and per-MDS queue telemetry
// (requests, items, peak backlog) — the same numbers the journal's kMdsOp
// records reproduce through tools/aio_report, which CI cross-checks.
//
// Knobs: AIO_BENCH_MAX_PROCS trims the sweep; AIO_MDS_COUNT pins the tier
// sweep to one width; AIO_JOURNAL/AIO_REPORT/AIO_TRACE capture the journal
// and AIO_LIVE streams live rows, through the same api::Observers every
// bench machine owns.  All knobs unset keeps stdout deterministic run to run.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "fs/mds_group.hpp"
#include "harness.hpp"

namespace {

using namespace aio;

enum class Mode { PerFile, Batched };

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::PerFile: return "perfile";
    case Mode::Batched: return "batched";
  }
  return "?";
}

struct PerMds {
  std::uint64_t ops = 0;    // requests (a batch counts once)
  std::uint64_t items = 0;  // creates carried
  std::size_t peak_backlog = 0;
};

struct StormOut {
  stats::Summary lat;   // per-writer submit -> create-visible latency
  obs::Histogram hist;  // same samples, for p50/p90/p99
  double span_s = 0.0;  // storm start to last completion (simulated)
  double wall_s = 0.0;  // host cost of the sample
  std::vector<PerMds> per_mds;
};

/// Fan-out gap between consecutive writer arrivals: one open every 50us,
/// the 20k-opens/s rate of the collective's hand-off fan-out.  The seed
/// metadata service needs ~0.5ms+penalty per create, so the single-server
/// per-file path runs ~10x past saturation at this rate while the tier +
/// batching stay comfortably below it.
constexpr double kArrivalGap_s = 50e-6;

/// Writers per batched CREATE in batched mode: one sub-coordinator span.
constexpr std::size_t kBatch = 64;

/// One storm: `procs` writers create one file each, arriving on the fan-out
/// ramp (writer i at `i * kArrivalGap_s`) against a fresh `n_mds`-wide
/// tier; the sample tears the engine down with it.  A writer's latency is
/// create-visible minus its own arrival — for batched mode that includes
/// the wait for its span to assemble.
StormOut run_storm(std::size_t procs, std::size_t n_mds, Mode mode, api::Observers& sweep) {
  const auto w0 = std::chrono::steady_clock::now();
  sim::Engine engine(sweep.journal(), sweep.live());
  sweep.arm(engine);  // periodic aio-live-v1 rows
  fs::MdsGroup::Config gc;
  gc.count = n_mds;
  gc.server = fs::jaguar().fs.mds;
  fs::MdsGroup group(engine, gc);

  StormOut out;
  std::size_t remaining = procs;
  // Completion sink for `k` writers whose arrivals started at `first_arrival`
  // and are spaced arbitrarily; callers pass each writer's own arrival time.
  auto complete_one = [&out, &remaining](sim::Time now, double arrival) {
    const double l = now - arrival;
    out.lat.add(l);
    out.hist.add(l);
    if (--remaining == 0) out.span_s = now;
  };

  const std::string prefix = "storm/pp.";
  const auto arrival_of = [](std::size_t i) { return static_cast<double>(i) * kArrivalGap_s; };
  // Batched mode's per-(span, server) member lists; its callbacks read them
  // until the engine drains.
  std::vector<std::vector<std::uint32_t>> members;
  switch (mode) {
    case Mode::PerFile:
      // The seed path: every writer issues its own create on arrival.
      for (std::size_t i = 0; i < procs; ++i) {
        const std::size_t m = group.index_of(prefix + std::to_string(i));
        engine.schedule_after(arrival_of(i), [&group, &complete_one, m, i, &arrival_of] {
          group.submit(m, fs::MetadataServer::OpKind::Create,
                       [&complete_one, a = arrival_of(i)](sim::Time now) {
                         complete_one(now, a);
                       });
        });
      }
      break;
    case Mode::Batched: {
      // Sub-coordinator shape: each contiguous span of kBatch writers is
      // collected as its members arrive and, when the last one lands, hands
      // every server one batched CREATE covering its span members.  Member
      // lists are precomputed so completion callbacks stay small.
      const std::size_t n_spans = (procs + kBatch - 1) / kBatch;
      members.resize(n_spans * n_mds);
      for (std::size_t i = 0; i < procs; ++i)
        members[(i / kBatch) * n_mds + group.index_of(prefix + std::to_string(i))].push_back(
            static_cast<std::uint32_t>(i));
      for (std::size_t s = 0; s < n_spans; ++s) {
        const std::size_t hi = std::min(procs, (s + 1) * kBatch);
        engine.schedule_after(arrival_of(hi - 1), [&group, &members, &complete_one, &arrival_of,
                                                   s, n_mds] {
          for (std::size_t m = 0; m < n_mds; ++m) {
            const std::vector<std::uint32_t>& who = members[s * n_mds + m];
            if (who.empty()) continue;
            group.submit_batch(m, fs::MetadataServer::OpKind::Create, who.size(),
                               [&complete_one, &arrival_of, &who](sim::Time now) {
                                 for (const std::uint32_t i : who) complete_one(now, arrival_of(i));
                               });
          }
        });
      }
      break;
    }
  }
  engine.run();
  if (remaining != 0)
    throw std::runtime_error("macro_createstorm: storm did not complete at " +
                             std::to_string(procs) + " writers");

  out.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - w0).count();
  out.per_mds.resize(n_mds);
  for (std::size_t m = 0; m < n_mds; ++m) {
    out.per_mds[m].ops = group.server(m).completed_ops();
    out.per_mds[m].items = group.server(m).completed_items();
    out.per_mds[m].peak_backlog = group.server(m).peak_backlog();
  }
  return out;
}

}  // namespace

int main() {
  const std::size_t max_procs = bench::max_procs_or(224160);
  bench::warn_unreached_max_procs(max_procs, {16384, 65536, 224160});
  bench::banner("macro_createstorm",
                "file-per-process create storms vs the multi-MDS tier",
                "Jaguar metadata service model; hash placement; batching + proxy levers");

  bench::Report report("macro_createstorm", 9100);
  report.config("batch", static_cast<double>(kBatch))
      .config("max_procs", static_cast<double>(max_procs));

  // The tier sweep: pinned by AIO_MDS_COUNT, otherwise 1/2/4/8.
  std::vector<std::size_t> mds_sweep{1, 2, 4, 8};
  if (const std::size_t n_mds = obs::env_count("AIO_MDS_COUNT", 0); n_mds > 0)
    mds_sweep = {n_mds};

  // One journal and live plane across the whole sweep, written when `sweep`
  // is destroyed at the end of main: journal, report and trace, live tail.
  api::Observers sweep(/*slot=*/0);
  if (obs::Journal* const journal = sweep.journal()) journal->reserve(1 << 20);

  stats::Table table(
      {"writers", "mds", "mode", "mean ms", "p99 ms", "cov", "span s", "peak queue"});

  for (const std::size_t procs :
       {std::size_t{16384}, std::size_t{65536}, std::size_t{224160}}) {
    if (procs > max_procs) continue;
    for (const std::size_t n_mds : mds_sweep) {
      for (const Mode mode : {Mode::PerFile, Mode::Batched}) {
        const StormOut out = run_storm(procs, n_mds, mode, sweep);
        std::size_t peak = 0;
        for (const PerMds& m : out.per_mds) peak = std::max(peak, m.peak_backlog);
        table.add_row({std::to_string(procs), std::to_string(n_mds), mode_name(mode),
                       stats::Table::num(out.lat.mean() * 1e3, 2),
                       stats::Table::num(out.hist.quantile(0.99) * 1e3, 2),
                       stats::Table::num(out.lat.cv(), 3),
                       stats::Table::num(out.span_s, 2), std::to_string(peak)});
        auto& row = report.row();
        row.tag("mode", mode_name(mode))
            .value("procs", static_cast<double>(procs))
            .value("n_mds", static_cast<double>(n_mds))
            .value("batch", static_cast<double>(mode == Mode::Batched ? kBatch : 0))
            .value("span_s", out.span_s)
            .value("wall_s", out.wall_s)
            .value("peak_backlog", static_cast<double>(peak))
            .value("peak_rss_bytes", static_cast<double>(bench::peak_rss_bytes()))
            .stat("open_latency_s", out.lat, out.hist);
        for (std::size_t m = 0; m < out.per_mds.size(); ++m) {
          const std::string key = "mds" + std::to_string(m);
          row.value(key + "_ops", static_cast<double>(out.per_mds[m].ops))
              .value(key + "_items", static_cast<double>(out.per_mds[m].items))
              .value(key + "_peak_backlog", static_cast<double>(out.per_mds[m].peak_backlog));
        }
      }
    }
  }

  std::printf("%s\n", table.render().c_str());
  std::printf("Expect: widening the tier divides the storm; batching collapses the request\n"
              "count itself (p99 falls and flattens).\n");
  return 0;
}
