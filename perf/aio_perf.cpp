// aio_perf: the benchmark program behind perf/run.py.
//
// Runs one workload in this process for a host-time budget and prints one
// JSON document on stdout.  Repetition 0 is a warm-up; every repetition
// builds a fresh rig from the same inputs, and run.py drops rep 0 from the
// timings.  Per repetition the document carries the phase times (rep, setup,
// run, report, check, teardown), the fingerprint and check result of each
// operation, and the simulator counts.  run.py compares the fingerprints with
// rep 0 and with perf/references.json and turns the times into medians.
//
//   aio_perf --workload NAME --seed N --seconds S [--shards N] [--min-reps N]
//            [--work-dir DIR] [--traced --trace-out PATH]
//
// --traced adds spans around every call into the simulator, an allocation
// counter over the run phase, and the shard profiler on the sharded
// workload; the spans are written as a Chrome trace to --trace-out at exit.
// Only public headers under src/ are used, and no environment variable is
// read here.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "alloc_counter.hpp"
#include "core/transports/adaptive_transport.hpp"
#include "core/transports/mpiio_transport.hpp"
#include "core/transports/sharded.hpp"
#include "fs/filesystem.hpp"
#include "fs/interference.hpp"
#include "fs/machine.hpp"
#include "net/network.hpp"
#include "obs/analysis.hpp"
#include "obs/journal.hpp"
#include "obs/json.hpp"
#include "obs/live.hpp"
#include "obs/prof.hpp"
#include "obs/trace_export.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "workload/pixie3d.hpp"

namespace {

using namespace aio;
using Clock = std::chrono::steady_clock;
using obs::Json;

// Workload sizes (see perf/README.md for why each was chosen).
constexpr std::size_t kJaguarWriters = 224160;  // 18,680 nodes x 12 cores
constexpr std::size_t kObservedWriters = 65536;
constexpr std::size_t kVariabilityWriters = 16384;
constexpr std::size_t kVariabilityPairs = 10;
constexpr double kVariabilityGapS = 600.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 710;
  double seconds = 10.0;
  std::size_t shards = 1;
  std::size_t min_reps = 3;
  std::string work_dir = ".";
  bool traced = false;
  std::string trace_out;
};

// ---- spans -------------------------------------------------------------------

/// In-memory span recorder.  Phase spans are always recorded (the end-to-end
/// times come from them); layer spans around simulator calls only when the
/// run is traced.
class Spans {
 public:
  class Scope {
   public:
    Scope(Spans* owner, const char* name) : owner_(owner), id_(owner ? owner->open(name) : 0) {}
    ~Scope() {
      if (owner_) owner_->close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* owner_;
    std::size_t id_;
  };

  explicit Spans(bool traced) : traced_(traced), origin_(Clock::now()) {}

  [[nodiscard]] Scope phase(const char* name) { return Scope(this, name); }
  [[nodiscard]] Scope layer(const char* name) { return Scope(traced_ ? this : nullptr, name); }

  void start_rep(int rep) {
    rep_ = rep;
    first_ = spans_.size();
  }

  /// {name: {"dur": summed duration, "self": summed self time}} over the
  /// current repetition, where self time is duration minus the time covered
  /// by child spans.
  [[nodiscard]] Json rep_times() const {
    std::vector<double> child(spans_.size() - first_, 0.0);
    for (std::size_t i = first_; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.parent != kNone && s.parent >= first_) child[s.parent - first_] += s.t1 - s.t0;
    }
    std::map<std::string, std::pair<double, double>> by_name;
    for (std::size_t i = first_; i < spans_.size(); ++i) {
      const double dur = spans_[i].t1 - spans_[i].t0;
      auto& [d, self] = by_name[spans_[i].name];
      d += dur;
      self += dur - child[i - first_];
    }
    Json out = Json::object();
    for (const auto& [name, ds] : by_name) {
      Json t = Json::object();
      t.set("dur", ds.first);
      t.set("self", ds.second);
      out.set(name, std::move(t));
    }
    return out;
  }

  /// Chrome trace_event document of every recorded span.
  [[nodiscard]] Json chrome_trace() const {
    Json events = Json::array();
    for (const Span& s : spans_) {
      Json e = Json::object();
      e.set("name", s.name);
      e.set("cat", "perf");
      e.set("ph", "X");
      e.set("ts", s.t0 * 1e6);
      e.set("dur", (s.t1 - s.t0) * 1e6);
      e.set("pid", 1);
      e.set("tid", 1);
      Json args = Json::object();
      args.set("rep", s.rep);
      args.set("parent", s.parent == kNone ? "" : spans_[s.parent].name);
      e.set("args", std::move(args));
      events.push(std::move(e));
    }
    Json doc = Json::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", "ms");
    return doc;
  }

 private:
  static constexpr std::size_t kNone = SIZE_MAX;
  struct Span {
    const char* name;
    double t0;
    double t1;
    std::size_t parent;
    int rep;
  };

  std::size_t open(const char* name) {
    spans_.push_back({name, now(), 0.0, open_, rep_});
    open_ = spans_.size() - 1;
    return open_;
  }
  void close(std::size_t id) {
    spans_[id].t1 = now();
    open_ = spans_[id].parent;
  }
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  bool traced_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::size_t open_ = kNone;
  std::size_t first_ = 0;
  int rep_ = 0;
};

/// Counts the allocations made while it is alive, when armed (the traced run
/// arms one around the run phase; the untraced run never counts).
class AllocWindow {
 public:
  explicit AllocWindow(bool armed) : armed_(armed), start_(perf::allocs_counted()) {
    perf::arm_alloc_counter(armed_);
  }
  ~AllocWindow() { perf::arm_alloc_counter(false); }
  AllocWindow(const AllocWindow&) = delete;
  AllocWindow& operator=(const AllocWindow&) = delete;
  [[nodiscard]] std::uint64_t count() const {
    return armed_ ? perf::allocs_counted() - start_ : 0;
  }

 private:
  bool armed_;
  std::uint64_t start_;
};

// ---- fingerprints and checks ---------------------------------------------------

std::uint64_t fnv1a(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  for (int i = 0; i < 8; ++i) {
    h ^= (bits >> (8 * i)) & 0xFF;
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// What one collective output decided: the paper's reported time, the
/// completion instant, the adaptive protocol's steals and grants, a digest of
/// every writer's start and end, and the bytes written beyond the payload
/// (index data for the adaptive transport, 0 for MPI-IO).
Json io_fingerprint(const core::IoResult& r, double extra_bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const core::WriterTiming& w : r.writer_times) h = fnv1a(fnv1a(h, w.start), w.end);
  Json fp = Json::object();
  fp.set("io_seconds", r.io_seconds());
  fp.set("t_complete", r.t_complete);
  fp.set("steals", static_cast<double>(r.steals));
  fp.set("grants", static_cast<double>(r.grants_issued));
  fp.set("writers", hex(h));
  fp.set("extra_bytes", extra_bytes);
  return fp;
}

Json make_op(const char* label, Json fp, std::string error) {
  Json op = Json::object();
  op.set("label", label);
  op.set("fp", std::move(fp));
  op.set("error", std::move(error));
  return op;
}

/// One collective output: completed, every byte of the job accounted for by
/// the result and by the file system, and (with `exact_bytes`) nothing
/// written beyond the payload.
Json io_op(const char* label, const core::IoJob& job, const std::optional<core::IoResult>& r,
           double fs_bytes, bool exact_bytes) {
  if (!r) return make_op(label, nullptr, "did not complete");
  const double want = job.total_bytes();
  std::string err;
  if (r->total_bytes != want)
    err = "result reports " + std::to_string(r->total_bytes) + " bytes, job has " +
          std::to_string(want);
  else if (r->writer_times.size() != job.n_writers())
    err = "result has " + std::to_string(r->writer_times.size()) + " writer times for " +
          std::to_string(job.n_writers()) + " writers";
  else if (fs_bytes < want || (exact_bytes && fs_bytes != want))
    err = "file system received " + std::to_string(fs_bytes) + " bytes for a " +
          std::to_string(want) + "-byte job";
  return make_op(label, io_fingerprint(*r, fs_bytes - want), std::move(err));
}

double num(const Json* j, std::string_view key) {
  const Json* v = j ? j->find(key) : nullptr;
  return v && v->is_number() ? v->number() : std::nan("");
}

bool near(double a, double b, double tol) { return std::fabs(a - b) <= tol; }

/// The report invariants the CI gates check (ci/critical_path_check.py and
/// ci/live_check.py), evaluated here: the critical path tiles io_seconds to
/// 1e-9, the report's run time equals the IoResult to 1e-9, and the live
/// plane's cumulative attribution equals the report's to 1e-6.
std::string check_report(const Json& report, const core::IoResult& r,
                         const obs::LivePlane& live) {
  constexpr double kTol = 1e-9;
  const Json* runs = report.find("runs");
  if (!runs || runs->size() != 1) return "report does not hold exactly one run";
  const Json& run = runs->at(0);
  const double run_time = num(&run, "run_time_s");
  if (!near(run_time, r.io_seconds(), kTol)) return "report run_time_s differs from IoResult";
  const Json* cp = run.find("critical_path");
  const Json* segs = cp ? cp->find("segments") : nullptr;
  if (!segs || segs->size() == 0) return "report run has no critical path";
  double cursor = num(cp, "t0");
  double sum = 0.0;
  for (const Json& seg : segs->items()) {
    const double t0 = num(&seg, "t0");
    const double t1 = num(&seg, "t1");
    const double dur = num(&seg, "dur_s");
    if (!near(t0, cursor, kTol)) return "critical path leaves a gap";
    if (!near(t1 - t0, dur, kTol)) return "critical path segment dur_s disagrees with bounds";
    cursor = t1;
    sum += dur;
  }
  if (!near(cursor, num(cp, "t1"), kTol)) return "critical path does not end at t1";
  const Json* totals = cp->find("totals");
  double typed = 0.0;
  for (const char* k : {"mds_s", "internal_s", "external_s", "network_s", "residual_s"})
    typed += num(totals, k);
  if (!near(sum, run_time, kTol) || !near(num(totals, "sum_s"), run_time, kTol) ||
      !near(typed, run_time, kTol))
    return "critical path does not sum to run_time_s";
  const Json* summary = report.find("summary");
  if (!summary) return "report has no summary";
  const Json* cps = summary->find("critical_path");
  double shares = 0.0;
  for (const char* k :
       {"mds_share", "internal_share", "external_share", "network_share", "residual_share"})
    shares += num(cps, k);
  if (!near(shares, 1.0, kTol)) return "critical path shares do not sum to 1";
  const Json* attrib = summary->find("attribution");
  const obs::LiveWait& cum = live.cumulative();
  const std::pair<const char*, double> keys[] = {{"total_wait_s", cum.total_s},
                                                 {"internal_s", cum.internal_s},
                                                 {"external_s", cum.external_s},
                                                 {"mds_s", cum.mds_s},
                                                 {"network_s", cum.network_s}};
  for (const auto& [k, live_v] : keys) {
    const double off = num(attrib, k);
    if (!(std::fabs(live_v - off) <= 1e-6 * std::max(1.0, std::fabs(off))))
      return std::string("live plane ") + k + " differs from the report";
  }
  if (static_cast<double>(cum.writers) != num(summary, "writers"))
    return "live plane writer count differs from the report";
  return {};
}

// ---- workloads -------------------------------------------------------------------

/// What one repetition hands back besides its spans.
struct Rep {
  Json ops = Json::array();
  Json counts = Json::object();
};

net::NetConfig net_config(const fs::MachineSpec& spec) {
  return net::NetConfig{spec.msg_latency_s, spec.nic_bw, spec.cores_per_node};
}

/// Adaptive IO on a clean Jaguar, one file per OST, opens skipped, streamed
/// merge.  The seed rotates file placement over the OSTs: on identical,
/// unloaded targets the model must give the same answer for every rotation.
core::AdaptiveTransport::Config clean_adaptive(const fs::MachineSpec& spec, std::uint64_t seed) {
  core::AdaptiveTransport::Config cfg;
  cfg.first_ost = static_cast<std::size_t>(seed % spec.fs.n_osts);
  cfg.retain_global_index = false;
  return cfg;
}

/// A single-engine rig.  Members are destroyed in reverse order, so the
/// transport goes before the network and file system it references.
struct ClassicRig {
  ClassicRig(obs::Journal* journal, obs::LivePlane* live)
      : engine(nullptr, nullptr, journal, live) {}
  sim::Engine engine;
  std::optional<fs::FileSystem> fs;
  std::optional<net::Network> net;
  std::optional<core::AdaptiveTransport> transport;
};

/// jaguar_224k (writers = 224,160) and observed_65k (writers = 65,536 with a
/// journal, a query-only live plane and the post-run report).
void clean_rep(const Options& opt, Spans& spans, Rep& out, std::size_t writers, bool observed) {
  const fs::MachineSpec spec = fs::jaguar();
  std::optional<core::IoJob> job;
  std::unique_ptr<obs::Journal> journal;
  std::unique_ptr<obs::LivePlane> live;
  std::optional<ClassicRig> rig;
  std::optional<core::IoResult> result;
  {
    auto phase = spans.phase("setup");
    {
      auto s = spans.layer("workload.job");
      job.emplace(workload::pixie3d_job(workload::Pixie3dConfig::small_model(), writers));
    }
    if (observed) {
      auto s = spans.layer("obs.attach");
      journal = std::make_unique<obs::Journal>(obs::Journal::Config{});
      obs::LivePlane::Config lc;
      lc.flight_records = 0;  // query-only: no snapshot file, no flight ring
      live = std::make_unique<obs::LivePlane>(lc);
    }
    rig.emplace(journal.get(), live.get());
    {
      auto s = spans.layer("fs.build");
      rig->fs.emplace(rig->engine, spec.fs);
    }
    {
      auto s = spans.layer("net.build");
      rig->net.emplace(rig->engine, net_config(spec), writers);
    }
    {
      auto s = spans.layer("transport.kickoff");
      rig->transport.emplace(*rig->fs, *rig->net, clean_adaptive(spec, opt.seed));
      rig->transport->run(*job, [&result](core::IoResult r) { result = std::move(r); });
    }
  }
  std::uint64_t allocs = 0;
  {
    auto phase = spans.phase("run");
    auto s = spans.layer("engine.run");
    const AllocWindow window(opt.traced);
    rig->engine.run();
    allocs = window.count();
  }

  Json report;
  std::string report_err;
  double journal_bytes = 0.0;
  double trace_bytes = 0.0;
  std::size_t trace_events = 0;
  std::size_t records = 0;
  if (observed) {
    auto phase = spans.phase("report");
    const std::string journal_path = opt.work_dir + "/observed.journal";
    const std::string trace_path = opt.work_dir + "/observed.trace.json";
    records = journal->records().size();
    std::optional<obs::Journal> loaded;
    {
      auto s = spans.layer("obs.journal_write");
      if (!journal->write(journal_path)) report_err = "cannot write " + journal_path;
    }
    {
      auto s = spans.layer("obs.journal_load");
      if (report_err.empty()) loaded = obs::Journal::load(journal_path);
    }
    if (loaded) {
      {
        auto s = spans.layer("obs.analyze");
        report = obs::analyze(*loaded);
      }
      auto s = spans.layer("obs.trace_export");
      const Json trace = obs::report_trace(*loaded, report);
      if (const Json* events = trace.find("traceEvents")) trace_events = events->size();
      const std::string doc = trace.dump();
      std::ofstream f(trace_path, std::ios::binary | std::ios::trunc);
      f.write(doc.data(), static_cast<std::streamsize>(doc.size()));
      if (!f) report_err = "cannot write " + trace_path;
      trace_bytes = static_cast<double>(doc.size());
      journal_bytes = static_cast<double>(loaded->records().size() * sizeof(obs::Record));
    }
    if (report_err.empty() && (!loaded || loaded->records().size() != records))
      report_err = "journal did not load back intact";
  }

  {
    auto phase = spans.phase("check");
    out.ops.push(io_op("io", *job, result, rig->fs->total_bytes_submitted(), false));
    if (observed) {
      Json fp;
      if (report_err.empty() && !result) report_err = "no result to report on";
      if (report_err.empty()) report_err = check_report(report, *result, *live);
      if (report_err.empty()) {
        const Json* cp = report.find("summary")->find("critical_path");
        const Json* attrib = report.find("summary")->find("attribution");
        fp = Json::object();
        fp.set("records", static_cast<double>(records));
        fp.set("run_time_s", num(&report.find("runs")->at(0), "run_time_s"));
        fp.set("path_external_s", num(cp, "external_s"));
        fp.set("path_internal_s", num(cp, "internal_s"));
        fp.set("path_network_s", num(cp, "network_s"));
        fp.set("wait_total_s", num(attrib, "total_wait_s"));
        // Event count, not bytes: the trace spells out OST ids, whose digits
        // change with the seed's placement rotation.
        fp.set("trace_events", static_cast<double>(trace_events));
      }
      out.ops.push(make_op("report", std::move(fp), std::move(report_err)));
    }
    out.counts.set("engine.events", static_cast<double>(rig->engine.steps()));
    out.counts.set("net.messages", static_cast<double>(rig->net->messages_sent()));
    out.counts.set("net.bytes", rig->net->bytes_sent());
    out.counts.set("mds.ops", static_cast<double>(rig->fs->mds_group().completed_ops()));
    out.counts.set("protocol.steals", result ? static_cast<double>(result->steals) : 0.0);
    out.counts.set("protocol.grants", result ? static_cast<double>(result->grants_issued) : 0.0);
    out.counts.set("index.blocks",
                   result ? static_cast<double>(result->total_blocks_indexed) : 0.0);
    out.counts.set("alloc.run_count", static_cast<double>(allocs));
    out.counts.set("obs.records", static_cast<double>(records));
    out.counts.set("obs.journal_bytes", journal_bytes);
    out.counts.set("obs.trace_bytes", trace_bytes);
  }

  auto phase = spans.phase("teardown");
  auto s = spans.layer("rig.teardown");
  report = Json();
  result.reset();
  rig.reset();
  live.reset();
  journal.reset();
  job.reset();
}

void jaguar_rep(const Options& opt, Spans& spans, Rep& out) {
  clean_rep(opt, spans, out, kJaguarWriters, false);
}

void observed_rep(const Options& opt, Spans& spans, Rep& out) {
  clean_rep(opt, spans, out, kObservedWriters, true);
}

/// jaguar_224k through the sharded engine: only the engine differs.
void sharded_rep(const Options& opt, Spans& spans, Rep& out) {
  const fs::MachineSpec spec = fs::jaguar();
  std::optional<core::IoJob> job;
  std::optional<core::ShardedAdaptiveSim> sim;
  obs::prof::ShardProfiler prof;
  {
    auto phase = spans.phase("setup");
    {
      auto s = spans.layer("workload.job");
      job.emplace(workload::pixie3d_job(workload::Pixie3dConfig::small_model(), kJaguarWriters));
    }
    auto s = spans.layer("shard.build");
    core::ShardedAdaptiveSim::Config cfg;
    cfg.n_shards = opt.shards;
    cfg.n_ranks = kJaguarWriters;
    cfg.fs = spec.fs;
    cfg.net = net_config(spec);
    cfg.adaptive = clean_adaptive(spec, opt.seed);
    cfg.deterministic = true;
    cfg.profiler = opt.traced ? &prof : nullptr;
    sim.emplace(cfg);
  }
  std::optional<core::IoResult> result;
  std::uint64_t allocs = 0;
  {
    auto phase = spans.phase("run");
    auto s = spans.layer("shard.run");
    const AllocWindow window(opt.traced);
    result = sim->run(*job);
    allocs = window.count();
  }
  {
    auto phase = spans.phase("check");
    out.ops.push(io_op("io", *job, result, sim->fs().total_bytes_submitted(), false));
    const obs::prof::ShardProfiler::Slot t = prof.totals();
    out.counts.set("engine.events", static_cast<double>(sim->steps()));
    out.counts.set("net.messages", static_cast<double>(sim->net().messages_sent()));
    out.counts.set("net.bytes", sim->net().bytes_sent());
    out.counts.set("mds.ops", static_cast<double>(sim->fs().mds_group().completed_ops()));
    out.counts.set("protocol.steals", static_cast<double>(result->steals));
    out.counts.set("protocol.grants", static_cast<double>(result->grants_issued));
    out.counts.set("index.blocks", static_cast<double>(result->total_blocks_indexed));
    out.counts.set("alloc.run_count", static_cast<double>(allocs));
    out.counts.set("shard.windows_executed", static_cast<double>(sim->shards().windows_executed()));
    out.counts.set("shard.windows_skipped", static_cast<double>(sim->shards().windows_skipped()));
    out.counts.set("shard.barrier_rounds", static_cast<double>(sim->shards().barrier_rounds()));
    out.counts.set("shard.execute_s", t.execute_s);
    out.counts.set("shard.barrier_s", t.barrier_s);
    out.counts.set("shard.merge_s", t.merge_s);
    out.counts.set("shard.skip_s", t.skip_s);
    out.counts.set("shard.msgs_posted", static_cast<double>(t.msgs_posted));
    out.counts.set("shard.imbalance", opt.traced ? prof.imbalance() : 0.0);
  }
  auto phase = spans.phase("teardown");
  auto s = spans.layer("rig.teardown");
  result.reset();
  sim.reset();
  job.reset();
}

/// The paper's variability regime: the whole Jaguar (every node's NIC) under
/// production background load (resampled by daemons from the seed) plus the
/// Section IV interference job, Pixie3D large at 16,384 writers, MPI-IO on
/// 160 stripes alternating with adaptive IO on 512 files, 600 simulated
/// seconds apart.
void variability_rep(const Options& opt, Spans& spans, Rep& out) {
  const fs::MachineSpec spec = fs::jaguar();
  std::optional<core::IoJob> job;
  // Declaration order is teardown order reversed: transports, then the
  // models holding OST pointers, then the network and file system.
  std::optional<sim::Engine> engine;
  std::optional<fs::FileSystem> filesystem;
  std::optional<net::Network> network;
  std::optional<fs::BackgroundLoad> load;
  std::optional<fs::InterferenceJob> interference;
  std::optional<core::MpiioTransport> mpiio;
  std::optional<core::AdaptiveTransport> adaptive;
  {
    auto phase = spans.phase("setup");
    {
      auto s = spans.layer("workload.job");
      job.emplace(
          workload::pixie3d_job(workload::Pixie3dConfig::large_model(), kVariabilityWriters));
    }
    engine.emplace();
    {
      auto s = spans.layer("fs.build");
      filesystem.emplace(*engine, spec.fs);
      load.emplace(*engine, sim::Rng(opt.seed).fork(1), spec.load, filesystem->ost_pointers());
      load->start();
      interference.emplace(*engine, fs::InterferenceJob::Config{}, filesystem->ost_pointers());
    }
    {
      auto s = spans.layer("net.build");
      network.emplace(*engine, net_config(spec), spec.total_cores());
    }
    core::MpiioTransport::Config mc;
    mc.stripe_count = 160;
    mc.stripe_size = job->bytes_per_writer.front();
    mc.max_segments = 4;
    mpiio.emplace(*filesystem, mc);
    core::AdaptiveTransport::Config ac;
    ac.n_files = 512;
    adaptive.emplace(*filesystem, *network, ac);
  }

  // One sample: the interference job runs exactly while the output does.  Its
  // writes land on the same OSTs, so its submitted bytes — one in-flight write
  // per stream at stop plus every completed one — come off the fs total.
  const fs::InterferenceJob::Config& icfg = interference->config();
  const double streams = static_cast<double>(icfg.n_osts * icfg.writers_per_ost);
  std::vector<double> mpi_t;
  std::vector<double> ad_t;
  std::uint64_t steals = 0;
  std::uint64_t grants = 0;
  std::uint64_t blocks = 0;
  const auto sample = [&](const char* label, core::Transport& t, bool exact,
                          std::vector<double>& times) {
    const double bytes0 = filesystem->total_bytes_submitted();
    const std::uint64_t done0 = interference->completed_writes();
    std::optional<core::IoResult> result;
    interference->start();
    t.run(*job, [&](core::IoResult r) {
      result = std::move(r);
      interference->stop();
    });
    engine->run();
    const double foreign =
        (static_cast<double>(interference->completed_writes() - done0) + streams) *
        icfg.bytes_per_write;
    out.ops.push(
        io_op(label, *job, result, filesystem->total_bytes_submitted() - bytes0 - foreign, exact));
    if (result) {
      times.push_back(result->io_seconds());
      steals += result->steals;
      grants += result->grants_issued;
      blocks += result->total_blocks_indexed;
    }
  };
  std::uint64_t allocs = 0;
  {
    auto phase = spans.phase("run");
    const AllocWindow window(opt.traced);
    for (std::size_t i = 0; i < kVariabilityPairs; ++i) {
      {
        auto s = spans.layer("mpiio.sample");
        sample("mpiio", *mpiio, true, mpi_t);
      }
      {
        auto s = spans.layer("engine.advance");
        engine->run_until(engine->now() + kVariabilityGapS);
      }
      {
        auto s = spans.layer("adaptive.sample");
        sample("adaptive", *adaptive, false, ad_t);
      }
      auto s = spans.layer("engine.advance");
      engine->run_until(engine->now() + kVariabilityGapS);
    }
    allocs = window.count();
  }
  {
    auto phase = spans.phase("check");
    // The sweep's report: the Fig. 7 statistic over its samples.
    const auto stats = [](const std::vector<double>& v, double& mean) {
      mean = 0.0;
      for (const double x : v) mean += x;
      mean /= static_cast<double>(v.size());
      double ss = 0.0;
      for (const double x : v) ss += (x - mean) * (x - mean);
      return std::sqrt(ss / static_cast<double>(v.size() - 1));
    };
    Json fp;
    std::string err;
    if (mpi_t.size() == kVariabilityPairs && ad_t.size() == kVariabilityPairs) {
      double mpi_mean = 0.0;
      double ad_mean = 0.0;
      const double mpi_sd = stats(mpi_t, mpi_mean);
      const double ad_sd = stats(ad_t, ad_mean);
      fp = Json::object();
      fp.set("mpiio_mean_s", mpi_mean);
      fp.set("adaptive_mean_s", ad_mean);
      fp.set("stddev_ratio", ad_sd > 0.0 ? mpi_sd / ad_sd : 0.0);
    } else {
      err = "sweep has missing samples";
    }
    out.ops.push(make_op("stddev_ratio", std::move(fp), std::move(err)));
    out.counts.set("engine.events", static_cast<double>(engine->steps()));
    out.counts.set("net.messages", static_cast<double>(network->messages_sent()));
    out.counts.set("net.bytes", network->bytes_sent());
    out.counts.set("mds.ops", static_cast<double>(filesystem->mds_group().completed_ops()));
    out.counts.set("protocol.steals", static_cast<double>(steals));
    out.counts.set("protocol.grants", static_cast<double>(grants));
    out.counts.set("index.blocks", static_cast<double>(blocks));
    out.counts.set("alloc.run_count", static_cast<double>(allocs));
  }
  auto phase = spans.phase("teardown");
  auto s = spans.layer("rig.teardown");
  adaptive.reset();
  mpiio.reset();
  interference.reset();
  load.reset();
  network.reset();
  filesystem.reset();
  engine.reset();
  job.reset();
}

struct Workload {
  const char* name;
  std::size_t ops_per_rep;
  void (*rep)(const Options&, Spans&, Rep&);
};

constexpr Workload kWorkloads[] = {
    {"jaguar_224k", 1, jaguar_rep},
    {"jaguar_224k_sharded", 1, sharded_rep},
    {"variability_16k", 2 * kVariabilityPairs + 1, variability_rep},
    {"observed_65k", 2, observed_rep},
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "aio_perf: %s\nusage: aio_perf --workload NAME --seed N --seconds S "
               "[--shards N] [--min-reps N] [--work-dir DIR] [--traced --trace-out PATH]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage("missing value");
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = std::strtoull(value(), nullptr, 10);
    else if (a == "--seconds") o.seconds = std::strtod(value(), nullptr);
    else if (a == "--shards") o.shards = std::strtoull(value(), nullptr, 10);
    else if (a == "--min-reps") o.min_reps = std::strtoull(value(), nullptr, 10);
    else if (a == "--work-dir") o.work_dir = value();
    else if (a == "--trace-out") o.trace_out = value();
    else if (a == "--traced") o.traced = true;
    else usage("unknown argument");
  }
  if (!(o.seconds >= 0.0) || o.shards == 0) usage("bad --seconds or --shards");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const Workload* w = nullptr;
  for (const Workload& c : kWorkloads)
    if (opt.workload == c.name) w = &c;
  if (!w) usage("unknown workload");

  Spans spans(opt.traced);
  Json reps = Json::array();
  Clock::time_point measure_start;
  // Rep 0 warms caches and the allocator and is checked but not timed; then
  // repetitions run until the budget is spent and at least min_reps ran.
  for (int rep = 0;; ++rep) {
    if (rep == 1) measure_start = Clock::now();
    const double elapsed =
        rep >= 1 ? std::chrono::duration<double>(Clock::now() - measure_start).count() : 0.0;
    if (rep > static_cast<int>(opt.min_reps) && elapsed >= opt.seconds) break;

    spans.start_rep(rep);
    Rep out;
    std::string error;
    {
      auto root = spans.phase("rep");
      try {
        w->rep(opt, spans, out);
      } catch (const std::exception& e) {
        error = e.what();
      }
    }
    while (out.ops.size() < w->ops_per_rep)
      out.ops.push(make_op("io", nullptr, error.empty() ? "operation missing" : error));
    Json r = Json::object();
    r.set("rep", rep);
    r.set("times", spans.rep_times());
    r.set("ops", std::move(out.ops));
    r.set("counts", std::move(out.counts));
    reps.push(std::move(r));
  }

  Json doc = Json::object();
  doc.set("schema", "aio-perf-run-v1");
  doc.set("workload", opt.workload);
  doc.set("seed", static_cast<double>(opt.seed));
  doc.set("shards", static_cast<double>(opt.shards));
  doc.set("traced", opt.traced);
  doc.set("compiler", PERF_COMPILER);
  doc.set("build_type", PERF_BUILD_TYPE);
  doc.set("peak_rss_mb", peak_rss_mb());
  doc.set("reps", std::move(reps));
  std::printf("%s\n", doc.dump().c_str());

  if (opt.traced && !opt.trace_out.empty()) {
    std::ofstream f(opt.trace_out, std::ios::binary | std::ios::trunc);
    f << spans.chrome_trace().dump() << '\n';
    if (!f) {
      std::fprintf(stderr, "aio_perf: cannot write %s\n", opt.trace_out.c_str());
      return 1;
    }
  }
  return 0;
}
