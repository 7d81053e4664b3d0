// ADIOS-like user-facing API.
//
// The paper implements adaptive IO "as an optional set of techniques bundled
// into a new IO method" inside the ADIOS middleware: applications declare an
// IO group with its variables once, then open/write/close each output step,
// and an XML-style method switch selects the transport (MPI-IO vs adaptive)
// without touching application code.  This header reproduces that surface:
//
//   IoGroup group("restart");
//   auto v = group.define_var("zion", Type::Double, {NX, NY, NZ});
//   Simulation sim(machine_spec, seed);
//   IoResult r = sim.write_step(group, Method::Adaptive, n_writers,
//                               [&](Rank r) { ... return WriteSet; });
//
// `Simulation` owns the simulated machine (engine, file system, network,
// background load, interference job, observability) so examples, tests and
// every bench stay a few lines long.  Benches and examples that bring their
// own transport call `run(transport, job)` instead of `write_step`.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/index/index.hpp"
#include "core/transports/adaptive_transport.hpp"
#include "core/transports/layout.hpp"
#include "core/transports/mpiio_transport.hpp"
#include "core/transports/posix_transport.hpp"
#include "fs/interference.hpp"
#include "fs/machine.hpp"
#include "net/network.hpp"
#include "obs/env.hpp"
#include "obs/journal.hpp"
#include "obs/live.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"

namespace aio::api {

enum class Type : std::uint8_t { Double, Float, Int64, Int32, Byte };

[[nodiscard]] std::size_t type_size(Type t);

using VarId = std::uint32_t;

struct VarDef {
  std::string name;
  Type type = Type::Double;
  std::vector<std::uint64_t> global_dims;  ///< empty = scalar
};

/// A named set of variables written together (ADIOS "IO group").
class IoGroup {
 public:
  explicit IoGroup(std::string name) : name_(std::move(name)) {}

  VarId define_var(std::string name, Type type, std::vector<std::uint64_t> global_dims);
  VarId define_scalar(std::string name, Type type);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const VarDef& var(VarId id) const { return vars_.at(id); }
  [[nodiscard]] std::size_t n_vars() const { return vars_.size(); }
  /// Lookup by name; nullopt if absent.
  [[nodiscard]] std::optional<VarId> find(const std::string& name) const;

 private:
  std::string name_;
  std::vector<VarDef> vars_;
};

/// What one process contributes to one output step.
class WriteSet {
 public:
  explicit WriteSet(const IoGroup& group) : group_(&group) {}

  /// Declares this process's block of `var`: its corner and extent in the
  /// global array.  `data` (optional) feeds the index characteristics.
  void put(VarId var, std::vector<std::uint64_t> offsets, std::vector<std::uint64_t> counts,
           std::span<const double> data = {});
  /// Scalar convenience.
  void put_scalar(VarId var, double value);

  [[nodiscard]] double total_bytes() const;
  [[nodiscard]] core::LocalIndex blueprint(core::Rank rank) const;
  [[nodiscard]] std::size_t n_blocks() const { return blocks_.size(); }

 private:
  struct Block {
    VarId var;
    std::vector<std::uint64_t> offsets;
    std::vector<std::uint64_t> counts;
    core::Characteristics ch;
    std::uint64_t bytes;
  };
  const IoGroup* group_;
  std::vector<Block> blocks_;
};

/// Transport selection, mirroring the ADIOS method switch.
enum class Method : std::uint8_t { Posix, MpiIo, Adaptive };

[[nodiscard]] const char* method_name(Method m);

/// One machine's observability, numbered by one output slot (obs/env.hpp):
/// the run journal (AIO_JOURNAL/REPORT/TRACE) and live plane
/// (AIO_LIVE/FLIGHT) armed from the environment, the metrics registry and
/// its sampler, the daemons that feed them, the AIO_BENCH_MAX_STEPS
/// watchdog and the one latched flush that writes everything out.  Every
/// Simulation owns one.  macro_jaguar, whose cold per-scale engines append
/// to one sweep journal, holds one across its sweep.
class Observers {
 public:
  /// `slot` -1 takes the next machine number in construction order.
  explicit Observers(int slot);
  /// Writes every artifact out (flush), unless a failure already did.
  ~Observers() { (void)flush(); }
  Observers(const Observers&) = delete;
  Observers& operator=(const Observers&) = delete;

  [[nodiscard]] obs::Journal* journal() const { return journal_.get(); }
  [[nodiscard]] obs::LivePlane* live() const { return live_.get(); }
  [[nodiscard]] obs::Registry& metrics() { return metrics_; }
  /// The armed sampler, or null.
  [[nodiscard]] const obs::Sampler* sampler() const { return sampler_.get(); }

  /// Arms this machine's daemons on `engine`: one live snapshot row per
  /// period and, given `fs`, a sampler over the probes of its first
  /// `per_ost` OSTs every `period_s` — or, with `period_s` 0 and
  /// AIO_METRICS on, every simulated second over 32 OSTs.  Daemon events
  /// never keep run() alive, so they change what is observed, never when a
  /// run ends.
  void arm(sim::Engine& engine, fs::FileSystem* fs = nullptr, double period_s = 0.0,
           std::size_t per_ost = 0);

  /// Runs `engine` until no normal event is left, or for at most
  /// AIO_BENCH_MAX_STEPS steps when that is set.  If `result` is still
  /// empty then, the run hung: the sinks are flushed as an aborted run (a
  /// last sample, the flight recorder) and the call throws, naming the
  /// watchdog or the drained queue, the engine state and the files left
  /// behind.
  void run(sim::Engine& engine, const core::Transport& transport,
           const std::optional<core::IoResult>& result);

 private:
  /// Writes every artifact once, on the failure path or at destruction
  /// (later calls do nothing and return true): journal, then report and
  /// trace, live tail, drop totals (obs/drops.hpp) and the AIO_METRICS
  /// registry.  False when a report or trace write failed.
  bool flush();
  [[noreturn]] void fail(const sim::Engine& engine, const core::Transport& transport,
                         const std::string& what);
  void arm_sampler(sim::Engine& engine);
  void arm_live(sim::Engine& engine);

  // Resolved once, so the journal, report, trace, live stream and metrics
  // of this machine share one number whatever order machines die in.
  int slot_;
  std::unique_ptr<obs::Journal> journal_;
  std::unique_ptr<obs::LivePlane> live_;
  obs::EnvSink metrics_file_;
  obs::Registry metrics_;
  std::unique_ptr<obs::Sampler> sampler_;
  bool flushed_ = false;
};

/// A simulated machine plus everything needed to run output steps on it.
/// It is the one rig: the figure, table, ablation and extension benches,
/// the examples and API users all build it.
class Simulation {
 public:
  struct Options {
    bool background_load = true;       ///< production interference on
    bool interference_job = false;     ///< the Section IV synthetic job, on during runs
    std::size_t adaptive_files = 0;    ///< 0 = one file per OST
    std::size_t mpiio_stripes = 0;     ///< 0 = stripe limit
    /// > 0 arms a sampling daemon at this period feeding the metrics
    /// registry (per-OST occupancy/bandwidth series + aggregates).  0 arms
    /// it only under AIO_METRICS (Observers::arm).
    double metrics_sample_period_s = 0.0;
    /// Per-OST series cap when sampling is armed (aggregates are exempt).
    std::size_t metrics_per_ost = 16;
    /// The network has max(min_ranks, spec.total_cores()) ranks.
    std::size_t min_ranks = 0;
    /// Output slot (obs/env.hpp).  -1 numbers machines in construction
    /// order, which is nondeterministic when machines are built on several
    /// threads, so benches that run machines in parallel pass their unit
    /// index.
    int slot = -1;
  };

  /// AIO_MDS_COUNT, when set, overrides `spec.fs.n_mds`.
  Simulation(fs::MachineSpec spec, std::uint64_t seed, Options options);
  Simulation(fs::MachineSpec spec, std::uint64_t seed)
      : Simulation(std::move(spec), seed, Options{}) {}
  ~Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Runs one collective output of `transport` (built on this machine's
  /// file system and network) to completion, with the interference job, if
  /// any, writing only until it completes.  Throws, leaving every artifact
  /// written, when the run hangs (Observers::run).
  core::IoResult run(core::Transport& transport, const core::IoJob& job);

  /// Runs one collective output step to completion and returns its result.
  core::IoResult write_step(const IoGroup& group, Method method, std::size_t n_writers,
                            const std::function<WriteSet(core::Rank)>& contribution);

  /// Advances simulated wall-clock (compute phases between output steps).
  void advance(double seconds);

  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] fs::FileSystem& file_system() { return *fs_; }
  [[nodiscard]] net::Network& network() { return *net_; }
  [[nodiscard]] const fs::MachineSpec& spec() const { return spec_; }

  /// The application's own counters and gauges, plus the sampler's series
  /// (filled only when sampling is armed).  The simulated stack records
  /// into the journal, not here.
  [[nodiscard]] obs::Registry& metrics() { return obs_.metrics(); }
  /// The armed sampler, or null.
  [[nodiscard]] const obs::Sampler* sampler() const { return obs_.sampler(); }
  /// Run journal built from AIO_JOURNAL/AIO_REPORT/AIO_TRACE, or null.
  /// Written (and its report and trace emitted) on destruction.
  [[nodiscard]] obs::Journal* journal() { return obs_.journal(); }
  /// Live telemetry plane built from AIO_LIVE/AIO_FLIGHT, or null.
  [[nodiscard]] obs::LivePlane* live() { return obs_.live(); }
  /// Current live-plane snapshot (zeroed when no plane is attached).
  [[nodiscard]] obs::LiveView live_view() const {
    return obs_.live() ? obs_.live()->view() : obs::LiveView{};
  }

 private:
  fs::MachineSpec spec_;
  Options options_;
  // Observability must precede engine_: the engine captures the journal
  // and live-plane pointers at construction.
  Observers obs_;
  sim::Engine engine_;
  std::unique_ptr<fs::FileSystem> fs_;
  std::unique_ptr<net::Network> net_;
  std::unique_ptr<fs::BackgroundLoad> load_;
  std::unique_ptr<fs::InterferenceJob> job_;
};

}  // namespace aio::api
