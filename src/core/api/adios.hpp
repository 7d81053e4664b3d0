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
// background load) so examples and tests stay a few lines long.
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
#include "obs/journal.hpp"
#include "obs/live.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "sim/rng.hpp"

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

/// A simulated machine plus everything needed to run output steps on it.
class Simulation {
 public:
  struct Options {
    bool background_load = true;       ///< production interference on
    bool interference_job = false;     ///< the Section IV synthetic job
    std::size_t adaptive_files = 0;    ///< 0 = one file per OST
    std::size_t mpiio_stripes = 0;     ///< 0 = stripe limit
    std::size_t adaptive_concurrency = 1;
    bool adaptive_stealing = true;
    /// > 0 arms a sampling daemon at this period feeding the metrics
    /// registry (per-OST occupancy/bandwidth series + aggregates).
    double metrics_sample_period_s = 0.0;
    /// Per-OST series cap when sampling is armed (aggregates are exempt).
    std::size_t metrics_per_ost = 16;
  };

  Simulation(fs::MachineSpec spec, std::uint64_t seed, Options options);
  Simulation(fs::MachineSpec spec, std::uint64_t seed)
      : Simulation(std::move(spec), seed, Options{}) {}
  ~Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Runs one collective output step to completion and returns its result.
  core::IoResult write_step(const IoGroup& group, Method method, std::size_t n_writers,
                            const std::function<WriteSet(core::Rank)>& contribution);

  /// Advances simulated wall-clock (compute phases between output steps).
  void advance(double seconds);

  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] fs::FileSystem& file_system() { return *fs_; }
  [[nodiscard]] net::Network& network() { return *net_; }
  [[nodiscard]] const fs::MachineSpec& spec() const { return spec_; }

  /// End-of-run metrics: always available (counters/gauges cost nothing to
  /// keep); series fill only when `metrics_sample_period_s` is set.
  [[nodiscard]] obs::Registry& metrics() { return metrics_; }
  /// Run journal built from AIO_JOURNAL/AIO_REPORT/AIO_TRACE, or null.
  /// Written (and its report and trace emitted) on destruction.
  [[nodiscard]] obs::Journal* journal() { return journal_.get(); }
  /// Live telemetry plane built from AIO_LIVE/AIO_FLIGHT, or null.
  [[nodiscard]] obs::LivePlane* live() { return live_.get(); }
  /// Current live-plane snapshot (zeroed when no plane is attached).
  [[nodiscard]] obs::LiveView live_view() const {
    return live_ ? live_->view() : obs::LiveView{};
  }

 private:
  void arm_sampler();
  void arm_live();
  /// Writes out every observability artifact exactly once: journal, report
  /// and trace, live snapshot tail — and, on an aborted run, a final sampler
  /// tick plus the flight-recorder dump.  The failure path and the
  /// destructor both land here; the latch keeps the second call a no-op.
  void flush_obs(bool aborted);

  fs::MachineSpec spec_;
  Options options_;
  // Numbers every output path of this machine, resolved once at
  // construction (obs::machine_slot) so its journal, report, trace and live
  // stream share one number whatever order Simulations are destroyed in.
  int obs_slot_;
  // Observability state must precede engine_: the engine captures the
  // pointers at construction.
  std::unique_ptr<obs::Journal> journal_;
  std::unique_ptr<obs::LivePlane> live_;
  obs::Registry metrics_;
  bool obs_flushed_ = false;
  sim::Engine engine_;
  sim::Rng rng_;
  std::unique_ptr<fs::FileSystem> fs_;
  std::unique_ptr<net::Network> net_;
  std::unique_ptr<fs::BackgroundLoad> load_;
  std::unique_ptr<fs::InterferenceJob> job_;
  std::unique_ptr<obs::Sampler> sampler_;
};

}  // namespace aio::api
