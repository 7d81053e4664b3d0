#include "core/api/adios.hpp"

#include <numeric>
#include <stdexcept>

#include "obs/analysis.hpp"
#include "obs/env.hpp"

namespace aio::api {

std::size_t type_size(Type t) {
  switch (t) {
    case Type::Double: return 8;
    case Type::Float: return 4;
    case Type::Int64: return 8;
    case Type::Int32: return 4;
    case Type::Byte: return 1;
  }
  return 1;
}

const char* method_name(Method m) {
  switch (m) {
    case Method::Posix: return "POSIX";
    case Method::MpiIo: return "MPI-IO";
    case Method::Adaptive: return "Adaptive";
  }
  return "?";
}

VarId IoGroup::define_var(std::string name, Type type, std::vector<std::uint64_t> global_dims) {
  vars_.push_back(VarDef{std::move(name), type, std::move(global_dims)});
  return static_cast<VarId>(vars_.size() - 1);
}

VarId IoGroup::define_scalar(std::string name, Type type) {
  return define_var(std::move(name), type, {});
}

std::optional<VarId> IoGroup::find(const std::string& name) const {
  for (std::size_t i = 0; i < vars_.size(); ++i)
    if (vars_[i].name == name) return static_cast<VarId>(i);
  return std::nullopt;
}

void WriteSet::put(VarId var, std::vector<std::uint64_t> offsets,
                   std::vector<std::uint64_t> counts, std::span<const double> data) {
  const VarDef& def = group_->var(var);
  if (offsets.size() != def.global_dims.size() || counts.size() != def.global_dims.size())
    throw std::invalid_argument("WriteSet::put: dimensionality mismatch for " + def.name);
  std::uint64_t elems = 1;
  for (std::size_t d = 0; d < counts.size(); ++d) {
    if (offsets[d] + counts[d] > def.global_dims[d])
      throw std::invalid_argument("WriteSet::put: block exceeds global bounds of " + def.name);
    elems *= counts[d];
  }
  Block b;
  b.var = var;
  b.offsets = std::move(offsets);
  b.counts = std::move(counts);
  b.bytes = elems * type_size(def.type);
  if (!data.empty()) b.ch = core::Characteristics::of(data);
  blocks_.push_back(std::move(b));
}

void WriteSet::put_scalar(VarId var, double value) {
  const VarDef& def = group_->var(var);
  if (!def.global_dims.empty())
    throw std::invalid_argument("WriteSet::put_scalar: " + def.name + " is an array");
  Block b;
  b.var = var;
  b.bytes = type_size(def.type);
  b.ch = core::Characteristics::of(std::span<const double>(&value, 1));
  blocks_.push_back(std::move(b));
}

double WriteSet::total_bytes() const {
  return std::accumulate(blocks_.begin(), blocks_.end(), 0.0,
                         [](double acc, const Block& b) { return acc + b.bytes; });
}

core::LocalIndex WriteSet::blueprint(core::Rank rank) const {
  core::LocalIndex idx;
  idx.writer = rank;
  for (const Block& b : blocks_) {
    core::BlockRecord rec;
    rec.writer = rank;
    rec.var_id = b.var;
    rec.length = b.bytes;
    rec.global_dims = group_->var(b.var).global_dims;
    rec.offsets = b.offsets;
    rec.counts = b.counts;
    rec.ch = b.ch;
    idx.blocks.push_back(std::move(rec));
  }
  return idx;
}

Simulation::Simulation(fs::MachineSpec spec, std::uint64_t seed, Options options)
    : spec_(std::move(spec)),
      options_(options),
      obs_slot_(obs::machine_slot()),
      journal_(obs::Journal::from_env(obs_slot_)),
      live_(obs::LivePlane::from_env(obs_slot_)),
      engine_(journal_.get(), live_.get()),
      rng_(seed) {
  fs_ = std::make_unique<fs::FileSystem>(engine_, spec_.fs);
  net::NetConfig nc;
  nc.latency_s = spec_.msg_latency_s;
  nc.nic_bw = spec_.nic_bw;
  nc.cores_per_node = spec_.cores_per_node;
  net_ = std::make_unique<net::Network>(engine_, nc, spec_.total_cores());
  if (options_.background_load) {
    load_ = std::make_unique<fs::BackgroundLoad>(engine_, rng_.fork(1), spec_.load,
                                                 fs_->ost_pointers());
    load_->start();
  }
  if (options_.interference_job) {
    job_ = std::make_unique<fs::InterferenceJob>(engine_, fs::InterferenceJob::Config{},
                                                 fs_->ost_pointers());
  }
  if (options_.metrics_sample_period_s > 0.0) {
    sampler_ = std::make_unique<obs::Sampler>(metrics_, options_.metrics_sample_period_s);
    fs_->register_probes(*sampler_, options_.metrics_per_ost);
    arm_sampler();
  }
  if (live_ && live_->snapshot_enabled()) arm_live();
}

void Simulation::arm_sampler() {
  // Daemon events never keep run() alive, so sampling cannot change when a
  // simulation terminates — only what is observed along the way.
  engine_.schedule_daemon_after(sampler_->period(), [this] {
    sampler_->tick(engine_.now());
    arm_sampler();
  });
}

void Simulation::arm_live() {
  // Same daemon pattern as the sampler: one aio-live-v1 row per period.
  engine_.schedule_daemon_after(live_->config().snapshot_period_s, [this] {
    live_->snapshot_tick(engine_.now());
    arm_live();
  });
}

void Simulation::flush_obs(bool aborted) {
  if (obs_flushed_) return;
  obs_flushed_ = true;
  // An aborted run would otherwise lose the metrics tail between the last
  // daemon tick and the failure instant.
  if (aborted && sampler_) sampler_->tick(engine_.now());
  if (journal_) {
    (void)journal_->write();
    (void)obs::flush_report(*journal_, obs_slot_);
  }
  if (live_) {
    live_->flush();
    if (aborted && live_->flight_enabled()) (void)live_->dump_flight();
  }
}

Simulation::~Simulation() {
  if (job_ && job_->running()) job_->stop();
  flush_obs(/*aborted=*/false);
}

void Simulation::advance(double seconds) { engine_.run_until(engine_.now() + seconds); }

core::IoResult Simulation::write_step(const IoGroup& group, Method method,
                                      std::size_t n_writers,
                                      const std::function<WriteSet(core::Rank)>& contribution) {
  if (n_writers == 0) throw std::invalid_argument("Simulation::write_step: no writers");
  if (n_writers > net_->n_ranks())
    throw std::invalid_argument("Simulation::write_step: more writers than machine cores");

  core::IoJob job;
  job.bytes_per_writer.reserve(n_writers);
  // Capture blueprints once; the transport asks for them lazily per rank.
  auto blueprints = std::make_shared<std::vector<core::LocalIndex>>();
  blueprints->reserve(n_writers);
  for (std::size_t r = 0; r < n_writers; ++r) {
    const WriteSet ws = contribution(static_cast<core::Rank>(r));
    job.bytes_per_writer.push_back(ws.total_bytes());
    blueprints->push_back(ws.blueprint(static_cast<core::Rank>(r)));
  }
  job.blueprint = [blueprints](core::Rank r) {
    return blueprints->at(static_cast<std::size_t>(r));
  };
  // Intern the group's variable names once for the run; block records carry
  // only numeric ids, the result resolves them through this table.
  auto vars = std::make_shared<core::VarTable>();
  for (VarId v = 0; v < group.n_vars(); ++v) vars->intern(group.var(v).name);
  job.var_names = std::move(vars);

  std::unique_ptr<core::Transport> transport;
  switch (method) {
    case Method::Posix: {
      core::PosixTransport::Config pc;
      transport = std::make_unique<core::PosixTransport>(*fs_, pc);
      break;
    }
    case Method::MpiIo: {
      core::MpiioTransport::Config mc;
      mc.stripe_count = options_.mpiio_stripes;
      // ADIOS-style tuned striping: each rank's buffered region is one
      // stripe-aligned segment.
      mc.stripe_size = job.bytes_per_writer.front();
      mc.max_segments = 4;
      transport = std::make_unique<core::MpiioTransport>(*fs_, mc);
      break;
    }
    case Method::Adaptive: {
      core::AdaptiveTransport::Config ac;
      ac.n_files = options_.adaptive_files;
      ac.max_concurrent = options_.adaptive_concurrency;
      ac.stealing = options_.adaptive_stealing;
      transport = std::make_unique<core::AdaptiveTransport>(*fs_, *net_, ac);
      break;
    }
  }

  if (job_) job_->start();
  bool done = false;
  core::IoResult result;
  transport->run(job, [&](core::IoResult r) {
    result = std::move(r);
    done = true;
    if (job_) job_->stop();
  });
  // AIO_BENCH_MAX_STEPS arms the engine watchdog: the step bounds a hung
  // protocol instead of spinning forever, and the failure path below still
  // flushes every observability artifact (including the flight recorder).
  static const std::size_t max_steps = obs::env_count("AIO_BENCH_MAX_STEPS", 0);
  if (max_steps > 0)
    engine_.run(max_steps);
  else
    engine_.run();
  if (!done) {
    flush_obs(/*aborted=*/true);
    throw std::runtime_error(
        "Simulation::write_step: transport did not complete (event queue drained at t=" +
        std::to_string(engine_.now()) + "s after " + std::to_string(engine_.steps()) +
        " steps; pending=" + std::to_string(engine_.pending()) +
        " pending_normal=" + std::to_string(engine_.pending_normal()) + ")");
  }
  return result;
}

}  // namespace aio::api
