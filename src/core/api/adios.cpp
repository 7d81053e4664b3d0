#include "core/api/adios.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <stdexcept>

#include "obs/analysis.hpp"
#include "obs/drops.hpp"
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

Observers::Observers(int slot)
    : slot_(obs::machine_slot(slot)),
      journal_(obs::Journal::from_env(slot_)),
      live_(obs::LivePlane::from_env(slot_)),
      metrics_file_(obs::env_sink("AIO_METRICS", /*needs_path=*/true)) {}

void Observers::arm(sim::Engine& engine, fs::FileSystem* fs, double period_s,
                    std::size_t per_ost) {
  if (fs && period_s <= 0.0 && metrics_file_.on) {
    period_s = 1.0;
    per_ost = 32;
  }
  if (fs && period_s > 0.0) {
    sampler_ = std::make_unique<obs::Sampler>(metrics_, period_s);
    fs->register_probes(*sampler_, per_ost);
    arm_sampler(engine);
  }
  if (live_ && live_->snapshot_enabled()) arm_live(engine);
}

void Observers::arm_sampler(sim::Engine& engine) {
  engine.schedule_daemon_after(sampler_->period(), [this, &engine] {
    sampler_->tick(engine.now());
    arm_sampler(engine);
  });
}

void Observers::arm_live(sim::Engine& engine) {
  engine.schedule_daemon_after(live_->config().snapshot_period_s, [this, &engine] {
    live_->snapshot_tick(engine.now());
    arm_live(engine);
  });
}

void Observers::run(sim::Engine& engine, const core::Transport& transport,
                    const std::optional<core::IoResult>& result) {
  // Read per run, so a cap set after an earlier run still applies.
  const std::size_t max_steps = obs::env_count("AIO_BENCH_MAX_STEPS", 0);
  if (max_steps == 0) {
    engine.run();
  } else {
    engine.run(max_steps);
    if (!result && engine.pending_normal() > 0)
      fail(engine, transport,
           "engine watchdog tripped after " + std::to_string(max_steps) +
               " steps (AIO_BENCH_MAX_STEPS)");
  }
  if (!result) fail(engine, transport, "transport did not complete (event queue drained)");
}

void Observers::fail(const sim::Engine& engine, const core::Transport& transport,
                     const std::string& what) {
  std::string msg = transport.name() + ": " + what + " [t=" + std::to_string(engine.now()) +
                    "s steps=" + std::to_string(engine.steps()) +
                    " pending=" + std::to_string(engine.pending()) +
                    " pending_normal=" + std::to_string(engine.pending_normal()) + "]";
  // The metrics tail between the last daemon tick and the abort instant.
  if (sampler_) sampler_->tick(engine.now());
  const bool written = flush();
  if (const obs::EnvSink trace = obs::env_sink("AIO_TRACE", /*needs_path=*/true);
      journal_ && trace.on)
    msg += written ? "; trace dumped to " + obs::numbered_path(trace.path, slot_)
                   : "; writing the report or trace failed";
  if (live_ && live_->flight_enabled() && live_->dump_flight())
    msg += "; flight recorder dumped to " + live_->config().flight_path;
  throw std::runtime_error(msg);
}

bool Observers::flush() {
  if (flushed_) return true;
  flushed_ = true;
  bool ok = true;
  if (journal_) {
    (void)journal_->write();
    ok = obs::flush_report(*journal_, slot_);
  }
  if (live_) live_->flush();
  if (journal_ || live_) {
    obs::DropTotals& totals = obs::drop_totals();
    if (journal_) totals.journal.fetch_add(journal_->dropped(), std::memory_order_relaxed);
    if (live_) totals.live_rows.fetch_add(live_->rows_dropped(), std::memory_order_relaxed);
    totals.published.store(true, std::memory_order_relaxed);
  }
  if (sampler_ && metrics_file_.on) {
    if (std::FILE* f = std::fopen(obs::numbered_path(metrics_file_.path, slot_).c_str(), "w")) {
      const std::string doc = metrics_.to_json().dump();
      std::fwrite(doc.data(), 1, doc.size(), f);
      std::fputc('\n', f);
      std::fclose(f);
    }
  }
  return ok;
}

namespace {

fs::MachineSpec with_env_mds(fs::MachineSpec spec) {
  if (const std::size_t n_mds = obs::env_count("AIO_MDS_COUNT", 0); n_mds > 0)
    spec.fs.n_mds = n_mds;
  return spec;
}

}  // namespace

Simulation::Simulation(fs::MachineSpec spec, std::uint64_t seed, Options options)
    : spec_(with_env_mds(std::move(spec))),
      options_(options),
      obs_(options.slot),
      engine_(obs_.journal(), obs_.live()) {
  fs_ = std::make_unique<fs::FileSystem>(engine_, spec_.fs);
  net_ = std::make_unique<net::Network>(
      engine_, net::NetConfig{spec_.msg_latency_s, spec_.nic_bw, spec_.cores_per_node},
      std::max(options_.min_ranks, spec_.total_cores()));
  obs_.arm(engine_, fs_.get(), options_.metrics_sample_period_s, options_.metrics_per_ost);
  if (options_.background_load) {
    load_ = std::make_unique<fs::BackgroundLoad>(engine_, sim::Rng(seed).fork(1), spec_.load,
                                                 fs_->ost_pointers());
    load_->start();
  }
  if (options_.interference_job) {
    job_ = std::make_unique<fs::InterferenceJob>(engine_, fs::InterferenceJob::Config{},
                                                 fs_->ost_pointers());
  }
}

// obs_ flushes when it is destroyed, after the engine and the stack, so the
// job's in-flight writes are aborted first.
Simulation::~Simulation() {
  if (job_ && job_->running()) job_->stop();
}

void Simulation::advance(double seconds) { engine_.run_until(engine_.now() + seconds); }

core::IoResult Simulation::run(core::Transport& transport, const core::IoJob& job) {
  if (job_) job_->start();
  std::optional<core::IoResult> result;
  transport.run(job, [&](core::IoResult r) {
    result = std::move(r);
    if (job_) job_->stop();
  });
  obs_.run(engine_, transport, result);
  return std::move(*result);
}

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
  // Sized in place: the blueprint above returns a copy.
  job.index_size = [blueprints](core::Rank r) {
    return core::IndexSize::of(blueprints->at(static_cast<std::size_t>(r)));
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

  return run(*transport, job);
}

}  // namespace aio::api
