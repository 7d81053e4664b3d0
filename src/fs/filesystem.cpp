#include "fs/filesystem.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "obs/sampler.hpp"

namespace aio::fs {

StripedFile::StripedFile(FileSystem& fs, std::string path, std::vector<std::size_t> targets,
                         double stripe_size)
    : fs_(fs), path_(std::move(path)), targets_(std::move(targets)), stripe_size_(stripe_size) {
  if (targets_.empty()) throw std::invalid_argument("StripedFile: no targets");
  if (stripe_size_ <= 0.0) throw std::invalid_argument("StripedFile: stripe size must be > 0");
}

std::size_t StripedFile::target_of(double offset) const {
  const auto stripe = static_cast<std::uint64_t>(std::floor(offset / stripe_size_));
  return targets_[stripe % targets_.size()];
}

StripedFile::Segments StripedFile::split_segments(double offset, double bytes,
                                                  std::size_t max_segments) const {
  // Bound the chain length: split the range into at most `max_segments`
  // equal pieces and charge each piece to the target of its first byte,
  // coalescing runs that land on the same target.
  const double n_stripes =
      std::ceil((offset + bytes) / stripe_size_) - std::floor(offset / stripe_size_);
  Segments segments;
  const auto pieces =
      static_cast<std::size_t>(std::min<double>(static_cast<double>(max_segments), n_stripes));
  const double piece = bytes / static_cast<double>(pieces);
  for (std::size_t i = 0; i < pieces; ++i) {
    const std::size_t tgt = target_of(offset + piece * static_cast<double>(i));
    if (!segments.empty() && segments.back().first == tgt) {
      segments.back().second += piece;
    } else {
      segments.emplace_back(tgt, piece);
    }
  }
  return segments;
}

void StripedFile::write(double offset, double bytes, Ost::Mode mode, OnComplete on_complete,
                        std::size_t max_segments) {
  if (!(bytes > 0.0 && std::isfinite(bytes)))
    throw std::invalid_argument("StripedFile::write: bytes must be > 0");
  if (offset < 0.0) throw std::invalid_argument("StripedFile::write: negative offset");
  if (max_segments == 0) max_segments = 1;

  const double n_stripes =
      std::ceil((offset + bytes) / stripe_size_) - std::floor(offset / stripe_size_);
  if (targets_.size() == 1 || n_stripes <= 1.0) {
    // Single-segment fast path (the transports' common case): the caller's
    // callback moves straight into the target OST — no segment vector, no
    // chain wrapper, no allocation.
    fs_.ost(target_of(offset)).write(bytes, mode, std::move(on_complete));
    return;
  }
  write_chain(split_segments(offset, bytes, max_segments), 0, mode, std::move(on_complete));
}

struct StripedFile::ReadState {
  Segments segments;
  OnComplete on_complete;
};

void StripedFile::read(double offset, double bytes, OnComplete on_complete,
                       std::size_t max_segments) {
  if (!(bytes > 0.0 && std::isfinite(bytes)))
    throw std::invalid_argument("StripedFile::read: bytes must be > 0");
  if (offset < 0.0) throw std::invalid_argument("StripedFile::read: negative offset");
  if (max_segments == 0) max_segments = 1;
  const double n_stripes =
      std::ceil((offset + bytes) / stripe_size_) - std::floor(offset / stripe_size_);
  if (targets_.size() == 1 || n_stripes <= 1.0) {
    fs_.ost(target_of(offset)).read(bytes, std::move(on_complete));
    return;
  }
  // Sequential chain, like a client streaming through the file.
  auto state = std::make_shared<ReadState>(
      ReadState{split_segments(offset, bytes, max_segments), std::move(on_complete)});
  read_chain(std::move(state), 0);
}

void StripedFile::read_chain(std::shared_ptr<ReadState> state, std::size_t next) {
  if (next >= state->segments.size()) {
    if (state->on_complete) state->on_complete(fs_.engine().now());
    return;
  }
  const auto [target, seg_bytes] = state->segments[next];
  fs_.ost(target).read(
      seg_bytes, [this, state = std::move(state), next](sim::Time) mutable {
        read_chain(std::move(state), next + 1);
      });
}

void StripedFile::write_chain(Segments segments, std::size_t next, Ost::Mode mode,
                              OnComplete on_complete) {
  if (next >= segments.size()) {
    if (on_complete) on_complete(fs_.engine().now());
    return;
  }
  const auto [target, bytes] = segments[next];
  // This closure (segment list + a full OnComplete) outgrows the OST's SBO,
  // so each multi-segment chain link heap-allocates — acceptable: striped
  // multi-segment writes are the MPI-IO baseline's shape, not the adaptive
  // protocol's steady state.
  fs_.ost(target).write(
      bytes, mode,
      [this, segments = std::move(segments), next, mode,
       on_complete = std::move(on_complete)](sim::Time) mutable {
        write_chain(std::move(segments), next + 1, mode, std::move(on_complete));
      });
}

void StripedFile::flush(OnComplete on_complete) {
  // Fan-in barrier: the shared state owns the (move-only) callback, and each
  // per-target closure is one shared_ptr — inside the OST's SBO.
  struct FanIn {
    std::size_t remaining;
    OnComplete on_complete;
  };
  auto state = std::make_shared<FanIn>(FanIn{targets_.size(), std::move(on_complete)});
  for (const std::size_t t : targets_) {
    fs_.ost(t).flush([state](sim::Time now) {
      if (--state->remaining == 0 && state->on_complete) state->on_complete(now);
    });
  }
}

FileSystem::FileSystem(sim::Homes homes, FsConfig config)
    : homes_(homes), config_(config), mds_(homes, MdsGroup::Config{config.n_mds, config.mds}) {
  if (config_.n_osts == 0) throw std::invalid_argument("FileSystem: need at least one OST");
  homes_.require(sim::Entity::Kind::Ost, config_.n_osts, "FileSystem");
  for (std::size_t e = 0; e < homes_.n_engines(); ++e)
    fabrics_.emplace_back(homes_.engine(e), config_.fabric_bw);
  // Governor replicas: each shard's replica re-times that shard's OSTs.
  // Every activity transition joins its window's boundary tally; each
  // replica hears the window's net change once at the boundary and decides
  // in its one flush after the whole boundary instant, so the replicas'
  // hysteresis state machines make identical decisions at any shard count.
  sim::ShardGroup* const sg = homes_.group();
  const bool replicas_hear = sg && config_.fabric_bw > 0.0;
  if (replicas_hear)
    sg->set_tally_sink([reps = &fabrics_](std::size_t shard, std::int64_t net_delta) {
      (*reps)[shard].notify_activity_batched(net_delta);
    });
  osts_.reserve(config_.n_osts);
  for (std::size_t i = 0; i < config_.n_osts; ++i) {
    const sim::Entity ost = sim::Entity::ost(i);
    osts_.push_back(std::make_unique<Ost>(homes_.home(ost), config_.ost, static_cast<int>(i)));
    if (!sg) {
      fabrics_[0].attach(*osts_.back());
      continue;
    }
    fabrics_[homes_.home_index(ost)].adopt(*osts_.back());
    if (replicas_hear) {
      auto hook = [sg, key = sg->key_of(ost)](bool active) { sg->tally(key, active ? 1 : -1); };
      static_assert(sizeof(hook) <= 32, "sharded fabric hook outgrew Ost::ActivityHook SBO");
      osts_.back()->set_activity_hook(std::move(hook));
    }
  }
}

std::vector<Ost*> FileSystem::ost_pointers() {
  std::vector<Ost*> out;
  out.reserve(osts_.size());
  for (auto& o : osts_) out.push_back(o.get());
  return out;
}

StripedFile& FileSystem::open_immediate(std::string path, std::size_t stripe_count,
                                        std::size_t first_ost, double stripe_size) {
  stripe_count = std::clamp<std::size_t>(stripe_count, 1,
                                         std::min(config_.stripe_limit, osts_.size()));
  if (stripe_size <= 0.0) stripe_size = config_.default_stripe_size;
  std::vector<std::size_t> targets;
  targets.reserve(stripe_count);
  for (std::size_t i = 0; i < stripe_count; ++i) targets.push_back((first_ost + i) % osts_.size());
  files_.push_back(std::unique_ptr<StripedFile>(
      new StripedFile(*this, std::move(path), std::move(targets), stripe_size)));
  return *files_.back();
}

void FileSystem::close(StripedFile& file, OnComplete on_complete) {
  mds_.submit(mds_.index_of(file.path()), MetadataServer::OpKind::Close,
              std::move(on_complete));
}

void FileSystem::register_probes(obs::Sampler& sampler, std::size_t per_ost_limit) {
  const std::size_t n = std::min(per_ost_limit, osts_.size());
  for (std::size_t i = 0; i < n; ++i) {
    Ost* o = osts_[i].get();
    const std::string prefix = "ost" + std::to_string(i);
    sampler.add_probe(prefix + ".cache_occupancy",
                      [o](double) { return o->cache_occupancy(); });
    sampler.add_probe(prefix + ".inflight",
                      [o](double) { return static_cast<double>(o->active_ops()); });
    // Effective bandwidth: bytes drained to disk since the previous sample,
    // divided by the sample gap.
    sampler.add_probe(prefix + ".drain_bw",
                      [o, prev_t = 0.0, prev_b = 0.0](double now) mutable {
                        const double drained = o->cum_drained();
                        const double dt = now - prev_t;
                        const double bw = dt > 0.0 ? (drained - prev_b) / dt : 0.0;
                        prev_t = now;
                        prev_b = drained;
                        return bw;
                      });
    sampler.add_probe(prefix + ".load", [o](double) { return o->net_load(); });
  }
  sampler.add_probe("fs.cache_total", [this](double) {
    double q = 0.0;
    for (const auto& o : osts_) q += o->cache_occupancy();
    return q;
  });
  sampler.add_probe("fs.inflight_total", [this](double) {
    std::size_t ops = 0;
    for (const auto& o : osts_) ops += o->active_ops();
    return static_cast<double>(ops);
  });
  sampler.add_probe("fs.drain_bw", [this, prev_t = 0.0, prev_b = 0.0](double now) mutable {
    double drained = 0.0;
    for (const auto& o : osts_) drained += o->cum_drained();
    const double dt = now - prev_t;
    const double bw = dt > 0.0 ? (drained - prev_b) / dt : 0.0;
    prev_t = now;
    prev_b = drained;
    return bw;
  });
  sampler.add_probe("fs.fabric_active",
                    [this](double) { return static_cast<double>(fabrics_[0].active_count()); });
  sampler.add_probe("mds.backlog",
                    [this](double) { return static_cast<double>(mds_.backlog()); });
  if (mds_.count() > 1) {
    // Per-server depth only when there is a tier to tell apart — the
    // aggregate above keeps its name (and series set) for single-MDS runs.
    for (std::size_t m = 0; m < mds_.count(); ++m) {
      MetadataServer* srv = &mds_.server(m);
      sampler.add_probe("mds" + std::to_string(m) + ".backlog",
                        [srv](double) { return static_cast<double>(srv->backlog()); });
    }
  }
}

double FileSystem::total_bytes_submitted() const {
  double total = 0.0;
  for (const auto& o : osts_) total += o->bytes_submitted();
  return total;
}

}  // namespace aio::fs
