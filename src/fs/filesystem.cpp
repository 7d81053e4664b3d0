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
  if (bytes <= 0.0) throw std::invalid_argument("StripedFile::write: bytes must be > 0");
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
  if (bytes <= 0.0) throw std::invalid_argument("StripedFile::read: bytes must be > 0");
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

FileSystem::FileSystem(sim::Engine& engine, FsConfig config)
    : engine_(engine),
      config_(config),
      mds_(engine, MdsGroup::Config{config.n_mds, config.mds}),
      fabric_(config.fabric_bw) {
  if (config_.n_osts == 0) throw std::invalid_argument("FileSystem: need at least one OST");
  osts_.reserve(config_.n_osts);
  for (std::size_t i = 0; i < config_.n_osts; ++i) {
    osts_.push_back(std::make_unique<Ost>(engine_, config_.ost, static_cast<int>(i)));
    fabric_.attach(*osts_.back());
  }
}

FileSystem::FileSystem(sim::ShardGroup& shards, FsConfig config)
    : engine_(shards.engine(0)),
      config_(config),
      shards_(&shards),
      mds_(shards, MdsGroup::Config{config.n_mds, config.mds}),
      fabric_(config.fabric_bw) {
  if (config_.n_osts == 0) throw std::invalid_argument("FileSystem: need at least one OST");
  if (config_.n_osts != shards.n_osts())
    throw std::invalid_argument("FileSystem: OST count does not match the shard group");
  const std::size_t n_shards = shards.n_shards();
  fabric_replicas_.reserve(n_shards);
  for (std::size_t s = 0; s < n_shards; ++s) fabric_replicas_.emplace_back(config_.fabric_bw);
  osts_.reserve(config_.n_osts);
  for (std::size_t i = 0; i < config_.n_osts; ++i) {
    const std::uint32_t dom = shards.domain_of_ost(i);
    const std::size_t home = shards.shard_of_domain(dom);
    osts_.push_back(std::make_unique<Ost>(shards.engine(home), config_.ost, static_cast<int>(i)));
    fabric_replicas_[home].adopt(*osts_.back());
    if (config_.fabric_bw > 0.0) {
      // Broadcast every activity transition to all replicas; each counts it
      // at the next window boundary and defers the factor recompute to one
      // event after the whole boundary batch, so the replicas' hysteresis
      // state machines make identical decisions at any shard *or domain*
      // count (the batched apply is order-free within the boundary instant).
      Ost* ost = osts_.back().get();
      const std::uint32_t key = shards.key_of_ost(i);
      ost->set_activity_hook([sg = &shards, reps = &fabric_replicas_, key, n_shards](bool active) {
        for (std::size_t d = 0; d < n_shards; ++d) {
          sg->post_at_boundary(key, d, [reps, d, active] {
            (*reps)[d].notify_activity_batched(active, *sim::current_engine());
          });
        }
      });
    }
  }
}

std::vector<Ost*> FileSystem::ost_pointers() {
  std::vector<Ost*> out;
  out.reserve(osts_.size());
  for (auto& o : osts_) out.push_back(o.get());
  return out;
}

StripedFile& FileSystem::make_file(std::string path, std::size_t stripe_count,
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

void FileSystem::open(std::string path, std::size_t stripe_count, std::size_t first_ost,
                      OpenCallback on_open, double stripe_size) {
  StripedFile& file = make_file(std::move(path), stripe_count, first_ost, stripe_size);
  mds_.submit(mds_.index_of(file.path()), MetadataServer::OpKind::Open,
              [&file, on_open = std::move(on_open)](sim::Time now) mutable {
                if (on_open) on_open(file, now);
              });
}

StripedFile& FileSystem::open_immediate(std::string path, std::size_t stripe_count,
                                        std::size_t first_ost, double stripe_size) {
  return make_file(std::move(path), stripe_count, first_ost, stripe_size);
}

void FileSystem::close(StripedFile& file, OnComplete on_complete) {
  mds_.submit(mds_.index_of(file.path()), MetadataServer::OpKind::Close,
              std::move(on_complete));
}

void FileSystem::close_from(std::uint32_t src_key, StripedFile& file, OnComplete on_complete) {
  mds_.submit_from(src_key, mds_.index_of(file.path()), MetadataServer::OpKind::Close,
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
                    [this](double) { return static_cast<double>(fabric_.active_count()); });
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
