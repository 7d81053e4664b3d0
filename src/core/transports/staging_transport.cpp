#include "core/transports/staging_transport.hpp"

#include <deque>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/fluid.hpp"

namespace aio::core {

namespace {

/// One staging node: an ingest link, a bounded buffer, and a chunked drain
/// to its own striped file.  The node persists across output steps so
/// residue from a previous step still occupies buffer space — the mechanism
/// behind the paper's "one or at most a few simulation output steps".
struct StagingNode {
  fs::FileSystem& fs;
  StagingTransport::Config cfg;
  std::shared_ptr<double> buffered_total;
  sim::FluidResource link;  // one link: the node's ingest
  fs::StripedFile* file = nullptr;

  double occupancy = 0.0;     // bytes accepted and not yet written to storage
  double undrained = 0.0;     // bytes accepted and not yet *scheduled* to drain
  double file_offset = 0.0;
  std::size_t active_drains = 0;

  /// Move-only SBO callable: a queued writer's acceptance callback (one
  /// shared_ptr + an index in practice) parks in the deque without a heap
  /// allocation per queued write.
  using OnAccepted = sim::InplaceFunction<void(sim::Time), 48>;
  struct Pending {
    double bytes;
    OnAccepted on_accepted;
  };
  std::deque<Pending> queue;
  double in_transfer = 0.0;  // bytes currently moving over the link

  StagingNode(fs::FileSystem& f, const StagingTransport::Config& c, std::size_t index,
              std::shared_ptr<double> gauge)
      : fs(f),
        cfg(c),
        buffered_total(std::move(gauge)),
        link(f.engine(), sim::FluidResource::Config{c.node_ingest_bw, 0.0, 0.0}, 1) {
    file = &fs.open_immediate("staging." + std::to_string(index), cfg.osts_per_node,
                              index * cfg.osts_per_node);
  }

  void submit(double bytes, OnAccepted on_accepted) {
    queue.push_back(Pending{bytes, std::move(on_accepted)});
    admit();
  }

  /// Starts transfers while the buffer has room for them.
  void admit() {
    while (!queue.empty() &&
           occupancy + in_transfer + queue.front().bytes <= cfg.buffer_bytes) {
      Pending p = std::move(queue.front());
      queue.pop_front();
      in_transfer += p.bytes;
      link.start(0, p.bytes, [this, bytes = p.bytes,
                              on_accepted = std::move(p.on_accepted)](sim::Time now) mutable {
        in_transfer -= bytes;
        occupancy += bytes;
        undrained += bytes;
        *buffered_total += bytes;
        if (on_accepted) on_accepted(now);
        pump_drain();
      });
    }
  }

  /// Keeps up to `drain_streams` chunk writes in flight.
  void pump_drain() {
    while (active_drains < cfg.drain_streams && undrained > 0.0) {
      const double chunk = std::min(cfg.drain_chunk_bytes, undrained);
      undrained -= chunk;
      ++active_drains;
      file->write(file_offset, chunk, fs::Ost::Mode::Durable, [this, chunk](sim::Time) {
        --active_drains;
        occupancy -= chunk;
        *buffered_total -= chunk;
        admit();      // freed space may unblock queued writers
        pump_drain();
      });
      file_offset += chunk;
    }
  }
};

struct StagingArea {
  std::vector<std::unique_ptr<StagingNode>> nodes;
};

}  // namespace

StagingTransport::StagingTransport(fs::FileSystem& fs, Config config)
    : fs_(fs), config_(config), buffered_(std::make_shared<double>(0.0)) {
  if (config_.n_staging_nodes == 0 || config_.buffer_bytes <= 0.0 ||
      config_.node_ingest_bw <= 0.0 || config_.drain_chunk_bytes <= 0.0 ||
      config_.drain_streams == 0) {
    throw std::invalid_argument("StagingTransport: invalid config");
  }
  auto area = std::make_shared<StagingArea>();
  area->nodes.reserve(config_.n_staging_nodes);
  for (std::size_t i = 0; i < config_.n_staging_nodes; ++i)
    area->nodes.push_back(std::make_unique<StagingNode>(fs_, config_, i, buffered_));
  area_ = area;
}

void StagingTransport::run(const IoJob& job, std::function<void(IoResult)> on_done) {
  if (job.n_writers() == 0) throw std::invalid_argument("StagingTransport: empty job");
  auto area = std::static_pointer_cast<StagingArea>(area_);

  struct RunState {
    IoResult result;
    std::size_t remaining;
    std::function<void(IoResult)> on_done;
  };
  auto state = std::make_shared<RunState>();
  state->result.transport = name();
  state->result.t_begin = fs_.engine().now();
  state->result.t_open_done = state->result.t_begin;
  state->result.total_bytes = job.total_bytes();
  state->result.var_names = job.var_names;
  state->result.writer_times.resize(job.n_writers());
  state->remaining = job.n_writers();
  state->on_done = std::move(on_done);

  const double t0 = fs_.engine().now();
  for (std::size_t w = 0; w < job.n_writers(); ++w) {
    state->result.writer_times[w].start = t0;
    StagingNode& node = *area->nodes[w % area->nodes.size()];
    node.submit(job.bytes_per_writer[w], [state, w](sim::Time now) {
      state->result.writer_times[w].end = now;
      if (--state->remaining == 0) {
        // App-visible completion: everything accepted by the staging area.
        state->result.t_data_done = now;
        state->result.t_complete = now;
        state->on_done(std::move(state->result));
      }
    });
  }
}

}  // namespace aio::core
