#include "core/transports/mpiio_transport.hpp"

#include <memory>
#include <stdexcept>
#include <utility>

namespace aio::core {

void MpiioTransport::run(const IoJob& job, std::function<void(IoResult)> on_done) {
  if (job.n_writers() == 0) throw std::invalid_argument("MpiioTransport: empty job");
  const std::size_t stripes = config_.stripe_count == 0
                                  ? fs_.config().stripe_limit
                                  : std::min(config_.stripe_count, fs_.config().stripe_limit);

  fs::StripedFile& file =
      fs_.open_immediate("mpiio-shared", stripes, config_.first_ost, config_.stripe_size);

  struct RunState {
    IoResult result;
    std::size_t remaining;
    std::function<void(IoResult)> on_done;
  };
  auto state = std::make_shared<RunState>();
  state->result.transport = name();
  state->result.t_begin = fs_.engine().now();
  state->result.t_open_done = state->result.t_begin;  // open excluded (paper SIV)
  state->result.total_bytes = job.total_bytes();
  state->result.var_names = job.var_names;
  state->result.writer_times.resize(job.n_writers());
  state->remaining = job.n_writers();
  state->on_done = std::move(on_done);

  auto finish = [this, state, &file] {
    state->result.t_data_done = fs_.engine().now();
    // "an explicit flush is introduced prior to the file close operation".
    file.flush([this, state, &file](sim::Time) {
      fs_.close(file, [state](sim::Time now) {
        state->result.t_complete = now;
        state->on_done(std::move(state->result));
      });
    });
  };

  // Rank-order prefix offsets: each rank owns a contiguous region.
  const double t0 = fs_.engine().now();
  double offset = 0.0;
  for (std::size_t i = 0; i < job.n_writers(); ++i) {
    const double bytes = job.bytes_per_writer[i];
    state->result.writer_times[i].start = t0;
    // Buffered write + the paper's explicit pre-close flush, folded into
    // per-op durability: the write completes when its bytes are on disk.
    file.write(
        offset, bytes, fs::Ost::Mode::Durable,
        [state, i, finish](sim::Time now) {
          state->result.writer_times[i].end = now;
          if (--state->remaining == 0) finish();
        },
        config_.max_segments);
    offset += bytes;
  }
}

}  // namespace aio::core
