#include "core/transports/posix_transport.hpp"

#include <memory>
#include <stdexcept>
#include <utility>

namespace aio::core {

void PosixTransport::run(const IoJob& job, std::function<void(IoResult)> on_done) {
  if (job.n_writers() == 0) throw std::invalid_argument("PosixTransport: empty job");
  const std::size_t n_osts =
      config_.osts_to_use == 0 ? fs_.n_osts() : std::min(config_.osts_to_use, fs_.n_osts());

  struct RunState {
    IoResult result;
    std::size_t remaining;
    std::size_t flushes_remaining = 0;
    std::function<void(IoResult)> on_done;
  };
  auto state = std::make_shared<RunState>();
  state->result.transport = name();
  state->result.t_begin = fs_.engine().now();
  state->result.t_open_done = state->result.t_begin;  // opens excluded
  state->result.total_bytes = job.total_bytes();
  state->result.var_names = job.var_names;
  state->result.writer_times.resize(job.n_writers());
  state->remaining = job.n_writers();
  state->on_done = std::move(on_done);

  auto finish = [this, state, n_osts] {
    state->result.t_data_done = fs_.engine().now();
    if (!config_.flush_at_end) {
      state->result.t_complete = state->result.t_data_done;
      state->on_done(state->result);
      return;
    }
    state->flushes_remaining = n_osts;
    for (std::size_t o = 0; o < n_osts; ++o) {
      fs_.ost(o).flush([state](sim::Time now) {
        if (--state->flushes_remaining == 0) {
          state->result.t_complete = now;
          state->on_done(state->result);
        }
      });
    }
  };

  // Writers split evenly across the OSTs: writer i -> OST i mod n.
  const double t0 = fs_.engine().now();
  for (std::size_t i = 0; i < job.n_writers(); ++i) {
    state->result.writer_times[i].start = t0;
    fs_.ost(i % n_osts).write(job.bytes_per_writer[i], config_.mode,
                              [state, i, finish](sim::Time now) {
                                state->result.writer_times[i].end = now;
                                if (--state->remaining == 0) finish();
                              });
  }
}

}  // namespace aio::core
