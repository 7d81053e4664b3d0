#include "core/transports/target_probe.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <stdexcept>

namespace aio::core {

void probe_targets(fs::FileSystem& filesystem, double probe_bytes,
                   std::function<void(std::vector<double>)> on_done) {
  if (!(probe_bytes > 0.0 && std::isfinite(probe_bytes)))
    throw std::invalid_argument("probe_targets: bytes must be > 0");
  const std::size_t n = filesystem.n_osts();
  struct State {
    std::vector<double> seconds;
    std::size_t remaining;
    std::function<void(std::vector<double>)> on_done;
  };
  auto state = std::make_shared<State>();
  state->seconds.assign(n, 0.0);
  state->remaining = n;
  state->on_done = std::move(on_done);
  const double t0 = filesystem.engine().now();
  for (std::size_t i = 0; i < n; ++i) {
    filesystem.ost(i).write(probe_bytes, fs::Ost::Mode::Durable, [state, i, t0](sim::Time now) {
      state->seconds[i] = now - t0;
      if (--state->remaining == 0) state->on_done(std::move(state->seconds));
    });
  }
}

std::vector<std::size_t> rank_targets(const std::vector<double>& seconds, std::size_t n) {
  if (n == 0 || n > seconds.size())
    throw std::invalid_argument("rank_targets: n must be in [1, n_osts]");
  std::vector<std::size_t> order(seconds.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return seconds[a] < seconds[b]; });
  order.resize(n);
  // Keep the chosen targets in index order: the contiguous-group layout
  // stays cache- and operator-friendly.
  std::sort(order.begin(), order.end());
  return order;
}

}  // namespace aio::core
