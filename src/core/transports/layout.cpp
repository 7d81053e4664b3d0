#include "core/transports/layout.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>

namespace aio::core {

double IoJob::total_bytes() const {
  return std::accumulate(bytes_per_writer.begin(), bytes_per_writer.end(), 0.0);
}

LocalIndex IoJob::blueprint_for(Rank r) const {
  if (blueprint) return blueprint(r);
  LocalIndex idx;
  idx.writer = r;
  BlockRecord block;
  block.writer = r;
  block.var_id = 0;
  block.length = static_cast<std::uint64_t>(bytes_per_writer.at(static_cast<std::size_t>(r)));
  idx.blocks.push_back(std::move(block));
  return idx;
}

IoJob IoJob::uniform(std::size_t n, double bytes) {
  if (n == 0) throw std::invalid_argument("IoJob: need at least one writer");
  if (!(bytes > 0.0 && std::isfinite(bytes)))
    throw std::invalid_argument("IoJob: bytes must be > 0");
  IoJob job;
  job.bytes_per_writer.assign(n, bytes);
  return job;
}

double IoResult::per_writer_bandwidth() const {
  if (writer_times.empty()) return 0.0;
  double acc = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < writer_times.size(); ++i) {
    const double dt = writer_times[i].duration();
    if (dt <= 0.0) continue;
    // Writers may have unequal payloads; weight by each writer's bytes.
    acc += total_bytes / static_cast<double>(writer_times.size()) / dt;
    ++n;
  }
  return n > 0 ? acc / static_cast<double>(n) : 0.0;
}

double IoResult::slowest_writer() const {
  double worst = 0.0;
  for (const auto& w : writer_times) worst = std::max(worst, w.duration());
  return worst;
}

double IoResult::fastest_writer() const {
  double best = std::numeric_limits<double>::infinity();
  for (const auto& w : writer_times) best = std::min(best, w.duration());
  return writer_times.empty() ? 0.0 : best;
}

double IoResult::imbalance_factor() const {
  const double fast = fastest_writer();
  return fast > 0.0 ? slowest_writer() / fast : 0.0;
}

}  // namespace aio::core
