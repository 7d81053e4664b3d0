#include "workload/pixie3d.hpp"

#include <cmath>
#include <stdexcept>

namespace aio::workload {

const char* pixie3d_var_name(std::uint32_t v) {
  static const char* const kVarNames[8] = {"rho", "px", "py", "pz",
                                           "bx",  "by", "bz", "temp"};
  return v < 8 ? kVarNames[v] : "?";
}

std::array<std::size_t, 3> process_grid(std::size_t n_procs) {
  if (n_procs == 0) throw std::invalid_argument("process_grid: zero processes");
  // Greedy near-cubic factorization: pz = largest factor <= cbrt(n), then
  // py = largest factor of the remainder <= sqrt(remainder).
  auto largest_factor_below = [](std::size_t n, std::size_t cap) {
    std::size_t best = 1;
    for (std::size_t f = 1; f <= cap; ++f)
      if (n % f == 0) best = f;
    return best;
  };
  const auto pz = largest_factor_below(
      n_procs, static_cast<std::size_t>(std::cbrt(static_cast<double>(n_procs)) + 1e-9));
  const std::size_t rest = n_procs / pz;
  const auto py = largest_factor_below(
      rest, static_cast<std::size_t>(std::sqrt(static_cast<double>(rest)) + 1e-9));
  const std::size_t px = rest / py;
  return {px, py, pz};
}

core::IoJob pixie3d_job(const Pixie3dConfig& config, std::size_t n_procs) {
  const auto grid = process_grid(n_procs);
  const std::size_t cube = config.cube;
  const std::uint64_t per_var_bytes =
      static_cast<std::uint64_t>(cube) * cube * cube * sizeof(double);

  core::IoJob job;
  job.bytes_per_writer.assign(n_procs, config.bytes_per_process());
  auto vars = std::make_shared<core::VarTable>();
  for (std::uint32_t v = 0; v < 8; ++v) vars->intern(pixie3d_var_name(v));
  job.var_names = std::move(vars);
  job.blueprint = [grid, cube, per_var_bytes](core::Rank r) {
    const auto rank = static_cast<std::size_t>(r);
    const std::size_t ix = rank % grid[0];
    const std::size_t iy = (rank / grid[0]) % grid[1];
    const std::size_t iz = rank / (grid[0] * grid[1]);
    core::LocalIndex idx;
    idx.writer = r;
    idx.blocks.reserve(8);
    for (std::uint32_t v = 0; v < 8; ++v) {
      core::BlockRecord b;
      b.writer = r;
      b.var_id = v;
      b.length = per_var_bytes;
      b.global_dims = {grid[0] * cube, grid[1] * cube, grid[2] * cube};
      b.offsets = {ix * cube, iy * cube, iz * cube};
      b.counts = {cube, cube, cube};
      // Synthetic but deterministic characteristics: each variable carries a
      // distinct value band so content queries have something to find.
      b.ch.min = static_cast<double>(v) - 0.5 - 0.001 * static_cast<double>(rank % 97);
      b.ch.max = static_cast<double>(v) + 0.5 + 0.001 * static_cast<double>(rank % 89);
      b.ch.count = static_cast<std::uint64_t>(cube) * cube * cube;
      b.ch.sum = static_cast<double>(v) * static_cast<double>(b.ch.count);
      idx.blocks.push_back(std::move(b));
    }
    return idx;
  };
  // Every rank writes eight 3-d blocks, so every index has rank 0's size.
  job.index_size = [size = core::IndexSize::of(job.blueprint(0))](core::Rank) { return size; };
  return job;
}

}  // namespace aio::workload
