#include "workload/s3d.hpp"

#include <stdexcept>

#include "workload/pixie3d.hpp"  // process_grid

namespace aio::workload {

core::IoJob s3d_job(const S3dConfig& config, std::size_t n_procs) {
  if (n_procs == 0) throw std::invalid_argument("s3d_job: zero processes");
  if (config.cube == 0) throw std::invalid_argument("s3d_job: zero cube");
  const auto grid = process_grid(n_procs);
  const std::size_t cube = config.cube;
  const std::uint64_t per_field =
      static_cast<std::uint64_t>(cube) * cube * cube * sizeof(double);
  const std::size_t n_fields = config.n_fields();

  core::IoJob job;
  job.bytes_per_writer.assign(n_procs, config.bytes_per_process());
  job.blueprint = [grid, cube, per_field, n_fields](core::Rank r) {
    const auto rank = static_cast<std::size_t>(r);
    const std::size_t ix = rank % grid[0];
    const std::size_t iy = (rank / grid[0]) % grid[1];
    const std::size_t iz = rank / (grid[0] * grid[1]);
    core::LocalIndex idx;
    idx.writer = r;
    idx.blocks.reserve(n_fields);
    for (std::uint32_t f = 0; f < n_fields; ++f) {
      core::BlockRecord b;
      b.writer = r;
      b.var_id = f;
      b.length = per_field;
      b.global_dims = {grid[0] * cube, grid[1] * cube, grid[2] * cube};
      b.offsets = {ix * cube, iy * cube, iz * cube};
      b.counts = {cube, cube, cube};
      // Primitive fields carry physical ranges; species fractions sit in
      // [0,1] — gives the characteristics-based queries real structure.
      if (f < 6) {
        b.ch.min = -10.0 * (f + 1);
        b.ch.max = 10.0 * (f + 1);
      } else {
        b.ch.min = 0.0;
        b.ch.max = 1.0;
      }
      b.ch.count = per_field / sizeof(double);
      idx.blocks.push_back(std::move(b));
    }
    return idx;
  };
  // Every rank writes n_fields 3-d blocks, so every index has rank 0's size.
  job.index_size = [size = core::IndexSize::of(job.blueprint(0))](core::Rank) { return size; };
  return job;
}

}  // namespace aio::workload
