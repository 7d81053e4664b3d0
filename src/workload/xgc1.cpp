#include "workload/xgc1.hpp"

#include <stdexcept>

namespace aio::workload {

core::IoJob xgc1_job(const Xgc1Config& config, std::size_t n_procs) {
  if (n_procs == 0) throw std::invalid_argument("xgc1_job: zero processes");
  if (config.bytes_per_process <= 0.0 || config.phase_dims == 0)
    throw std::invalid_argument("xgc1_job: invalid config");

  // ~95% of the payload is particles, the rest the local field slice.
  const double field_bytes_d = config.bytes_per_process * 0.05;
  const auto field_bytes = static_cast<std::uint64_t>(field_bytes_d);
  const auto particle_bytes =
      static_cast<std::uint64_t>(config.bytes_per_process) - field_bytes;
  const std::uint64_t particles_per_rank =
      particle_bytes / (config.phase_dims * sizeof(double));
  const std::uint64_t field_cells = field_bytes / sizeof(double);

  core::IoJob job;
  job.bytes_per_writer.assign(
      n_procs, static_cast<double>(particle_bytes) + static_cast<double>(field_bytes));
  job.blueprint = [n_procs, particles_per_rank, particle_bytes, field_cells, field_bytes,
                   phase = config.phase_dims](core::Rank r) {
    const auto rank = static_cast<std::uint64_t>(r);
    core::LocalIndex idx;
    idx.writer = r;
    idx.blocks.reserve(2);

    core::BlockRecord particles;
    particles.writer = r;
    particles.var_id = 0;  // "zion" phase-space array
    particles.length = particle_bytes;
    particles.global_dims = {particles_per_rank * n_procs, phase};
    particles.offsets = {rank * particles_per_rank, 0};
    particles.counts = {particles_per_rank, phase};
    particles.ch.min = -1.0;
    particles.ch.max = 1.0;
    particles.ch.count = particles_per_rank * phase;
    idx.blocks.push_back(std::move(particles));

    core::BlockRecord field;
    field.writer = r;
    field.var_id = 1;  // "pot" field slice
    field.length = field_bytes;
    field.global_dims = {field_cells * n_procs};
    field.offsets = {rank * field_cells};
    field.counts = {field_cells};
    field.ch.min = 0.0;
    field.ch.max = 2.0;
    field.ch.count = field_cells;
    idx.blocks.push_back(std::move(field));
    return idx;
  };
  // Every rank writes a 2-d and a 1-d block, so every index has rank 0's size.
  job.index_size = [size = core::IndexSize::of(job.blueprint(0))](core::Rank) { return size; };
  return job;
}

}  // namespace aio::workload
