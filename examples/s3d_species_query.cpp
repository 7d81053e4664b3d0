// S3D species query: content-based search through data characteristics.
//
// The paper's index carries per-block data characteristics so consumers can
// "quickly search for both the content as well as the logical location of
// the data of interest" without touching the data itself.  This example
// writes an S3D restart with the adaptive transport, then answers two
// analysis questions straight from the master index:
//
//   1. locality:  which blocks intersect a subvolume of the domain?
//   2. content:   which blocks can contain temperature above a threshold?
//
// Only the matching blocks would then be read — the characteristics prune
// everything else.
#include <algorithm>
#include <cstdio>

#include "core/api/adios.hpp"
#include "workload/s3d.hpp"

using namespace aio;

int main() {
  constexpr std::size_t kProcs = 512;
  const workload::S3dConfig model = workload::S3dConfig::small_run();
  const core::IoJob job = workload::s3d_job(model, kProcs);

  // A quiet machine: no production background load.
  api::Simulation sim(fs::jaguar(), /*seed=*/0, {.background_load = false});

  std::printf("writing S3D restart: %zu procs x %.1f MB (%zu fields each)...\n", kProcs,
              model.bytes_per_process() / 1e6, model.n_fields());
  core::AdaptiveTransport::Config cfg;
  cfg.n_files = 512;
  core::AdaptiveTransport transport(sim.file_system(), sim.network(), cfg);
  const core::IoResult result = sim.run(transport, job);
  const core::GlobalIndex index = result.kept_index->build();
  std::printf("done: %.2f GB/s, %zu blocks indexed across %zu files\n\n",
              result.bandwidth() / 1e9, result.total_blocks_indexed, index.n_files());

  // 1. Locality query: a corner subvolume of the temperature field (var 4).
  const std::vector<std::uint64_t> corner{0, 0, 0};
  const std::vector<std::uint64_t> extent{2 * model.cube, 2 * model.cube, 2 * model.cube};
  const auto local_hits = index.query(/*var_id=*/4, corner, extent);
  std::printf("blocks of 'T' intersecting the %llu^3 corner subvolume: %zu of %zu\n",
              static_cast<unsigned long long>(extent[0]), local_hits.size(), kProcs);
  for (std::size_t i = 0; i < std::min<std::size_t>(local_hits.size(), 4); ++i) {
    const auto& h = local_hits[i];
    std::printf("  writer %4d -> file %3d, offset %llu in (%llu,%llu,%llu)\n",
                h.block->writer, h.file,
                static_cast<unsigned long long>(h.block->file_offset),
                static_cast<unsigned long long>(h.block->offsets[0]),
                static_cast<unsigned long long>(h.block->offsets[1]),
                static_cast<unsigned long long>(h.block->offsets[2]));
  }

  // 2. Content query: characteristics prune by value range.  Temperature
  // (var 4) spans [-50, 50] in the synthetic model; species 0 (var 6) spans
  // [0, 1] — so a threshold of 40 keeps T blocks but never species blocks.
  const auto hot_t = index.query_by_value(/*var_id=*/4, 40.0, 1e9);
  const auto hot_species = index.query_by_value(/*var_id=*/6, 40.0, 1e9);
  std::printf("\nblocks possibly containing values > 40: var 'T' -> %zu, species Y0 -> %zu\n",
              hot_t.size(), hot_species.size());
  std::printf("(characteristics pruned every species block without reading a byte)\n");
  return 0;
}
