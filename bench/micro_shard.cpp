// Micro-benchmarks for the sharded window loop (google-benchmark).
//
// Isolates the three costs that bound sharded scaling, each at 1/2/4/8
// shards so the per-shard overhead curve is visible in CI artifacts:
//
//  * barrier round-trip — dense window grid (every window has one event on
//    every shard), so wall clock divides into per-round cost: one horizon
//    publish + one sense-reversing barrier + one empty merge per round;
//  * zero-event window overhead — a timeline that spans thousands of grid
//    windows with events only at the two ends.  The idle-window skip hops
//    the cursor in one integer step, so wall clock must not scale with the
//    number of empty windows crossed (the pre-skip loop executed each one);
//  * channel post/merge throughput — one seed event per shard fans no-op
//    messages across all shards, measuring post -> drain -> canonical merge
//    -> schedule -> execute end to end.
//
// Thread spawn is inside the timed region (a ShardGroup runs once), which is
// honest: the real macro benches pay it per run too.  Rounds per iteration
// are high enough that spawn cost is noise next to the barrier traffic.
#include <benchmark/benchmark.h>

#include "micro_main.hpp"
#include "sim/shard.hpp"

namespace {

using namespace aio;

constexpr std::size_t kRanksPerNode = 8;
constexpr std::size_t kRanks = 64;
constexpr std::size_t kOsts = 8;  // 8 OSTs: supports 1..8 shards

sim::ShardGroup::Config group_config(std::size_t n_shards) {
  sim::ShardGroup::Config c;
  c.n_shards = n_shards;
  c.n_ranks = kRanks;
  c.ranks_per_node = kRanksPerNode;
  c.n_osts = kOsts;
  return c;
}

// First rank homed on `shard`, for a valid post() source key.
std::size_t rank_on_shard(const sim::ShardGroup& sg, std::size_t shard) {
  for (std::size_t r = 0; r < sg.n_ranks(); r += kRanksPerNode)
    if (sg.shard_of(sim::Entity::rank(r)) == shard) return r;
  return 0;
}

void BM_ShardBarrierRoundTrip(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kRounds = 256;
  for (auto _ : state) {
    sim::ShardGroup sg(group_config(shards));
    const double w = sg.window_s();
    for (std::size_t s = 0; s < sg.n_shards(); ++s)
      for (std::size_t k = 0; k < kRounds; ++k)
        sg.engine(s).schedule_at(static_cast<double>(k) * w + 1e-9, [] {});
    sg.run();
    benchmark::DoNotOptimize(sg.barrier_rounds());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kRounds);
}
BENCHMARK(BM_ShardBarrierRoundTrip)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_ShardIdleWindowSkip(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kEmptyWindows = 4096;
  for (auto _ : state) {
    sim::ShardGroup sg(group_config(shards));
    const double w = sg.window_s();
    for (std::size_t s = 0; s < sg.n_shards(); ++s) {
      sg.engine(s).schedule_at(1e-9, [] {});
      sg.engine(s).schedule_at(static_cast<double>(kEmptyWindows) * w + 1e-9, [] {});
    }
    sg.run();
    benchmark::DoNotOptimize(sg.windows_skipped());
  }
  // Items are the *empty grid windows crossed*: throughput collapsing with
  // kEmptyWindows would mean the loop went back to walking them one by one.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kEmptyWindows);
}
BENCHMARK(BM_ShardIdleWindowSkip)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_ShardChannelPostMerge(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kMessages = 8192;
  for (auto _ : state) {
    sim::ShardGroup sg(group_config(shards));
    const std::size_t per_shard = kMessages / sg.n_shards();
    for (std::size_t s = 0; s < sg.n_shards(); ++s) {
      const std::uint32_t key = sg.key_of(sim::Entity::rank(rank_on_shard(sg, s)));
      sg.engine(s).schedule_at(1e-9, [&sg, key, per_shard] {
        for (std::size_t m = 0; m < per_shard; ++m)
          sg.post(key, m % sg.n_shards(), 0.0, [] {});
      });
    }
    sg.run();
    benchmark::DoNotOptimize(sg.total_steps());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kMessages);
}
BENCHMARK(BM_ShardChannelPostMerge)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

}  // namespace

int main(int argc, char** argv) { return aio::bench::micro_main(argc, argv); }
