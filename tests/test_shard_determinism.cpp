// Sharded-engine determinism: the documented contract is that for a fixed
// configuration and job, simulated timestamps, results, and the canonically
// merged journal are bit-identical at every shard count.  This file sweeps
// shard counts 1/2/3/4/8 over seeded jobs and compares FNV digests of the
// merged records plus every IoResult field bit-for-bit, pins the shard
// partition itself, and proves the negative: a deliberately misordered
// cross-shard merge is rejected.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "core/transports/sharded.hpp"
#include "obs/journal.hpp"
#include "sim/shard.hpp"

namespace {

using aio::core::IoJob;
using aio::core::IoResult;
using aio::core::ShardedAdaptiveSim;

constexpr std::size_t kWriters = 192;
constexpr std::size_t kOsts = 16;

// Seeded job: uneven payloads (a few heavy writers per group) so the run
// exercises stealing, cache pressure, and cross-group traffic.
IoJob seeded_job(std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> jitter(0.5, 2.0);
  IoJob job;
  job.bytes_per_writer.resize(kWriters);
  for (std::size_t i = 0; i < kWriters; ++i) {
    double b = 256.0 * 1024.0 * jitter(rng);
    if (i % 37 == 0) b *= 4.0;  // stragglers: force steals
    job.bytes_per_writer[i] = b;
  }
  return job;
}

// Sparse jobs: workloads whose event timeline is mostly empty, so the
// window loop spends its time hopping over idle windows rather than
// executing them.  These are the adversarial shapes for the idle-window
// skip: a wrong global-minimum reduction (e.g. one that misses a pending
// in-flight channel message) would either deadlock or silently reorder a
// delivery, and both break the digests below.
//
// "Metadata storm": every payload is a fraction of one block, so the run
// is per-op latency gaps (0.5 ms >> the 512 us default window) separated
// by almost no data movement.
IoJob metadata_storm_job(std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> jitter(0.5, 2.0);
  IoJob job;
  job.bytes_per_writer.resize(kWriters);
  for (std::size_t i = 0; i < kWriters; ++i)
    job.bytes_per_writer[i] = 2048.0 * jitter(rng);
  return job;
}

// "Long-tail drain": one writer carries ~64x the median payload, so after
// the bulk finishes the sim idles through a long single-writer tail where
// nearly every shard has nothing scheduled.
IoJob long_tail_job(std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> jitter(0.5, 2.0);
  IoJob job;
  job.bytes_per_writer.resize(kWriters);
  for (std::size_t i = 0; i < kWriters; ++i)
    job.bytes_per_writer[i] = 64.0 * 1024.0 * jitter(rng);
  job.bytes_per_writer[kWriters / 2] = 4.0 * 1024.0 * 1024.0;
  return job;
}

ShardedAdaptiveSim::Config rig_config(std::size_t n_shards) {
  ShardedAdaptiveSim::Config c;
  c.n_shards = n_shards;
  c.n_ranks = kWriters;
  c.fs.n_osts = kOsts;
  c.fs.ost.disk_bw = 200e6;
  c.fs.ost.cache_bytes = 8e6;  // small cache: dirty-stream churn
  c.fs.ost.ingest_bw = 500e6;
  c.fs.ost.alpha = 0.05;
  c.fs.ost.op_latency_s = 0.0005;
  c.fs.fabric_bw = 3e9;  // < n_osts * ingest: the governor stays busy
  c.net.latency_s = 8e-6;
  c.net.nic_bw = 2e9;
  c.net.cores_per_node = 4;
  c.adaptive.n_files = 0;  // one file (group) per OST
  c.collect_journal = true;
  return c;
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

struct RunOutcome {
  IoResult result;
  std::uint64_t journal_digest = 0;
  std::size_t n_records = 0;
  std::uint64_t windows_executed = 0;
  std::uint64_t windows_skipped = 0;
  std::uint64_t mds_ops = 0;    ///< metadata requests served
  std::uint64_t mds_items = 0;  ///< files those requests carried
};

RunOutcome run_job(ShardedAdaptiveSim::Config cfg, const IoJob& job) {
  ShardedAdaptiveSim sim(std::move(cfg));
  RunOutcome out;
  out.result = sim.run(job);
  const auto records = sim.merged_records();
  out.n_records = records.size();
  std::uint64_t h = 14695981039346656037ull;
  for (const auto& r : records) h = fnv1a(&r, sizeof(r), h);
  out.journal_digest = h;
  out.windows_executed = sim.shards().windows_executed();
  out.windows_skipped = sim.shards().windows_skipped();
  out.mds_ops = sim.fs().mds_group().completed_ops();
  out.mds_items = sim.fs().mds_group().completed_items();
  return out;
}

RunOutcome run_at(std::size_t n_shards, std::uint32_t seed) {
  return run_job(rig_config(n_shards), seeded_job(seed));
}

// FNV-1a over every writer's timing record, in rank order.
std::uint64_t writer_timing_digest(const IoResult& r) {
  std::uint64_t h = 14695981039346656037ull;
  for (const aio::core::WriterTiming& w : r.writer_times) h = fnv1a(&w, sizeof(w), h);
  return h;
}

// Field-by-field bit-identity between two outcomes (EXPECT_EQ on doubles is
// exact equality, which is the point).
void expect_identical(const RunOutcome& base, const RunOutcome& other, const char* what) {
  EXPECT_EQ(base.result.t_begin, other.result.t_begin) << what;
  EXPECT_EQ(base.result.t_open_done, other.result.t_open_done) << what;
  EXPECT_EQ(base.result.t_data_done, other.result.t_data_done) << what;
  EXPECT_EQ(base.result.t_complete, other.result.t_complete) << what;
  EXPECT_EQ(base.result.steals, other.result.steals) << what;
  EXPECT_EQ(base.result.grants_issued, other.result.grants_issued) << what;
  EXPECT_EQ(base.result.total_blocks_indexed, other.result.total_blocks_indexed) << what;
  ASSERT_EQ(base.result.writer_times.size(), other.result.writer_times.size()) << what;
  const std::uint64_t wt_base = writer_timing_digest(base.result);
  const std::uint64_t wt_other = writer_timing_digest(other.result);
  EXPECT_EQ(wt_base, wt_other) << "writer timing digest diverged: " << what;
  EXPECT_EQ(base.n_records, other.n_records) << what;
  EXPECT_EQ(base.journal_digest, other.journal_digest) << what;
}

class ShardDeterminism : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ShardDeterminism, BitIdenticalAcrossShardCounts) {
  const std::uint32_t seed = GetParam();
  const RunOutcome base = run_at(1, seed);
  ASSERT_GT(base.n_records, 0u);
  ASSERT_GT(base.result.io_seconds(), 0.0);
  // 3 shards split the 16 OSTs unevenly (5, 5, 6).
  for (const std::size_t s : {std::size_t{2}, std::size_t{3}, std::size_t{4}, std::size_t{8}}) {
    const RunOutcome other = run_at(s, seed);
    // Bit-identical simulated timestamps: every IoResult time field must
    // match exactly, not within a tolerance, and the canonical journal merge
    // must not depend on how records were distributed over shards.
    expect_identical(base, other, (testing::Message() << "shards=" << s).GetString().c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardDeterminism,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

// Sparse workloads stress the idle-window skip: the timeline has long empty
// stretches, so a shard-count-dependent skip decision (or a delivery missed
// by the horizon reduction) would show up as a digest mismatch or a hang.
// The telemetry assertion pins that the skip path actually ran — if a future
// change quietly disables skipping, this fails rather than just getting slow.
// The rig runs at window_batch=8 (64 us windows): the dominant idle stretch
// here is the 0.5 ms op latency, which spans ~7 windows at that size but
// fits inside one 512 us default window.
ShardedAdaptiveSim::Config sparse_rig_config(std::size_t n_shards) {
  auto c = rig_config(n_shards);
  c.window_batch = 8.0;
  return c;
}

class ShardSparseDeterminism : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ShardSparseDeterminism, MetadataStormSkipsIdleWindows) {
  const IoJob job = metadata_storm_job(GetParam());
  const RunOutcome base = run_job(sparse_rig_config(1), job);
  ASSERT_GT(base.n_records, 0u);
  EXPECT_GT(base.windows_skipped, 0u) << "sparse run executed every window: skip path inert";
  for (const std::size_t s : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    const RunOutcome other = run_job(sparse_rig_config(s), job);
    expect_identical(base, other, (testing::Message() << "shards=" << s).GetString().c_str());
    EXPECT_GT(other.windows_skipped, 0u) << "shards=" << s;
  }
}

TEST_P(ShardSparseDeterminism, LongTailDrainSkipsIdleWindows) {
  const IoJob job = long_tail_job(GetParam());
  const RunOutcome base = run_job(sparse_rig_config(1), job);
  ASSERT_GT(base.n_records, 0u);
  EXPECT_GT(base.windows_skipped, 0u) << "sparse run executed every window: skip path inert";
  for (const std::size_t s : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    const RunOutcome other = run_job(sparse_rig_config(s), job);
    expect_identical(base, other, (testing::Message() << "shards=" << s).GetString().c_str());
    EXPECT_GT(other.windows_skipped, 0u) << "shards=" << s;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardSparseDeterminism, ::testing::Values(11u, 23u));

// Multi-MDS tier determinism: with a 4-wide metadata tier the servers are
// homed on different shards (by the span rule that places OSTs), so
// open/close requests and completions cross the channel plane in both
// directions.  Because every rank<->MDS coupling quantizes at a window
// boundary regardless of placement, the digests must stay bit-identical at
// every shard count — same property, same exactness, as the single-MDS
// sweep above.
TEST(ShardMultiMds, DigestsBitIdenticalAcrossShardCounts) {
  const IoJob job = seeded_job(7);
  auto cfg = rig_config(1);
  cfg.fs.n_mds = 4;
  const RunOutcome base = run_job(cfg, job);
  ASSERT_GT(base.n_records, 0u);
  for (const std::size_t s : {std::size_t{2}, std::size_t{3}, std::size_t{4}, std::size_t{8}}) {
    auto c = rig_config(s);
    c.fs.n_mds = 4;
    const RunOutcome other = run_job(c, job);
    expect_identical(base, other,
                     (testing::Message() << "n_mds=4 shards=" << s).GetString().c_str());
  }
}

// Sharded closes honour open_batch: the coordinator closes the 17 files (16
// groups plus the master index) in requests of up to 4 files per server,
// and the timestamps still do not depend on the shard count.
TEST(ShardMultiMds, BatchedClosesBitIdenticalAcrossShardCounts) {
  const IoJob job = seeded_job(7);
  const auto batched = [](std::size_t n_shards) {
    auto c = rig_config(n_shards);
    c.fs.n_mds = 4;
    c.adaptive.open_batch = 4;
    return c;
  };
  const RunOutcome base = run_job(batched(1), job);
  ASSERT_GT(base.n_records, 0u);
  EXPECT_LT(base.mds_ops, base.mds_items) << "sharded closes went one file per request";
  for (const std::size_t s : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    const RunOutcome other = run_job(batched(s), job);
    const std::string what = (testing::Message() << "open_batch=4 shards=" << s).GetString();
    expect_identical(base, other, what.c_str());
    EXPECT_EQ(base.result.total_bytes, other.result.total_bytes) << what;
    EXPECT_EQ(base.mds_ops, other.mds_ops) << what;
    EXPECT_EQ(base.mds_items, other.mds_items) << what;
  }
}

// More shards than nodes: 8 writers on two 4-core nodes over 8 OSTs leave
// shards that own OSTs but no ranks (two of four at 4 shards, six of eight
// at 8).  Those shards still meet every barrier, and the results match one
// shard bit for bit.
TEST(ShardedRun, ShardsWithoutRanksStayBitIdentical) {
  const auto small = [](std::size_t n_shards) {
    auto c = rig_config(n_shards);
    c.n_ranks = 8;
    c.fs.n_osts = 8;
    return c;
  };
  IoJob job;
  for (std::size_t i = 0; i < 8; ++i) job.bytes_per_writer.push_back((1.0 + i % 3) * 512.0 * 1024.0);
  const RunOutcome base = run_job(small(1), job);
  ASSERT_GT(base.n_records, 0u);
  for (const std::size_t s : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    const std::string what = (testing::Message() << "shards=" << s).GetString();
    ShardedAdaptiveSim probe(small(s));
    ASSERT_EQ(probe.shards().n_shards(), s) << what;
    std::size_t rankless = 0;
    for (std::size_t shard = 0; shard < s; ++shard) {
      bool owns_rank = false;
      for (std::size_t r = 0; r < 8; ++r)
        owns_rank = owns_rank || probe.shards().shard_of(aio::sim::Entity::rank(r)) == shard;
      rankless += owns_rank ? 0 : 1;
    }
    EXPECT_EQ(rankless, s - 2) << what;
    expect_identical(base, run_job(small(s), job), what.c_str());
  }
}

// The governor replicas, pinned.  The rig's fabric (3 GB/s against 16 OSTs
// of 500 MB/s ingest) keeps the governor deciding, so OST activity
// transitions land at most window boundaries.  The replicas hear each
// window's net change once, from one boundary tally per shard; the bits
// below were captured from the feed the tally replaced, one channel message
// per transition per replica, so both feeds give the same run bit for bit.
TEST(ShardGovernor, BoundaryTallyMatchesPinnedPerTransitionFeed) {
  struct Golden {
    std::uint32_t seed;
    std::uint64_t t_complete_bits;
    std::uint64_t writer_digest;
    std::uint64_t journal_digest;
  };
  for (const Golden g : {Golden{1, 0x3fad19157abb8801ull, 0x0803c56142464c8aull,
                                0x0984c09ce217d653ull},
                         Golden{5, 0x3fad9f4d37c1376dull, 0x669ac83fdb1141b5ull,
                                0x407f625b37903f54ull}}) {
    const IoJob job = seeded_job(g.seed);
    for (const std::size_t s : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      const RunOutcome out = run_job(rig_config(s), job);
      std::uint64_t t_bits = 0;
      std::memcpy(&t_bits, &out.result.t_complete, sizeof t_bits);
      const std::string what =
          (testing::Message() << "seed " << g.seed << " shards=" << s).GetString();
      EXPECT_EQ(t_bits, g.t_complete_bits) << what << std::hex << " t_complete bits 0x" << t_bits;
      EXPECT_EQ(writer_timing_digest(out.result), g.writer_digest)
          << what << std::hex << " writer digest 0x" << writer_timing_digest(out.result);
      EXPECT_EQ(out.journal_digest, g.journal_digest)
          << what << std::hex << " journal digest 0x" << out.journal_digest;
    }
  }
}

// What the replicas cost: at most one tally event and one flush per replica
// per barrier round, so four shards run at most 2·3 more events a round than
// one shard.  One message per transition per replica cost an event for
// every transition on each extra replica.
TEST(ShardGovernor, ExtraReplicasCostAtMostOneTallyAndOneFlushPerRound) {
  const IoJob job = seeded_job(1);
  ShardedAdaptiveSim one(rig_config(1));
  one.run(job);
  ShardedAdaptiveSim four(rig_config(4));
  four.run(job);
  ASSERT_EQ(four.shards().n_shards(), 4u);
  const std::uint64_t rounds = four.shards().barrier_rounds();
  ASSERT_EQ(one.shards().barrier_rounds(), rounds);
  ASSERT_GE(four.steps(), one.steps());
  EXPECT_LE(four.steps() - one.steps(), 2 * 3 * rounds)
      << one.steps() << " events at 1 shard, " << four.steps() << " at 4, " << rounds
      << " barrier rounds";
}

TEST(ShardDeterminismNegative, MisorderedMergeIsRejected) {
  ShardedAdaptiveSim sim(rig_config(2));
  ASSERT_EQ(sim.shards().n_shards(), 2u);
  sim.shards().corrupt_next_merge_for_test();
  EXPECT_THROW(sim.run(seeded_job(1)), std::logic_error);
}

// Entities per shard, walking `count` entities of one kind in index order.
// Fails (and returns nothing) unless the owners never step back, i.e. each
// shard's span is contiguous.
std::vector<std::size_t> span_sizes(const aio::sim::ShardGroup& g, std::size_t count,
                                    aio::sim::Entity (*make)(std::size_t)) {
  std::vector<std::size_t> sizes(g.n_shards(), 0);
  std::size_t prev = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t s = g.shard_of(make(i));
    if (s < prev || s >= g.n_shards()) {
      ADD_FAILURE() << "entity " << i << " lands on shard " << s << " after shard " << prev;
      return {};
    }
    ++sizes[s];
    prev = s;
  }
  return sizes;
}

// Where shards 1..S-1 begin, given the span sizes.
std::vector<std::size_t> cuts(const std::vector<std::size_t>& sizes) {
  std::vector<std::size_t> out;
  std::size_t at = 0;
  for (std::size_t s = 0; s + 1 < sizes.size(); ++s) out.push_back(at += sizes[s]);
  return out;
}

// Each shard owns one contiguous span of ranks, OSTs and metadata servers.
// The rank cuts sit on node boundaries, and every shard is within one node
// of its rank share and within one OST of its OST share.  The grid is the
// 65,536-writer Jaguar slice (12 cores per node, 672 OSTs) with a 4-wide
// metadata tier.
TEST(ShardPlan, SpansAreNodeAlignedContiguousAndBalanced) {
  using aio::sim::Entity;
  aio::sim::ShardGroup::Config c;
  c.n_ranks = 65536;
  c.ranks_per_node = 12;
  c.n_osts = 672;
  c.n_mds = 4;
  for (const std::size_t n_shards : {2u, 3u, 4u, 8u}) {
    c.n_shards = n_shards;
    const aio::sim::ShardGroup g(c);
    ASSERT_EQ(g.n_shards(), n_shards);
    const std::vector<std::size_t> ranks = span_sizes(g, c.n_ranks, &Entity::rank);
    const std::vector<std::size_t> osts = span_sizes(g, c.n_osts, &Entity::ost);
    const std::vector<std::size_t> mds = span_sizes(g, c.n_mds, &Entity::mds);
    ASSERT_EQ(ranks.size(), n_shards);
    ASSERT_EQ(osts.size(), n_shards);
    ASSERT_EQ(mds.size(), n_shards);
    for (const std::size_t cut : cuts(ranks))
      EXPECT_EQ(cut % c.ranks_per_node, 0u) << "a node straddles shards at rank " << cut;
    const auto share = [n_shards](std::size_t n) {
      return static_cast<double>(n) / static_cast<double>(n_shards);
    };
    for (std::size_t s = 0; s < n_shards; ++s) {
      const std::string what =
          (testing::Message() << "shard " << s << " of " << n_shards).GetString();
      EXPECT_LT(std::abs(static_cast<double>(ranks[s]) - share(c.n_ranks)),
                static_cast<double>(c.ranks_per_node))
          << what << " holds " << ranks[s] << " ranks";
      EXPECT_LE(std::abs(static_cast<double>(osts[s]) - share(c.n_osts)), 1.0)
          << what << " holds " << osts[s] << " OSTs";
      EXPECT_LT(std::abs(static_cast<double>(mds[s]) - share(c.n_mds)), 1.0)
          << what << " holds " << mds[s] << " metadata servers";
    }
  }
  // The full-Jaguar grid (224,160 writers) at 4 shards, the placement the
  // sharded perf workload runs on.
  c.n_ranks = 224160;
  c.n_mds = 1;
  c.n_shards = 4;
  const aio::sim::ShardGroup jaguar(c);
  EXPECT_EQ(cuts(span_sizes(jaguar, c.n_ranks, &Entity::rank)),
            (std::vector<std::size_t>{56040, 112080, 168120}));
  EXPECT_EQ(cuts(span_sizes(jaguar, c.n_osts, &Entity::ost)),
            (std::vector<std::size_t>{168, 336, 504}));
}

// S is clamped to [1, min(32, n_osts)], so every shard owns an OST.
TEST(ShardPlan, ShardCountClampsToOstsAndCap) {
  aio::sim::ShardGroup::Config c;
  c.n_ranks = 16;
  c.n_osts = 3;
  c.n_shards = 8;
  EXPECT_EQ(aio::sim::ShardGroup(c).n_shards(), 3u);
  c.n_shards = 0;
  EXPECT_EQ(aio::sim::ShardGroup(c).n_shards(), 1u);
  c.n_ranks = 4096;
  c.n_osts = 672;
  c.n_shards = 64;
  EXPECT_EQ(aio::sim::ShardGroup(c).n_shards(), 32u);
}

// Every count the clamp allows, on grids that do not divide evenly: a
// partial last node (1,000 ranks at 12 per node) on a prime OST count, a
// machine with fewer nodes than shards, and a 4,096-rank slice up to the
// 32-shard cap.  The rank cuts are s·n_ranks/S rounded down to a node,
// OSTs and metadata servers follow ((i+1)·S−1)/n, nodes stay whole, and
// every shard owns at least one OST.
TEST(ShardPlan, EveryCountUpToTheCapFollowsTheSpanRule) {
  using aio::sim::Entity;
  struct Grid {
    std::size_t ranks, per_node, osts, mds;
  };
  for (const Grid grid : {Grid{1000, 12, 17, 3}, Grid{24, 12, 8, 5}, Grid{4096, 16, 672, 4}}) {
    aio::sim::ShardGroup::Config c;
    c.n_ranks = grid.ranks;
    c.ranks_per_node = grid.per_node;
    c.n_osts = grid.osts;
    c.n_mds = grid.mds;
    const std::size_t cap = std::min(aio::sim::ShardGroup::kMaxShards, grid.osts);
    for (std::size_t n_shards = 1; n_shards <= cap; ++n_shards) {
      c.n_shards = n_shards;
      const aio::sim::ShardGroup g(c);
      const std::string what = (testing::Message() << grid.ranks << " ranks on " << grid.osts
                                                   << " OSTs at " << n_shards << " shards")
                                   .GetString();
      ASSERT_EQ(g.n_shards(), n_shards) << what;
      std::vector<std::size_t> want;
      for (std::size_t s = 1; s < n_shards; ++s)
        want.push_back(s * c.n_ranks / n_shards / c.ranks_per_node * c.ranks_per_node);
      const std::vector<std::size_t> ranks = span_sizes(g, c.n_ranks, &Entity::rank);
      ASSERT_EQ(ranks.size(), n_shards) << what;
      EXPECT_EQ(cuts(ranks), want) << what;
      for (std::size_t r = 0; r < c.n_ranks; ++r)
        ASSERT_EQ(g.shard_of(Entity::rank(r)),
                  g.shard_of(Entity::rank(r / c.ranks_per_node * c.ranks_per_node)))
            << what << ": rank " << r << " is not on its node's shard";
      for (std::size_t o = 0; o < c.n_osts; ++o)
        ASSERT_EQ(g.shard_of(Entity::ost(o)), ((o + 1) * n_shards - 1) / c.n_osts)
            << what << ": OST " << o;
      for (std::size_t m = 0; m < c.n_mds; ++m)
        ASSERT_EQ(g.shard_of(Entity::mds(m)), ((m + 1) * n_shards - 1) / c.n_mds)
            << what << ": MDS " << m;
      const std::vector<std::size_t> osts = span_sizes(g, c.n_osts, &Entity::ost);
      ASSERT_EQ(osts.size(), n_shards) << what;
      for (std::size_t s = 0; s < n_shards; ++s) {
        EXPECT_GE(osts[s], 1u) << what << ": shard " << s << " owns no OST";
        EXPECT_LT(std::abs(static_cast<double>(ranks[s]) -
                           static_cast<double>(c.n_ranks) / static_cast<double>(n_shards)),
                  static_cast<double>(c.ranks_per_node))
            << what << ": shard " << s << " holds " << ranks[s] << " ranks";
      }
    }
  }
}

// Metadata servers are homed by the OST rule: server m on shard
// ((m+1)·S−1)/n_mds.  Fewer servers than shards spread out with the last
// server on the last shard; more servers than shards split into contiguous
// runs; n_mds = 0 means one server.
TEST(ShardPlan, MdsServersFollowTheOstSpanRule) {
  aio::sim::ShardGroup::Config c;
  c.n_ranks = 4096;
  c.ranks_per_node = 16;
  c.n_osts = 672;
  const auto homes = [&c](std::size_t n_shards, std::size_t n_mds) {
    c.n_shards = n_shards;
    c.n_mds = n_mds;
    const aio::sim::ShardGroup g(c);
    std::vector<std::size_t> out;
    for (std::size_t m = 0; m < g.n_mds(); ++m) out.push_back(g.shard_of(aio::sim::Entity::mds(m)));
    return out;
  };
  using Shards = std::vector<std::size_t>;
  EXPECT_EQ(homes(1, 4), (Shards{0, 0, 0, 0}));
  EXPECT_EQ(homes(4, 1), (Shards{3}));
  EXPECT_EQ(homes(4, 0), (Shards{3}));
  EXPECT_EQ(homes(8, 4), (Shards{1, 3, 5, 7}));
  EXPECT_EQ(homes(4, 4), (Shards{0, 1, 2, 3}));
  EXPECT_EQ(homes(3, 4), (Shards{0, 1, 2, 2}));
  EXPECT_EQ(homes(4, 6), (Shards{0, 1, 1, 2, 3, 3}));
}

// Merge keys name physical entities, never the partition: nodes first, then
// OSTs, then metadata servers, the same at every shard count.  The rank
// grid ends in a partial node (1,000 ranks at 12 per node is 84 nodes).
TEST(ShardPlan, EntityKeysIgnoreTheShardCount) {
  using aio::sim::Entity;
  aio::sim::ShardGroup::Config c;
  c.n_ranks = 1000;
  c.ranks_per_node = 12;
  c.n_osts = 17;
  c.n_mds = 3;
  for (const std::size_t n_shards : {1u, 2u, 3u, 4u, 8u, 17u}) {
    c.n_shards = n_shards;
    const aio::sim::ShardGroup g(c);
    ASSERT_EQ(g.n_shards(), n_shards);
    ASSERT_EQ(g.n_nodes(), 84u);
    for (std::size_t r = 0; r < c.n_ranks; ++r)
      ASSERT_EQ(g.key_of(Entity::rank(r)), r / 12) << "rank " << r << " at " << n_shards;
    for (std::size_t o = 0; o < c.n_osts; ++o)
      ASSERT_EQ(g.key_of(Entity::ost(o)), 84 + o) << "OST " << o << " at " << n_shards;
    for (std::size_t m = 0; m < c.n_mds; ++m)
      ASSERT_EQ(g.key_of(Entity::mds(m)), 84 + 17 + m) << "MDS " << m << " at " << n_shards;
  }
}

// The coupling rule, stated once in sim::Homes.  Over one engine every
// coupling is exact.
TEST(Homes, OneEngineCouplesExactly) {
  using aio::sim::Entity;
  aio::sim::Engine engine;
  const aio::sim::Homes homes(engine);
  bool handed = false;
  homes.hand_off(Entity::rank(0), Entity::ost(3), [&] { handed = true; });
  EXPECT_TRUE(handed) << "hand_off over one engine must call through before returning";
  double fired = -1.0;
  homes.couple_after(Entity::rank(0), Entity::mds(0), 1.5, [&] { fired = engine.now(); });
  engine.run();
  EXPECT_EQ(fired, 1.5);
}

// Over a shard group only a same-node rank→rank coupling is exact; every
// other one lands on a window boundary (512 us windows here).  The group
// runs at one shard on purpose: every entity then shares an engine, so a
// rule that called same-shard couplings exact would fail here.
TEST(Homes, ShardGroupQuantizesAllButSameNodeCouplings) {
  using aio::sim::Entity;
  for (const std::size_t n_shards : {std::size_t{1}, std::size_t{2}}) {
    aio::sim::ShardGroup::Config c;
    c.n_shards = n_shards;
    c.n_ranks = 16;
    c.ranks_per_node = 4;
    c.n_osts = 4;
    c.n_mds = 1;
    aio::sim::ShardGroup group(c);
    const aio::sim::Homes homes(group);
    ASSERT_EQ(group.window_s(), 5.12e-4);
    const double t_send = 1e-4;
    const double delay = 8e-6;
    const double t_couple = t_send + delay;
    double same_node = -1.0, cross_node = -1.0, to_ost = -1.0, to_mds = -1.0, back = -1.0;
    const auto now = [&] { return homes.here().now(); };
    group.engine(homes.home_index(Entity::rank(0))).schedule_at(t_send, [&] {
      homes.couple_after(Entity::rank(0), Entity::rank(3), delay, [&] { same_node = now(); });
      homes.couple_after(Entity::rank(0), Entity::rank(4), delay, [&] { cross_node = now(); });
      homes.couple_after(Entity::rank(0), Entity::mds(0), delay, [&] { to_mds = now(); });
      homes.couple_after(Entity::rank(0), Entity::ost(2), delay, [&] {
        to_ost = now();
        homes.hand_off(Entity::ost(2), Entity::rank(0), [&] { back = now(); });
      });
    });
    group.run();
    EXPECT_EQ(same_node, t_couple) << "shards=" << n_shards;
    EXPECT_EQ(cross_node, 5.12e-4) << "shards=" << n_shards;
    EXPECT_EQ(to_ost, 5.12e-4) << "shards=" << n_shards;
    EXPECT_EQ(to_mds, 5.12e-4) << "shards=" << n_shards;
    EXPECT_EQ(back, 1.024e-3) << "shards=" << n_shards;
  }
}

// A boundary tally is heard once on every shard, with its window's net sum,
// at the merge key of the window's first contribution: after the messages
// that entity posted before it, before the ones it posted after, and ahead
// of every larger key.  A window whose contributions cancel is heard too,
// and the loop does not end before it is.
TEST(ShardTally, HeardOnceAtTheFirstContributionsMergeKey) {
  using aio::sim::Entity;
  for (const std::size_t n_shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    aio::sim::ShardGroup::Config c;
    c.n_shards = n_shards;
    c.n_ranks = 16;
    c.ranks_per_node = 4;
    c.n_osts = 4;
    c.n_mds = 1;
    aio::sim::ShardGroup group(c);
    ASSERT_EQ(group.n_shards(), n_shards);
    const double w = group.window_s();
    // Each shard appends only to its own log, from its own thread.
    std::vector<std::vector<std::string>> log(n_shards);
    group.set_tally_sink([&log](std::size_t shard, std::int64_t sum) {
      log[shard].push_back("tally " + std::to_string(sum));
    });
    const auto key = [&group](std::size_t ost) { return group.key_of(Entity::ost(ost)); };
    const auto post_all = [&](std::size_t ost, const char* label) {
      for (std::size_t d = 0; d < n_shards; ++d)
        group.post(key(ost), d, 0.0, [&log, d, label] { log[d].push_back(label); });
    };
    const auto at = [&group](std::size_t ost, double t, aio::sim::Engine::Callback fn) {
      group.engine(group.shard_of(Entity::ost(ost))).schedule_at(t, std::move(fn));
    };
    // OST keys grow with the index: 3 posts first in time but merges last.
    at(3, 0.1 * w, [&] {
      post_all(3, "ost3");
      group.tally(key(3), +1);
    });
    at(1, 0.2 * w, [&] {
      post_all(1, "ost1 before");
      group.tally(key(1), +1);
      post_all(1, "ost1 after");
      group.tally(key(1), +1);
    });
    at(2, 0.3 * w, [&] {
      group.tally(key(2), -1);
      post_all(2, "ost2");
    });
    at(0, 1.5 * w, [&] {
      group.tally(key(0), +1);
      group.tally(key(0), -1);
    });
    group.run();
    const std::vector<std::string> want{"ost1 before", "tally 2", "ost1 after", "ost2", "ost3",
                                        "tally 0"};
    for (std::size_t s = 0; s < n_shards; ++s)
      EXPECT_EQ(log[s], want) << "shard " << s << " of " << n_shards;
  }
}

TEST(ShardedRun, ConvergesToClassicModelAsWindowShrinks) {
  // The sharded timing model quantizes every node- or OST-crossing coupling
  // to window boundaries, so it is *not* byte-identical to the classic
  // engine; its error is bounded by the window size.  On this rig (many
  // short sequential round trips against a 0.5 ms op latency) the drift is a
  // direct function of window_batch, so the meaningful contract is
  // convergence: shrinking the window must drive the sharded model toward
  // the classic one.  Measured at seed 7: +61% at batch=64, +8% at batch=8,
  // +0.5% at batch=1.
  auto cfg = rig_config(1);
  aio::sim::Engine engine;
  aio::fs::FileSystem fs(engine, cfg.fs);
  aio::net::Network net(engine, cfg.net, cfg.n_ranks);
  aio::core::AdaptiveTransport transport(fs, net, cfg.adaptive);
  std::vector<IoResult> results;
  transport.run(seeded_job(7), [&](IoResult r) { results.push_back(std::move(r)); });
  engine.run();
  ASSERT_EQ(results.size(), 1u);
  const double classic = results.front().io_seconds();

  auto sharded_at = [&](double window_batch) {
    auto c = rig_config(1);
    c.window_batch = window_batch;
    return run_job(c, seeded_job(7)).result.io_seconds();
  };
  const double coarse = sharded_at(8.0);
  const double fine = sharded_at(1.0);
  EXPECT_NEAR(coarse, classic, 0.10 * classic)
      << "sharded model at window_batch=8 drifted >10% from the classic engine";
  EXPECT_NEAR(fine, classic, 0.02 * classic)
      << "sharded model at window_batch=1 drifted >2% from the classic engine";
  EXPECT_LT(std::abs(fine - classic), std::abs(coarse - classic))
      << "shrinking the window did not move the sharded model toward classic";
}

}  // namespace
