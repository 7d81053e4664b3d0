// Integration + property tests for the full writer/SC/coordinator protocol.
//
// The FSMs run over an in-memory harness with randomized message delivery
// order and per-rank write costs — no file system or network model — so this
// checks the protocol's *logic* under adversarial scheduling:
//
//   * every writer writes exactly once, to exactly one file;
//   * the data regions of each file tile [0, file_size) with no gap/overlap;
//   * every file index accounts for every block in its file;
//   * the global index holds every block of every writer;
//   * total bytes are conserved;
//   * the protocol terminates (all roles done) for every topology.
//
// A last test runs the adaptive transport itself on a small loaded machine,
// once keeping the global index and once carrying index sizes only, and
// pins the two to the same simulated result.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <queue>
#include <random>
#include <vector>

#include "core/protocol/roles.hpp"
#include "core/transports/adaptive_transport.hpp"
#include "fs/filesystem.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"
#include "workload/pixie3d.hpp"

namespace {

using namespace aio::core;

struct HarnessOptions {
  std::size_t n_writers = 8;
  std::size_t n_groups = 2;
  std::size_t max_concurrent = 1;
  bool stealing = true;
  std::uint64_t seed = 1;
  /// Relative completion cost of a rank's data write (default: random 1-8).
  std::function<double(Rank)> write_cost;
  /// Per-writer payloads (default: 100 * (rank % 3 + 1)).
  std::function<double(Rank)> bytes_of;
};

struct FileState {
  struct Region {
    double offset;
    double bytes;
    Rank writer;
  };
  std::vector<Region> regions;
  double index_bytes = 0.0;
};

HarnessOptions with_default_bytes(HarnessOptions opt) {
  if (!opt.bytes_of) opt.bytes_of = [](Rank r) { return 100.0 * static_cast<double>(r % 3 + 1); };
  return opt;
}

/// Each writer's blueprint: one block of its whole payload.
LocalIndex one_block(Rank r, double bytes) {
  BlockRecord block;
  block.writer = r;
  block.length = static_cast<std::uint64_t>(bytes);
  LocalIndex index;
  index.writer = r;
  index.blocks.push_back(block);
  return index;
}

/// The harness's job: every writer's payload and one-block blueprint.
IoJob harness_job(const HarnessOptions& opt) {
  IoJob job;
  for (Rank r = 0; r < static_cast<Rank>(opt.n_writers); ++r)
    job.bytes_per_writer.push_back(opt.bytes_of(r));
  job.blueprint = [bytes_of = opt.bytes_of](Rank r) { return one_block(r, bytes_of(r)); };
  return job;
}

/// Runs the composed protocol to completion; exposes everything written.
class Harness {
 public:
  explicit Harness(HarnessOptions opt)
      : opt_(with_default_bytes(std::move(opt))),
        roles_(Topology(opt_.n_writers, opt_.n_groups), harness_job(opt_),
               Roles::Config{.max_concurrent = opt_.max_concurrent, .stealing = opt_.stealing}),
        rng_(opt_.seed),
        roles_remaining_(roles_.count()) {
    if (!opt_.write_cost) {
      opt_.write_cost = [this](Rank) {
        return static_cast<double>(1 + (rng_() % 8));
      };
    }
  }

  void run() {
    const Topology& topo = roles_.topology();
    for (GroupId g = 0; g < static_cast<GroupId>(topo.n_groups()); ++g)
      execute(topo.sc_rank(g), roles_.start(g));
    while (!events_.empty()) {
      Event ev = pop();
      ev.fn();
      if (++executed_ > 5'000'000) FAIL() << "protocol did not terminate";
    }
  }

  [[nodiscard]] const std::map<GroupId, FileState>& files() const { return files_; }
  [[nodiscard]] const CoordinatorFsm& coordinator() const { return roles_.coordinator(); }
  [[nodiscard]] std::size_t roles_remaining() const { return roles_remaining_; }
  [[nodiscard]] double global_index_bytes() const { return global_index_bytes_; }
  [[nodiscard]] double bytes_for(Rank r) const { return opt_.bytes_of(r); }

  /// FNV-1a fingerprint of everything the protocol decided: per-writer
  /// completion times, steal count, the serialized global index, and the
  /// global index write size.  Golden values pin the pre-rewrite behavior
  /// bit-for-bit (see GoldenDigest tests below).
  [[nodiscard]] std::uint64_t digest() const {
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](const void* p, std::size_t n) {
      const auto* b = static_cast<const unsigned char*>(p);
      for (std::size_t i = 0; i < n; ++i) {
        h ^= b[i];
        h *= 1099511628211ull;
      }
    };
    for (const auto& [rank, t] : write_done_) {
      mix(&rank, sizeof(rank));
      mix(&t, sizeof(t));
    }
    const std::uint64_t steals = coordinator().total_steals();
    mix(&steals, sizeof(steals));
    const auto bytes = coordinator().kept_index().build().serialize();
    mix(bytes.data(), bytes.size());
    mix(&global_index_bytes_, sizeof(global_index_bytes_));
    return h;
  }

 private:
  struct Event {
    double ready;
    std::uint64_t tiebreak;
    std::function<void()> fn;
    bool operator<(const Event& o) const {
      if (ready != o.ready) return ready > o.ready;  // min-heap
      return tiebreak > o.tiebreak;
    }
  };

  void push(double delay, std::function<void()> fn) {
    events_.push(Event{clock_ + delay, rng_(), std::move(fn)});
  }

  Event pop() {
    Event ev = events_.top();
    events_.pop();
    clock_ = ev.ready;
    return ev;
  }

  void deliver(Rank to, const Message& msg) { execute(to, roles_.deliver(to, msg)); }

  void execute(Rank from, Actions actions) {
    for (auto& action : actions) {
      if (auto* send = std::get_if<SendAction>(&action)) {
        const double delay = 1.0 + static_cast<double>(rng_() % 3);
        push(delay, [this, to = send->to, msg = std::move(send->msg)] { deliver(to, msg); });
      } else if (const auto* w = std::get_if<StartWriteAction>(&action)) {
        files_[w->file].regions.push_back({w->offset, w->bytes, from});
        push(opt_.write_cost(from), [this, from] {
          write_done_.emplace(from, clock_);
          execute(from, roles_.on_write_done(from));
        });
      } else if (const auto* wi = std::get_if<WriteIndexAction>(&action)) {
        files_[wi->file].index_bytes = wi->bytes;
        push(1.0, [this, from] { execute(from, roles_.on_index_write_done(from)); });
      } else if (const auto* gi = std::get_if<WriteGlobalIndexAction>(&action)) {
        global_index_bytes_ = gi->bytes;
        push(1.0, [this, from] { execute(from, roles_.on_global_index_write_done()); });
      } else if (std::get_if<RoleDoneAction>(&action)) {
        ASSERT_GT(roles_remaining_, 0u);
        --roles_remaining_;
      }
    }
  }

  HarnessOptions opt_;
  Roles roles_;
  std::mt19937_64 rng_;
  std::priority_queue<Event> events_;
  std::map<GroupId, FileState> files_;
  std::map<Rank, double> write_done_;
  double clock_ = 0.0;
  std::uint64_t executed_ = 0;
  std::size_t roles_remaining_ = 0;
  double global_index_bytes_ = 0.0;
};

void check_invariants(Harness& h, const HarnessOptions& opt) {
  ASSERT_EQ(h.roles_remaining(), 0u) << "protocol did not fully terminate";
  ASSERT_EQ(h.coordinator().state(), CoordinatorFsm::State::Done);

  // Every writer wrote exactly once.
  std::map<Rank, int> writes_per_rank;
  double total_bytes = 0.0;
  for (const auto& [file, state] : h.files()) {
    // Regions tile [0, size) without gaps or overlaps.
    auto regions = state.regions;
    std::sort(regions.begin(), regions.end(),
              [](const auto& a, const auto& b) { return a.offset < b.offset; });
    double cursor = 0.0;
    for (const auto& r : regions) {
      EXPECT_DOUBLE_EQ(r.offset, cursor)
          << "gap/overlap in file " << file << " at writer " << r.writer;
      cursor += r.bytes;
      ++writes_per_rank[r.writer];
      total_bytes += r.bytes;
    }
    EXPECT_GT(state.index_bytes, 0.0) << "file " << file << " never wrote its index";
  }
  double expected_bytes = 0.0;
  for (Rank r = 0; r < static_cast<Rank>(opt.n_writers); ++r) {
    EXPECT_EQ(writes_per_rank[r], 1) << "rank " << r;
    expected_bytes += h.bytes_for(r);
  }
  EXPECT_DOUBLE_EQ(total_bytes, expected_bytes);

  // Global index: every block present, every file covered.
  const GlobalIndex gi = h.coordinator().kept_index().build();
  EXPECT_EQ(gi.n_files(), opt.n_groups);
  EXPECT_EQ(gi.total_blocks(), opt.n_writers);
  for (const auto& fi : gi.files()) {
    const auto it = h.files().find(fi.file());
    ASSERT_NE(it, h.files().end());
    double file_bytes = 0.0;
    for (const auto& r : it->second.regions) file_bytes += r.bytes;
    EXPECT_TRUE(fi.covers_contiguously(static_cast<std::uint64_t>(file_bytes)))
        << "file " << fi.file();
  }
  EXPECT_GT(h.global_index_bytes(), 0.0);
}

TEST(ProtocolIntegration, MinimalSingleWriterSingleGroup) {
  HarnessOptions opt;
  opt.n_writers = 1;
  opt.n_groups = 1;
  Harness h(opt);
  h.run();
  check_invariants(h, opt);
  EXPECT_EQ(h.coordinator().total_steals(), 0u);
}

TEST(ProtocolIntegration, StealingMovesWorkFromSlowToFastGroups) {
  HarnessOptions opt;
  opt.n_writers = 32;
  opt.n_groups = 4;
  opt.seed = 7;
  // Group 0's writers are 60x slower: its queue should be raided.
  opt.write_cost = [](Rank r) { return r < 8 ? 60.0 : 1.0; };
  Harness h(opt);
  h.run();
  check_invariants(h, opt);
  EXPECT_GT(h.coordinator().total_steals(), 0u);
  // Stolen blocks landed in other files: file 0 holds fewer than its 8.
  EXPECT_LT(h.files().at(0).regions.size(), 8u);
}

TEST(ProtocolIntegration, StealingDisabledKeepsEveryWriterHome) {
  HarnessOptions opt;
  opt.n_writers = 32;
  opt.n_groups = 4;
  opt.stealing = false;
  opt.write_cost = [](Rank r) { return r < 8 ? 60.0 : 1.0; };
  Harness h(opt);
  h.run();
  check_invariants(h, opt);
  EXPECT_EQ(h.coordinator().total_steals(), 0u);
  for (const auto& [file, state] : h.files()) EXPECT_EQ(state.regions.size(), 8u);
}

TEST(ProtocolIntegration, UniformBytesNonDivisibleGroups) {
  HarnessOptions opt;
  opt.n_writers = 29;  // groups of 8,7,7,7
  opt.n_groups = 4;
  opt.seed = 13;
  Harness h(opt);
  h.run();
  check_invariants(h, opt);
}

// Golden-seed digests: these fingerprints were captured from the protocol
// *before* the allocation-free rewrite (inline dims, small-vector Actions,
// move-based index merges) and pin writer completion times, steal counts,
// and the serialized global index bit-for-bit.  If one of these changes,
// the rewrite altered observable protocol behavior, not just its cost.
TEST(ProtocolIntegration, GoldenDigestDefaultTopology) {
  HarnessOptions opt;
  opt.n_writers = 32;
  opt.n_groups = 4;
  opt.seed = 1;
  Harness h(opt);
  h.run();
  check_invariants(h, opt);
  EXPECT_EQ(h.digest(), 8111226024974849764ull);
}

TEST(ProtocolIntegration, GoldenDigestStealingSkew) {
  HarnessOptions opt;
  opt.n_writers = 32;
  opt.n_groups = 4;
  opt.seed = 7;
  opt.write_cost = [](Rank r) { return r < 8 ? 60.0 : 1.0; };
  Harness h(opt);
  h.run();
  check_invariants(h, opt);
  EXPECT_GT(h.coordinator().total_steals(), 0u);
  EXPECT_EQ(h.digest(), 2217997355084092579ull);
}

TEST(ProtocolIntegration, GoldenDigestNonDivisibleConcurrency) {
  HarnessOptions opt;
  opt.n_writers = 29;
  opt.n_groups = 3;
  opt.max_concurrent = 2;
  opt.seed = 13;
  Harness h(opt);
  h.run();
  check_invariants(h, opt);
  EXPECT_EQ(h.digest(), 11491637215901391430ull);
}

// Paper-scale pin: 65,536 writers over 672 groups (the Jaguar OST count,
// non-divisible: groups of 98 and 97).  Captured before the pooled-writer
// rewrite; guards that compacting actor storage and streaming the index
// merge never changes a scheduling or indexing decision at scale.
TEST(ProtocolIntegration, GoldenDigestPaperScale65536) {
  HarnessOptions opt;
  opt.n_writers = 65536;
  opt.n_groups = 672;
  opt.seed = 4;
  Harness h(opt);
  h.run();
  ASSERT_EQ(h.roles_remaining(), 0u);
  ASSERT_EQ(h.coordinator().state(), CoordinatorFsm::State::Done);
  EXPECT_EQ(h.coordinator().kept_index().build().total_blocks(), opt.n_writers);
  EXPECT_EQ(h.digest(), 1469256448900558871ull);
}

struct SweepParam {
  std::size_t writers;
  std::size_t groups;
  std::size_t concurrency;
  bool stealing;
  std::uint64_t seed;
};

class ProtocolSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ProtocolSweep, InvariantsHoldUnderRandomizedScheduling) {
  const SweepParam p = GetParam();
  HarnessOptions opt;
  opt.n_writers = p.writers;
  opt.n_groups = p.groups;
  opt.max_concurrent = p.concurrency;
  opt.stealing = p.stealing;
  opt.seed = p.seed;
  Harness h(opt);
  h.run();
  check_invariants(h, opt);
}

std::vector<SweepParam> sweep_params() {
  std::vector<SweepParam> out;
  const std::size_t writer_counts[] = {1, 2, 3, 5, 8, 16, 33, 64, 100};
  for (const std::size_t w : writer_counts) {
    for (const std::size_t g : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                std::size_t{7}}) {
      if (g > w) continue;
      for (const std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
        for (const bool steal : {true, false}) {
          out.push_back({w, g, k, steal, w * 1000 + g * 10 + k + (steal ? 1 : 0)});
        }
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Topologies, ProtocolSweep, ::testing::ValuesIn(sweep_params()));

// Different delivery orders (seeds) must preserve the invariants.
class ProtocolSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProtocolSeeds, ReorderingToleratedAtModerateScale) {
  HarnessOptions opt;
  opt.n_writers = 48;
  opt.n_groups = 6;
  opt.seed = GetParam();
  Harness h(opt);
  h.run();
  check_invariants(h, opt);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolSeeds,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233));

// --- index carriage: records vs sizes only ----------------------------------

struct CarriageRun {
  IoResult result;
  double submitted = 0.0;
  std::vector<double> ost_bytes;
};

/// 56 Pixie3D writers over 7 files on an 8-OST machine with two loaded
/// targets.  Files sit on OSTs 1-7 and the global index alone on OST 0, so
/// each OST's byte count separates one file's data and index writes.
CarriageRun run_pixie3d(bool retain_global_index) {
  using namespace aio;
  sim::Engine engine;
  fs::FsConfig fc;
  fc.n_osts = 8;
  fc.fabric_bw = 0.0;
  fc.ost.ingest_bw = 100e6;
  fc.ost.disk_bw = 10e6;
  fc.ost.cache_bytes = 50e6;
  fs::FileSystem filesystem(engine, fc);
  filesystem.ost(2).set_load(0.0, 0.8);
  filesystem.ost(5).set_load(0.5, 0.5);
  net::Network network(engine, net::NetConfig{1e-6, 10e9, 8}, 64);
  AdaptiveTransport::Config cfg;
  cfg.targets = {1, 2, 3, 4, 5, 6, 7};
  cfg.retain_global_index = retain_global_index;
  AdaptiveTransport transport(filesystem, network, cfg);
  const IoJob job = workload::pixie3d_job(workload::Pixie3dConfig::small_model(), 56);

  CarriageRun run;
  bool done = false;
  transport.run(job, [&](IoResult r) {
    run.result = std::move(r);
    done = true;
  });
  engine.run();
  EXPECT_TRUE(done);
  run.submitted = filesystem.total_bytes_submitted();
  for (std::size_t o = 0; o < fc.n_osts; ++o)
    run.ost_bytes.push_back(filesystem.ost(o).bytes_submitted());
  return run;
}

TEST(IndexCarriage, SizesOnlyMatchesRecordsBitForBit) {
  const CarriageRun kept = run_pixie3d(true);
  const CarriageRun sized = run_pixie3d(false);
  const IoResult& a = kept.result;
  const IoResult& b = sized.result;
  ASSERT_GT(a.steals, 0u);
  EXPECT_EQ(a.t_begin, b.t_begin);
  EXPECT_EQ(a.t_open_done, b.t_open_done);
  EXPECT_EQ(a.t_data_done, b.t_data_done);
  EXPECT_EQ(a.t_complete, b.t_complete);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  ASSERT_EQ(a.writer_times.size(), b.writer_times.size());
  for (std::size_t i = 0; i < a.writer_times.size(); ++i) {
    EXPECT_EQ(a.writer_times[i].start, b.writer_times[i].start) << "writer " << i;
    EXPECT_EQ(a.writer_times[i].end, b.writer_times[i].end) << "writer " << i;
  }
  EXPECT_EQ(a.steals, b.steals);
  EXPECT_EQ(a.grants_issued, b.grants_issued);
  EXPECT_EQ(a.total_blocks_indexed, b.total_blocks_indexed);
  EXPECT_EQ(a.total_blocks_indexed, 56u * 8u);
  EXPECT_EQ(kept.submitted, sized.submitted);
  EXPECT_EQ(kept.ost_bytes, sized.ost_bytes);
  EXPECT_EQ(b.kept_index, nullptr);

  // The streamed sizes are the real ones: what each SC wrote after its data
  // is its file index's serialized size, and the coordinator's write is the
  // global index's.
  ASSERT_NE(a.kept_index, nullptr);
  const GlobalIndex gi = a.kept_index->build();
  ASSERT_EQ(gi.n_files(), 7u);
  for (const FileIndex& fi : gi.files()) {
    double data = 0.0;
    for (const BlockRecord& block : fi.blocks()) data += static_cast<double>(block.length);
    const double index = kept.ost_bytes[static_cast<std::size_t>(fi.file()) + 1] - data;
    EXPECT_EQ(index, static_cast<double>(fi.serialized_size())) << "file " << fi.file();
  }
  EXPECT_EQ(kept.ost_bytes[0], static_cast<double>(gi.serialized_size()));
}

// Pins the simulator's kept global index bit for bit: block content, file
// placement and the sort order of every file index, steals included.
TEST(IndexCarriage, KeptGlobalIndexMatchesGolden) {
  const CarriageRun kept = run_pixie3d(true);
  ASSERT_NE(kept.result.kept_index, nullptr);
  EXPECT_EQ(kept.result.steals, 9u);
  const std::vector<std::uint8_t> bytes = kept.result.kept_index->build().serialize();
  EXPECT_EQ(bytes.size(), 62'868u);
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a-64
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  EXPECT_EQ(h, 0xcbad7eeface8f469ull);
}

}  // namespace
