// Shard-runtime profiler (obs/prof.hpp): slot arithmetic and the aio-prof-v1
// document, the armed-run invariants on a real sharded sweep — simulated
// results and merged journal records bit-identical to the unarmed run — and
// the strict AIO_PROF env parser.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "core/transports/sharded.hpp"
#include "obs/env.hpp"
#include "obs/journal.hpp"
#include "obs/prof.hpp"

namespace {

using namespace aio;
using core::IoJob;
using core::IoResult;
using core::ShardedAdaptiveSim;

double num_at(const obs::Json& doc, std::initializer_list<const char*> path) {
  const obs::Json* node = &doc;
  for (const char* key : path) {
    node = node->find(key);
    if (!node) return -1.0;
  }
  return node->number();
}

// --- slot arithmetic and the document ----------------------------------------

TEST(ShardProfiler, BindZeroesAndTotalsAggregate) {
  obs::prof::ShardProfiler prof;
  EXPECT_EQ(prof.n_shards(), 0u);
  EXPECT_DOUBLE_EQ(prof.imbalance(), 1.0);  // degenerate: nothing bound

  prof.bind(3);
  ASSERT_EQ(prof.n_shards(), 3u);
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_DOUBLE_EQ(prof.slot(s).execute_s, 0.0);
    EXPECT_EQ(prof.slot(s).rounds, 0u);
  }
  EXPECT_DOUBLE_EQ(prof.imbalance(), 1.0);  // bound but idle

  for (std::size_t s = 0; s < 3; ++s) {
    obs::prof::ShardProfiler::Slot& slot = prof.slot(s);
    slot.execute_s = 1.0 + static_cast<double>(s);  // 1, 2, 3
    slot.barrier_s = 0.5;
    slot.merge_s = 0.25;
    slot.skip_s = 0.125;
    slot.rounds = 10 + s;
    slot.events = 100;
    slot.msgs_posted = 7;
    slot.msgs_drained = 7;
    slot.backlog_hw = 2 * s;
  }
  const obs::prof::ShardProfiler::Slot t = prof.totals();
  EXPECT_DOUBLE_EQ(t.execute_s, 6.0);
  EXPECT_DOUBLE_EQ(t.barrier_s, 1.5);
  EXPECT_DOUBLE_EQ(t.merge_s, 0.75);
  EXPECT_DOUBLE_EQ(t.skip_s, 0.375);
  EXPECT_EQ(t.rounds, 12u);  // max, not sum: rounds are lockstep
  EXPECT_EQ(t.events, 300u);
  EXPECT_EQ(t.msgs_posted, 21u);
  EXPECT_EQ(t.msgs_drained, 21u);
  EXPECT_EQ(t.backlog_hw, 4u);  // max
  EXPECT_DOUBLE_EQ(prof.imbalance(), 3.0 / 2.0);

  // Re-bind resets every slot.
  prof.bind(2);
  EXPECT_EQ(prof.n_shards(), 2u);
  EXPECT_EQ(prof.totals().events, 0u);
}

TEST(ShardProfiler, JsonDocumentCarriesSlotsTotalsAndWindowContext) {
  obs::prof::ShardProfiler prof;
  prof.bind(2);
  prof.slot(0).execute_s = 0.5;
  prof.slot(0).rounds = 4;
  prof.slot(1).execute_s = 1.5;
  prof.slot(1).rounds = 4;
  prof.slot(1).backlog_hw = 9;

  const obs::Json doc = prof.to_json();
  EXPECT_EQ(doc.find("schema")->str(), "aio-prof-v1");
  EXPECT_DOUBLE_EQ(num_at(doc, {"n_shards"}), 2.0);
  // One slot per shard; the window counts are the shard group's, which the
  // host adds (bench/macro_jaguar.cpp).
  const obs::Json* shards = doc.find("shards");
  ASSERT_NE(shards, nullptr);
  ASSERT_TRUE(shards->is_array());
  ASSERT_EQ(shards->size(), prof.n_shards());
  EXPECT_EQ(doc.find("window_s"), nullptr);
  EXPECT_DOUBLE_EQ(num_at(shards->at(1), {"execute_s"}), 1.5);
  EXPECT_DOUBLE_EQ(num_at(doc, {"totals", "execute_s"}), 2.0);
  EXPECT_DOUBLE_EQ(num_at(doc, {"totals", "backlog_hw"}), 9.0);
  EXPECT_DOUBLE_EQ(num_at(doc, {"imbalance"}), 1.5);
  // Round-trips through the parser.
  EXPECT_TRUE(obs::Json::parse(doc.dump()).has_value());
}

// The AIO_PROF=1 consumer: one stderr line of totals (host seconds summed,
// rounds and backlog highwater the max over shards, msgs the drained count).
TEST(ShardProfiler, SummaryIsOneStderrLineOfTotals) {
  obs::prof::ShardProfiler prof;
  prof.bind(2);
  prof.slot(0).execute_s = 0.5;
  prof.slot(0).barrier_s = 0.25;
  prof.slot(0).merge_s = 0.125;
  prof.slot(0).skip_s = 0.75;
  prof.slot(0).rounds = 4;
  prof.slot(0).events = 10;
  prof.slot(0).msgs_posted = 5;
  prof.slot(0).msgs_drained = 3;
  prof.slot(0).backlog_hw = 2;
  prof.slot(1).execute_s = 1.5;
  prof.slot(1).rounds = 4;
  prof.slot(1).events = 30;
  prof.slot(1).msgs_posted = 3;
  prof.slot(1).msgs_drained = 5;
  prof.slot(1).backlog_hw = 9;
  testing::internal::CaptureStderr();
  prof.print_summary("jaguar");
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "aio-prof[jaguar]: shards=2 rounds=4 exec=2.000s barrier=0.250s merge=0.125s "
            "skip=0.750s events=40 msgs=8 backlog_hw=9 imbalance=1.50\n");
}

// --- armed runs on the real sharded rig --------------------------------------

constexpr std::size_t kWriters = 96;
constexpr std::size_t kOsts = 8;

IoJob seeded_job(std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> jitter(0.5, 2.0);
  IoJob job;
  job.bytes_per_writer.resize(kWriters);
  for (std::size_t i = 0; i < kWriters; ++i) {
    double b = 256.0 * 1024.0 * jitter(rng);
    if (i % 19 == 0) b *= 4.0;
    job.bytes_per_writer[i] = b;
  }
  return job;
}

ShardedAdaptiveSim::Config rig_config(std::size_t n_shards) {
  ShardedAdaptiveSim::Config c;
  c.n_shards = n_shards;
  c.n_ranks = kWriters;
  c.fs.n_osts = kOsts;
  c.fs.ost.disk_bw = 200e6;
  c.fs.ost.cache_bytes = 8e6;
  c.fs.ost.ingest_bw = 500e6;
  c.fs.ost.alpha = 0.05;
  c.fs.ost.op_latency_s = 0.0005;
  c.fs.fabric_bw = 3e9;
  c.net.latency_s = 8e-6;
  c.net.nic_bw = 2e9;
  c.net.cores_per_node = 4;
  c.adaptive.n_files = 0;
  c.collect_journal = true;
  return c;
}

TEST(ShardProfilerRun, ArmedRunIsBitIdenticalModuloProfRecords) {
  const IoJob job = seeded_job(5);
  const std::size_t n_shards = 4;

  ShardedAdaptiveSim off(rig_config(n_shards));
  const IoResult base = off.run(job);

  obs::prof::ShardProfiler prof;
  auto cfg = rig_config(n_shards);
  cfg.profiler = &prof;
  ShardedAdaptiveSim on(std::move(cfg));
  const IoResult armed = on.run(job);

  // The profiler only reads the host clock: every simulated quantity must be
  // exactly the unarmed run's (EXPECT_EQ on doubles is bit-comparison here).
  EXPECT_EQ(base.t_begin, armed.t_begin);
  EXPECT_EQ(base.t_open_done, armed.t_open_done);
  EXPECT_EQ(base.t_data_done, armed.t_data_done);
  EXPECT_EQ(base.t_complete, armed.t_complete);
  EXPECT_EQ(base.steals, armed.steals);
  EXPECT_EQ(base.grants_issued, armed.grants_issued);

  // ... and so must the journal: host time never enters it.
  const std::vector<obs::Record> base_records = off.merged_records();
  const std::vector<obs::Record> armed_records = on.merged_records();
  ASSERT_FALSE(base_records.empty());
  ASSERT_EQ(armed_records.size(), base_records.size());
  EXPECT_EQ(std::memcmp(armed_records.data(), base_records.data(),
                        base_records.size() * sizeof(obs::Record)),
            0);

  // Slot invariants on a completed run: every shard turned rounds and
  // dispatched events, the lockstep rounds agree, the cross-shard channel
  // plane conserved messages, and every round the group counted was profiled.
  const obs::prof::ShardProfiler::Slot t = prof.totals();
  EXPECT_GT(t.rounds, 0u);
  EXPECT_GT(t.events, 0u);
  for (std::size_t s = 0; s < prof.n_shards(); ++s) {
    EXPECT_EQ(prof.slot(s).rounds, t.rounds) << "shard " << s << " missed barrier rounds";
    EXPECT_GT(prof.slot(s).events, 0u) << "shard " << s;
  }
  EXPECT_EQ(t.msgs_posted, t.msgs_drained) << "channel plane leaked messages";
  EXPECT_GT(t.msgs_posted, 0u) << "4-shard run crossed no shard boundaries";
  EXPECT_GE(t.backlog_hw, 1u);
  EXPECT_GE(prof.imbalance(), 1.0);
  EXPECT_EQ(on.shards().barrier_rounds(), t.rounds);
}

// --- AIO_PROF parsing --------------------------------------------------------

struct EnvSaver {
  explicit EnvSaver(const char* name) : name_(name) {
    if (const char* v = std::getenv(name)) saved_ = v;
  }
  ~EnvSaver() {
    if (saved_.has_value())
      ::setenv(name_, saved_->c_str(), 1);
    else
      ::unsetenv(name_);
  }
  const char* name_;
  std::optional<std::string> saved_;
};

// All assertions about the malformed-value warnings live in this one TEST:
// the parsers warn once per process, so call order matters and a second test
// would observe silence.
TEST(ProfEnv, ParsesStrictlyAndWarnsOnceOnMalformedValues) {
  EnvSaver save_prof("AIO_PROF");

  // Unset and "0": off.
  ::unsetenv("AIO_PROF");
  EXPECT_FALSE(obs::env_sink("AIO_PROF").on);
  ::setenv("AIO_PROF", "0", 1);
  EXPECT_FALSE(obs::env_sink("AIO_PROF").on);

  // "1" and "-": armed, stderr summary only (no path).
  for (const char* v : {"1", "-"}) {
    ::setenv("AIO_PROF", v, 1);
    const obs::EnvSink pe = obs::env_sink("AIO_PROF");
    EXPECT_TRUE(pe.on) << v;
    EXPECT_TRUE(pe.path.empty()) << v;
  }

  // A path: armed with that destination.
  ::setenv("AIO_PROF", "/tmp/prof.json", 1);
  {
    const obs::EnvSink pe = obs::env_sink("AIO_PROF");
    EXPECT_TRUE(pe.on);
    EXPECT_EQ(pe.path, "/tmp/prof.json");
  }

  // Digit-only non-toggle values are mistyped toggles, not paths: rejected
  // with one stderr line, profiler off.
  ::setenv("AIO_PROF", "2", 1);
  testing::internal::CaptureStderr();
  EXPECT_FALSE(obs::env_sink("AIO_PROF").on);
  std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("ignoring AIO_PROF=\"2\""), std::string::npos) << err;
  EXPECT_NE(err.find("want 0, 1, -, or a file path"), std::string::npos) << err;

  // Warn-once: the second malformed value is rejected silently.
  ::setenv("AIO_PROF", "07", 1);
  testing::internal::CaptureStderr();
  EXPECT_FALSE(obs::env_sink("AIO_PROF").on);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

}  // namespace
