// Tests for the online telemetry plane (obs/live.hpp): sliding-window
// roll-over, straggler-score behavior under a loaded OST, bitwise-stable
// snapshots, exact agreement between the live cumulative attribution and the
// offline analyzer, steady-state allocation freedom, the flight recorder,
// and AIO_LIVE/AIO_FLIGHT env parsing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "core/transports/adaptive_transport.hpp"
#include "fs/filesystem.hpp"
#include "fs/ost.hpp"
#include "net/network.hpp"
#include "obs/analysis.hpp"
#include "obs/journal.hpp"
#include "obs/live.hpp"
#include "sim/engine.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocs{0};

void note_alloc() {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocs.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

// Counting operator-new replacement, same shape as tests/test_alloc_guard.cpp:
// every allocating form funnels through malloc so sized/unsized deletes stay
// matched, and the hook only counts between guard start/stop.
void* operator new(std::size_t n) {
  note_alloc();
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  note_alloc();
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(al), n ? n : 1) != 0) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n, std::align_val_t al) { return ::operator new(n, al); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace {

using namespace aio;

double num_at(const obs::Json& doc, std::initializer_list<const char*> path) {
  const obs::Json* node = &doc;
  for (const char* key : path) {
    node = node->find(key);
    if (!node) return -1.0;
  }
  return node->number();
}

/// The golden 2-OST scenario from tests/test_analysis.cpp, with a live plane
/// riding alongside the journal: target 1 carries heavy external load, eight
/// writers in two groups, real (Storm) MDS opens.
struct LiveRig {
  obs::Journal journal{{/*path=*/"", /*max_records=*/1u << 20}};
  obs::LivePlane live;
  sim::Engine engine{nullptr, &journal, &live};
  fs::FileSystem filesystem;
  net::Network network;
  core::AdaptiveTransport transport;

  static fs::FsConfig fs_config() {
    fs::FsConfig fc;
    fc.n_osts = 2;
    fc.fabric_bw = 0.0;
    fc.stripe_limit = 2;
    fc.default_stripe_size = 1e6;
    fc.ost.ingest_bw = 100e6;
    fc.ost.disk_bw = 10e6;
    fc.ost.cache_bytes = 50e6;
    fc.ost.per_stream_cap = 0.0;
    fc.ost.alpha = 0.0;
    fc.ost.eff_floor = 0.0;
    fc.mds.open_base_s = 1e-4;
    fc.mds.close_base_s = 1e-4;
    return fc;
  }

  explicit LiveRig(obs::LivePlane::Config lc = {})
      : live(std::move(lc)),
        filesystem(engine, fs_config()),
        network(engine, net::NetConfig{1e-6, 10e9, 8}, 64),
        transport(filesystem, network,
                  [] {
                    core::AdaptiveTransport::Config ac;
                    ac.n_files = 2;
                    ac.open_mode = core::AdaptiveTransport::Config::OpenMode::Storm;
                    return ac;
                  }()) {
    filesystem.ost(1).set_load(0.8, 0.8);
  }

  core::IoResult run() {
    std::optional<core::IoResult> result;
    transport.run(core::IoJob::uniform(8, 8e6),
                  [&](core::IoResult r) { result = std::move(r); });
    engine.run();
    EXPECT_TRUE(result.has_value());
    return *result;
  }
};

obs::Record rec(obs::Rec kind, double t) {
  obs::Record r;
  r.kind = kind;
  r.t = t;
  return r;
}

// --- exact agreement with the offline analyzer -------------------------------

TEST(Live, CumulativeMatchesOfflineAnalyzer) {
  LiveRig rig;
  // Three runs under different external load — the journal and the plane see
  // the identical record stream, so the cumulative live partition must agree
  // with the offline analyzer's end-of-run attribution.
  for (const double load : {0.8, 0.2, 0.5}) {
    rig.filesystem.ost(1).set_load(load, load);
    (void)rig.run();
  }
  EXPECT_EQ(rig.live.runs_completed(), 3u);

  const obs::Json report = obs::analyze(rig.journal);
  const obs::LiveWait& cum = rig.live.cumulative();
  const auto near = [](double live_v, double report_v) {
    EXPECT_NEAR(live_v, report_v, 1e-6 * std::max(1.0, std::abs(report_v)));
  };
  near(cum.total_s, num_at(report, {"summary", "attribution", "total_wait_s"}));
  near(cum.internal_s, num_at(report, {"summary", "attribution", "internal_s"}));
  near(cum.external_s, num_at(report, {"summary", "attribution", "external_s"}));
  near(cum.mds_s, num_at(report, {"summary", "attribution", "mds_s"}));
  near(cum.network_s, num_at(report, {"summary", "attribution", "network_s"}));
  EXPECT_EQ(static_cast<double>(cum.writers), num_at(report, {"summary", "writers"}));
  EXPECT_GT(cum.external_s, 0.0);
  EXPECT_GT(cum.mds_s, 0.0);

  // Steal provenance counts agree too (the priced estimates differ by design:
  // online EWMA vs end-of-run mean).
  EXPECT_EQ(static_cast<double>(rig.live.steals().completed),
            num_at(report, {"summary", "steal_savings", "completed"}));

  // Run-level timing: the analyzer's run count matches and the live CoV is
  // populated (three runs at three different loads vary).
  const obs::LiveRunStats rt = rig.live.run_stats();
  EXPECT_EQ(rt.count, 3u);
  EXPECT_GT(rt.cov, 0.0);
  EXPECT_GE(rt.p99_s, rt.mean_s * 0.5);
}

// --- sliding window ----------------------------------------------------------

TEST(Live, WindowRollsOver) {
  obs::LivePlane::Config lc;
  lc.window_slot_s = 1.0;
  lc.window_slots = 4;
  lc.flight_records = 0;
  obs::LivePlane plane(lc);

  // One run, one file on ost0, two writers completing in different slots.
  obs::Record begin = rec(obs::Rec::kRunBegin, 0.0);
  begin.u0 = 2;  // writers
  begin.u1 = 1;  // files
  begin.u2 = 1;  // osts
  plane.ingest(begin);
  obs::Record map = rec(obs::Rec::kFileMap, 0.0);
  map.u0 = 0;
  map.u1 = 0;
  plane.ingest(map);
  obs::Record open = rec(obs::Rec::kRunMark, 0.1);
  open.a = static_cast<std::uint8_t>(obs::Mark::kOpenDone);
  plane.ingest(open);

  const auto writer = [&](std::uint32_t id, double signal, double start, double end) {
    obs::Record s = rec(obs::Rec::kWriterSignal, signal);
    s.id = id;
    plane.ingest(s);  // target file 0, origin group 0
    obs::Record st = rec(obs::Rec::kWriterStart, start);
    st.id = id;
    plane.ingest(st);
    obs::Record e = rec(obs::Rec::kWriterEnd, end);
    e.id = id;
    plane.ingest(e);
  };
  writer(0, 0.2, 0.5, 1.0);
  writer(1, 0.3, 0.7, 2.0);

  obs::LiveWait w = plane.window();
  EXPECT_EQ(w.writers, 2u);
  EXPECT_NEAR(w.total_s, 0.5 + 0.7, 1e-12);  // start_t - t_begin each
  EXPECT_NEAR(plane.cumulative().total_s, w.total_s, 1e-12);
  // The partition is exhaustive: components sum to the total.
  EXPECT_NEAR(w.mds_s + w.internal_s + w.external_s + w.network_s, w.total_s, 1e-12);

  // A completion more than window_slots slots later evicts everything old:
  // the window forgets, the cumulative totals do not.
  obs::Record begin2 = rec(obs::Rec::kRunBegin, 9.0);
  begin2.u0 = 1;
  begin2.u2 = 1;
  plane.ingest(begin2);
  obs::Record open2 = rec(obs::Rec::kRunMark, 9.0);
  open2.a = static_cast<std::uint8_t>(obs::Mark::kOpenDone);
  plane.ingest(open2);
  writer(0, 9.1, 9.2, 10.0);

  w = plane.window();
  EXPECT_EQ(w.writers, 1u);
  EXPECT_NEAR(w.total_s, 0.2, 1e-12);  // 9.2 - 9.0, the new run's wait only
  EXPECT_EQ(plane.cumulative().writers, 3u);
  EXPECT_NEAR(plane.cumulative().total_s, 0.5 + 0.7 + 0.2, 1e-12);
}

// --- straggler scoring -------------------------------------------------------

TEST(Live, StragglerScoreMonotoneUnderLoad) {
  obs::LivePlane::Config lc;
  lc.flight_records = 0;
  obs::LivePlane plane(lc);

  const auto ost_state = [&](std::uint32_t ost, double load, double t) {
    obs::Record r = rec(obs::Rec::kOstState, t);
    r.id = ost;
    r.v1 = load;  // net_load
    r.v2 = load;  // disk_load
    plane.ingest(r);
  };
  // ost1 carries heavy external load, ost0 light.
  for (int i = 1; i <= 5; ++i) {
    ost_state(0, 0.2, static_cast<double>(i));
    ost_state(1, 0.9, static_cast<double>(i));
  }
  const double light = plane.straggler_score(0);
  const double heavy = plane.straggler_score(1);
  EXPECT_GT(light, 0.0);
  EXPECT_GT(heavy, light);

  // Monotonicity: loading ost0 harder can only raise its score.
  double prev = light;
  for (int i = 6; i <= 10; ++i) {
    ost_state(0, 0.2 + 0.15 * static_cast<double>(i - 5), static_cast<double>(i));
    const double cur = plane.straggler_score(0);
    EXPECT_GE(cur, prev - 1e-12);
    prev = cur;
  }
  EXPECT_GT(prev, light);

  // Unknown OSTs score zero.
  EXPECT_EQ(plane.straggler_score(77), 0.0);

  // End-to-end: after a simulated run with ost1 loaded, the plane ranks it
  // the fleet's worst straggler.
  LiveRig rig;
  (void)rig.run();
  EXPECT_GT(rig.live.straggler_score(1), rig.live.straggler_score(0));
  const obs::LiveView view = rig.live.view();
  ASSERT_GE(view.stragglers.size(), 2u);
  EXPECT_EQ(view.stragglers.front().ost, 1u);
}

// --- snapshots ---------------------------------------------------------------

TEST(Live, SnapshotBitwiseStable) {
  // Two identical rigs produce identical record streams (the simulator is
  // deterministic), so snapshots taken at the same sim timestamps must be
  // byte-identical.
  LiveRig a;
  LiveRig b;
  (void)a.run();
  (void)b.run();
  EXPECT_EQ(a.live.snapshot_json(a.live.now()).dump(),
            b.live.snapshot_json(b.live.now()).dump());
  const std::string fin_a = a.live.snapshot_json(a.live.now(), /*final=*/true).dump();
  const std::string fin_b = b.live.snapshot_json(b.live.now(), /*final=*/true).dump();
  EXPECT_EQ(fin_a, fin_b);
  // The final row carries the attribution block the CI gate reads.
  EXPECT_NE(fin_a.find("\"attribution\""), std::string::npos);
  EXPECT_NE(fin_a.find("\"schema\":\"aio-live-v1\""), std::string::npos);
}

TEST(Live, SnapshotFileGetsRowsAndFinalRow) {
  const std::string path = testing::TempDir() + "aio_live_rows.jsonl";
  obs::LivePlane::Config lc;
  lc.snapshot_path = path;
  lc.flight_records = 0;
  {
    LiveRig rig(lc);
    ASSERT_TRUE(rig.live.snapshot_enabled());
    (void)rig.run();
    rig.live.snapshot_tick(rig.live.now());
    rig.live.flush();
    EXPECT_EQ(rig.live.rows_written(), 2u);  // one tick + the final row
    EXPECT_EQ(rig.live.rows_dropped(), 0u);
  }
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::vector<std::string> lines;
  char buf[1 << 16];
  while (std::fgets(buf, sizeof buf, f)) lines.emplace_back(buf);
  std::fclose(f);
  ASSERT_EQ(lines.size(), 2u);
  for (const std::string& line : lines) {
    const std::optional<obs::Json> row = obs::Json::parse(line);
    ASSERT_TRUE(row.has_value());
    EXPECT_EQ(row->find("schema")->str(), "aio-live-v1");
  }
  EXPECT_EQ(obs::Json::parse(lines[0])->find("final"), nullptr);
  EXPECT_NE(obs::Json::parse(lines[1])->find("final"), nullptr);
  std::remove(path.c_str());
}

// --- allocation discipline ---------------------------------------------------

TEST(Live, IngestSteadyStateAllocationFree) {
  // Capture one run's record stream, warm a fresh plane with it, then replay
  // the same stream time-shifted: past the warm-up, ingest() must not touch
  // the allocator even as the window ring rolls over.
  LiveRig rig;
  (void)rig.run();
  ASSERT_GT(rig.journal.records().size(), 50u);
  const std::vector<obs::Record> stream = rig.journal.records();

  obs::LivePlane plane({});  // defaults, flight recorder enabled
  for (const obs::Record& r : stream) plane.ingest(r);

  g_allocs.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_release);
  for (const obs::Record& r : stream) {
    obs::Record shifted = r;
    shifted.t += 5000.0;
    plane.ingest(shifted);
  }
  g_counting.store(false, std::memory_order_release);
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), 0u);
  EXPECT_EQ(plane.runs_completed(), 2u);
}

// --- flight recorder ---------------------------------------------------------

TEST(Live, FlightRecorderKeepsTailAndDumpsLoadableJournal) {
  obs::LivePlane::Config lc;
  lc.flight_records = 32;
  LiveRig rig(lc);
  (void)rig.run();

  const std::vector<obs::Record>& all = rig.journal.records();
  ASSERT_GT(all.size(), 32u);  // the ring must have wrapped
  EXPECT_EQ(rig.live.flight_size(), 32u);
  EXPECT_EQ(rig.live.flight_total(), all.size());

  const std::string path = testing::TempDir() + "aio_flight_dump.journal";
  ASSERT_TRUE(rig.live.dump_flight(path));
  const std::optional<obs::Journal> back = obs::Journal::load(path);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->records().size(), 32u);
  // Oldest-first: the dump is exactly the journal's last 32 records.
  for (std::size_t i = 0; i < 32; ++i) {
    const obs::Record& want = all[all.size() - 32 + i];
    const obs::Record& got = back->records()[i];
    EXPECT_EQ(got.t, want.t);
    EXPECT_EQ(static_cast<int>(got.kind), static_cast<int>(want.kind));
    EXPECT_EQ(got.id, want.id);
  }
  // The dump is analyzable evidence, not just bytes.
  const obs::Json report = obs::analyze(*back);
  EXPECT_EQ(report.find("schema")->str(), "aio-report-v1");
  std::remove(path.c_str());
}

// --- env parsing -------------------------------------------------------------

TEST(Live, FromEnvParsesKnobsAndRejectsGarbage) {
  const auto clear = [] {
    for (const char* v : {"AIO_LIVE", "AIO_FLIGHT", "AIO_LIVE_PERIOD_S", "AIO_LIVE_WINDOW_S",
                          "AIO_LIVE_SLOTS", "AIO_FLIGHT_RECORDS"})
      unsetenv(v);
  };
  clear();
  EXPECT_EQ(obs::LivePlane::from_env(0), nullptr);

  // Query-only plane: "-" arms the plane without a snapshot stream.
  setenv("AIO_LIVE", "-", 1);
  auto plane = obs::LivePlane::from_env(0);
  ASSERT_NE(plane, nullptr);
  EXPECT_FALSE(plane->snapshot_enabled());
  EXPECT_FALSE(plane->flight_enabled());  // ring only arms with AIO_FLIGHT

  // Malformed knobs warn (stderr) and keep their defaults; valid ones stick.
  setenv("AIO_LIVE_SLOTS", "not-a-number", 1);
  setenv("AIO_LIVE_WINDOW_S", "-3", 1);
  setenv("AIO_LIVE_PERIOD_S", "0.25", 1);
  plane = obs::LivePlane::from_env(0);
  ASSERT_NE(plane, nullptr);
  EXPECT_EQ(plane->config().window_slots, 16u);
  EXPECT_EQ(plane->config().window_slot_s, 1.0);
  EXPECT_EQ(plane->config().snapshot_period_s, 0.25);

  setenv("AIO_LIVE_SLOTS", "8", 1);
  setenv("AIO_FLIGHT", "flight.bin", 1);
  setenv("AIO_FLIGHT_RECORDS", "128", 1);
  plane = obs::LivePlane::from_env(0);
  ASSERT_NE(plane, nullptr);
  EXPECT_EQ(plane->config().window_slots, 8u);
  EXPECT_EQ(plane->config().flight_records, 128u);
  EXPECT_EQ(plane->config().flight_path, "flight.bin");
  // Slot numbering matches the other sinks: slot 1 writes "<path>.2".
  const auto second = obs::LivePlane::from_env(1);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->config().flight_path, "flight.bin.2");

  unsetenv("AIO_LIVE");
  auto flight_only = obs::LivePlane::from_env(0);
  ASSERT_NE(flight_only, nullptr);  // AIO_FLIGHT alone still arms the plane
  EXPECT_FALSE(flight_only->snapshot_enabled());
  EXPECT_TRUE(flight_only->flight_enabled());
  clear();
}

}  // namespace
