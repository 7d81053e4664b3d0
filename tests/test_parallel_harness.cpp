// Tests for the bench replication harness (bench/parallel.hpp) and the
// determinism contract the bench binaries rely on: run_samples must return
// results in index order, fail like the serial loop would, leave no thread
// behind, and a miniature bench assembled from parallel units must produce
// byte-identical aio-bench-v1 JSON at any thread count.
#include "parallel.hpp"

#include <dirent.h>
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "stats/summary.hpp"

namespace {

using namespace aio;

TEST(RunSamples, IndexOrderAtAnyThreadCount) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                    std::size_t{8}}) {
    const auto out = bench::run_samples(
        16,
        [](std::size_t i) {
          // Invert the natural completion order so a harness that collected
          // results by completion time would fail.
          std::this_thread::sleep_for(std::chrono::microseconds((16 - i) * 50));
          return i * i;
        },
        threads);
    ASSERT_EQ(out.size(), 16u) << "threads=" << threads;
    for (std::size_t i = 0; i < out.size(); ++i)
      EXPECT_EQ(out[i], i * i) << "threads=" << threads;
  }
}

TEST(RunSamples, EveryUnitRunsExactlyOnce) {
  std::atomic<int> calls{0};
  const auto out = bench::run_samples(
      37, [&](std::size_t i) { ++calls; return i; }, 4);
  EXPECT_EQ(calls.load(), 37);
  EXPECT_EQ(out.size(), 37u);
}

TEST(RunSamples, MoreThreadsThanUnits) {
  const auto out =
      bench::run_samples(2, [](std::size_t i) { return i + 1; }, 16);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 1u);
  EXPECT_EQ(out[1], 2u);
}

TEST(RunSamples, RethrowsLowestIndexFailureLikeSerial) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    auto fail_some = [](std::size_t i) -> int {
      if (i == 3 || i == 7) throw std::runtime_error("unit " + std::to_string(i));
      return 0;
    };
    try {
      bench::run_samples(12, fail_some, threads);
      FAIL() << "expected throw, threads=" << threads;
    } catch (const std::runtime_error& e) {
      // The serial loop dies on unit 3 first; the threads must report the same.
      EXPECT_STREQ(e.what(), "unit 3") << "threads=" << threads;
    }
  }
}

TEST(RunSamples, MoveOnlyResults) {
  auto out = bench::run_samples(
      4, [](std::size_t i) { return std::make_unique<std::size_t>(i); }, 2);
  ASSERT_EQ(out.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(*out[i], i);
}

TEST(BenchThreads, EnvOverrideAndDefault) {
  ::setenv("AIO_BENCH_THREADS", "3", 1);
  EXPECT_EQ(bench::bench_threads(), 3u);
  // Malformed values fall back to the default (with a stderr warning).
  ::setenv("AIO_BENCH_THREADS", "lots", 1);
  EXPECT_GE(bench::bench_threads(), 1u);
  ::unsetenv("AIO_BENCH_THREADS");
  EXPECT_GE(bench::bench_threads(), 1u);
}

TEST(ShardSweep, ParsesStrictCommaList) {
  ::setenv("AIO_SIM_SHARDS", "1,2,4,8", 1);
  const auto sweep = obs::env_counts("AIO_SIM_SHARDS");
  ASSERT_EQ(sweep.size(), 4u);
  EXPECT_EQ(sweep[0], 1u);
  EXPECT_EQ(sweep[3], 8u);
  ::setenv("AIO_SIM_SHARDS", "4", 1);
  ASSERT_EQ(obs::env_counts("AIO_SIM_SHARDS").size(), 1u);
  // Malformed lists are rejected whole, not partially honoured.
  for (const char* bad : {"1,2,x", "0,2", "2,", ",2", "-1", "1;2"}) {
    ::setenv("AIO_SIM_SHARDS", bad, 1);
    EXPECT_TRUE(obs::env_counts("AIO_SIM_SHARDS").empty()) << bad;
  }
  ::unsetenv("AIO_SIM_SHARDS");
  EXPECT_TRUE(obs::env_counts("AIO_SIM_SHARDS").empty());
}

// Entries in /proc/self/task, this process's live threads; 0 where the
// directory is unreadable.
std::size_t live_threads() {
  std::size_t n = 0;
  if (DIR* dir = ::opendir("/proc/self/task")) {
    while (const dirent* e = ::readdir(dir))
      if (e->d_name[0] != '.') ++n;
    ::closedir(dir);
  }
  return n;
}

// live_threads() once it has fallen to `want`, or after 2 s.  A join
// returns when the kernel clears the thread's id, a moment before the task
// leaves the directory, so a count read right after a join may be high.
std::size_t live_threads_down_to(std::size_t want) {
  std::size_t n = live_threads();
  for (int i = 0; i < 2000 && n > want; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    n = live_threads();
  }
  return n;
}

TEST(RunSamples, NoThreadOutlivesTheCall) {
  // A first fan-out starts any helper thread the runtime keeps for itself
  // (ThreadSanitizer starts one at the first thread creation).
  (void)bench::run_samples(2, [](std::size_t i) { return i; }, 2);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const std::size_t before = live_threads();
  if (before == 0) GTEST_SKIP() << "/proc/self/task is unreadable";

  const auto out = bench::run_samples(8, [](std::size_t i) { return i; }, 4);
  EXPECT_EQ(out.size(), 8u);
  EXPECT_EQ(live_threads_down_to(before), before);
  // A throwing unit still joins every thread before the rethrow.
  EXPECT_THROW(bench::run_samples(
                   8,
                   [](std::size_t i) -> std::size_t {
                     if (i == 5) throw std::runtime_error("unit 5");
                     return i;
                   },
                   4),
               std::runtime_error);
  EXPECT_EQ(live_threads_down_to(before), before);
}

TEST(RunSamples, NestedCallsFallBackToSerial) {
  // A unit that itself fans out runs its nested request on its own thread
  // instead of multiplying the thread count.  Every inner unit must report
  // the thread of the outer unit that called it.
  std::atomic<int> nested_serial{0};
  const auto out = bench::run_samples(
      6,
      [&](std::size_t i) {
        const std::thread::id outer = std::this_thread::get_id();
        const auto inner = bench::run_samples(
            4, [](std::size_t j) { return std::pair(j * 10, std::this_thread::get_id()); }, 4);
        std::size_t sum = 0;
        bool same_thread = true;
        for (const auto& [v, id] : inner) {
          sum += v;
          same_thread = same_thread && id == outer;
        }
        if (same_thread) ++nested_serial;
        return sum + i;
      },
      3);
  ASSERT_EQ(out.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(out[i], 60u + i);
  // Every unit's inner call ran on that unit's thread (caller included).
  EXPECT_EQ(nested_serial.load(), 6);
}

// ---------------------------------------------------------------------------
// End-to-end determinism: a miniature fig1-style bench — independent
// machines per unit, aggregate bandwidth summaries, aio-bench-v1 report —
// must serialize to the same bytes whether the units ran on 1 thread or 4.
// ---------------------------------------------------------------------------

std::string mini_bench_json(std::size_t threads) {
  struct Unit {
    std::size_t writers;
    stats::Summary bw;
  };
  const auto units = bench::run_samples(
      3,
      [](std::size_t i) {
        const std::size_t writers = 8u << i;  // 8, 16, 32
        api::Simulation machine(fs::xtp(), 1000 + i, {.slot = static_cast<int>(i)});
        core::AdaptiveTransport::Config cfg;
        cfg.n_files = 8;
        core::AdaptiveTransport transport(machine.file_system(), machine.network(), cfg);
        Unit u;
        u.writers = writers;
        for (int s = 0; s < 2; ++s) {
          u.bw.add(machine.run(transport, core::IoJob::uniform(writers, 1 << 20))
                       .bandwidth());
          machine.advance(30.0);
        }
        return u;
      },
      threads);

  bench::Report report("test_parallel_harness", 1000);
  report.config("units", 3.0);
  for (const Unit& u : units)
    report.row().value("writers", static_cast<double>(u.writers)).stat("bw", u.bw);
  obs::Json doc = report.to_json();
  // peak_rss_bytes is a live getrusage reading — the one field that is
  // legitimately run-dependent.  Pin it so the rest stays byte-comparable.
  doc.set("peak_rss_bytes", obs::Json(0.0));
  return doc.dump();
}

// With AIO_REPORT on, every machine prints its summary when it is torn
// down — inside the unit, on a worker thread.  run_samples must hold that text
// back and print it in index order, so stdout matches the serial loop.
std::string report_stdout(std::size_t threads) {
  testing::internal::CaptureStdout();
  bench::run_samples(
      4,
      [](std::size_t i) {
        // Later units start sooner and run smaller jobs, so a harness that let
        // them print as they finish would reverse the order.
        std::this_thread::sleep_for(std::chrono::milliseconds((4 - i) * 20));
        api::Simulation machine(fs::xtp(), 2000 + i,
                                {.background_load = false, .slot = static_cast<int>(i)});
        core::AdaptiveTransport::Config cfg;
        cfg.n_files = 4;
        core::AdaptiveTransport transport(machine.file_system(), machine.network(), cfg);
        return machine.run(transport, core::IoJob::uniform(64u >> i, 1 << 20)).bandwidth();
      },
      threads);
  return testing::internal::GetCapturedStdout();
}

TEST(ParallelHarness, ReportSummariesPrintInIndexOrder) {
  ::setenv("AIO_REPORT", "1", 1);  // summary only, no file
  const std::string serial = report_stdout(1);
  const std::string pooled = report_stdout(4);
  ::unsetenv("AIO_REPORT");
  EXPECT_EQ(serial, pooled);
  // Four summaries, one per unit, largest job first.
  std::size_t at = 0;
  for (const char* writers : {"64 writer-writes", "32 writer-writes", "16 writer-writes",
                              "8 writer-writes"}) {
    at = serial.find(writers, at);
    ASSERT_NE(at, std::string::npos) << writers << " in\n" << serial;
  }
}

TEST(ParallelHarness, ReportJsonByteIdenticalAcrossThreadCounts) {
  const std::string serial = mini_bench_json(1);
  const std::string pooled = mini_bench_json(4);
  EXPECT_EQ(serial, pooled);
  // Sanity: the report actually carries data.
  EXPECT_NE(serial.find("aio-bench-v1"), std::string::npos) << serial.substr(0, 200);
}

}  // namespace
