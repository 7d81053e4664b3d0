// Tests for the observability layer: JSON round-trips, counter/gauge/series
// semantics, sampler accuracy against a hand-solved OST drain, the protocol
// instrumentation (and the trace exported from its journal) agreeing with
// IoResult, and the AIO_* environment readers (obs/env.hpp).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/transports/adaptive_transport.hpp"
#include "fs/filesystem.hpp"
#include "fs/ost.hpp"
#include "net/network.hpp"
#include "obs/analysis.hpp"
#include "obs/env.hpp"
#include "obs/journal.hpp"
#include "obs/json.hpp"
#include "obs/live.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/trace_export.hpp"
#include "sim/engine.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace {

using namespace aio;

// --- Json --------------------------------------------------------------------

TEST(Json, RoundTripsNestedDocument) {
  obs::Json doc = obs::Json::object();
  doc.set("name", "trace \"x\"\n");
  doc.set("count", obs::Json(42.0));
  doc.set("ratio", obs::Json(0.5));
  doc.set("on", obs::Json(true));
  doc.set("none", obs::Json(nullptr));
  obs::Json arr = obs::Json::array();
  arr.push(obs::Json(1.0));
  arr.push(obs::Json(-2.25));
  doc.set("xs", std::move(arr));

  const std::string text = doc.dump();
  const std::optional<obs::Json> back = obs::Json::parse(text);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->dump(), text);
  // Integral doubles serialize without a fractional part.
  EXPECT_NE(text.find("\"count\":42"), std::string::npos);
}

TEST(Json, EscapesExactlyTheCharactersJsonRequires) {
  EXPECT_EQ(obs::Json("plain text / é").dump(), "\"plain text / é\"");
  EXPECT_EQ(obs::Json("\"a\\b\x01" "c\td\n").dump(), R"("\"a\\b\u0001c\td\n")");
  EXPECT_EQ(obs::Json(std::string("\b\f\r\x1f", 4)).dump(), R"("\b\f\r\u001f")");
  EXPECT_EQ(obs::Json("").dump(), "\"\"");
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_FALSE(obs::Json::parse("{").has_value());
  EXPECT_FALSE(obs::Json::parse("[1,]").has_value());
  EXPECT_FALSE(obs::Json::parse("{} trailing").has_value());
  EXPECT_FALSE(obs::Json::parse("nul").has_value());
  ASSERT_TRUE(obs::Json::parse("{\"u\":\"\\u00e9\"}").has_value());
}

TEST(Json, RenderedArrayCountsAndDumpsItsText) {
  const obs::Json xs = obs::Json::rendered_array(R"(1,"two",{"x":[3]})", 3);
  EXPECT_TRUE(xs.is_array());
  EXPECT_EQ(xs.size(), 3u);
  obs::Json doc = obs::Json::object();
  doc.set("before", 0);
  doc.set("xs", xs);
  doc.set("after", "end");
  const std::string text = doc.dump();
  EXPECT_EQ(text, R"({"before":0,"xs":[1,"two",{"x":[3]}],"after":"end"})");
  // The dump parses back, the rendered array as an ordinary one.
  const std::optional<obs::Json> back = obs::Json::parse(text);
  ASSERT_TRUE(back.has_value());
  const obs::Json* parsed = back->find("xs");
  ASSERT_NE(parsed, nullptr);
  ASSERT_EQ(parsed->size(), 3u);
  EXPECT_EQ(parsed->at(1).str(), "two");
  EXPECT_EQ(back->dump(), text);
}

TEST(Json, EmptyRenderedArrayDumpsAsBrackets) {
  const obs::Json empty = obs::Json::rendered_array("", 0);
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.dump(), "[]");
}

TEST(Json, RenderedArrayHasNoElementAccess) {
  obs::Json xs = obs::Json::rendered_array("1,2", 2);
  EXPECT_THROW((void)xs.at(0), std::bad_variant_access);
  EXPECT_THROW((void)xs.items(), std::bad_variant_access);
  EXPECT_THROW(xs.push(3), std::bad_variant_access);
  EXPECT_EQ(xs.dump(), "[1,2]");  // a failed push leaves the text alone
}

TEST(Json, RenderedArrayCopiesShareTheText) {
  // Heap bytes in use, mmapped blocks included (glibc only; elsewhere the
  // check passes vacuously).
  const auto heap_bytes = [] {
#if defined(__GLIBC__) && (__GLIBC__ > 2 || __GLIBC_MINOR__ >= 33)
    const struct mallinfo2 m = ::mallinfo2();
    return m.uordblks + m.hblkhd;
#else
    return std::size_t{0};
#endif
  };
  constexpr std::size_t kChars = 1 << 22;
  std::vector<obs::Json> copies;
  copies.reserve(8);
  {
    const obs::Json original =
        obs::Json::rendered_array('"' + std::string(kChars, 'x') + '"', 1);
    const std::size_t before = heap_bytes();
    for (int i = 0; i < 8; ++i) copies.push_back(original);
    EXPECT_LT(heap_bytes(), before + kChars) << "copies duplicated the text";
  }
  // The copies outlive the original.
  for (const obs::Json& c : copies) {
    EXPECT_EQ(c.size(), 1u);
    EXPECT_EQ(c.dump().size(), kChars + 4);
  }
}

// --- Registry ----------------------------------------------------------------

TEST(Registry, CounterAndGaugeSemantics) {
  obs::Registry reg;
  reg.counter("ops").add();
  reg.counter("ops").add(4);
  reg.gauge("level").set(2.5);
  reg.gauge("level").set(1.5);  // gauges overwrite, counters accumulate
  EXPECT_EQ(reg.counter("ops").value(), 5u);
  EXPECT_DOUBLE_EQ(reg.gauge("level").value(), 1.5);

  // References stay valid across later insertions (std::map storage).
  obs::Counter& ops = reg.counter("ops");
  for (int i = 0; i < 64; ++i) reg.counter("other" + std::to_string(i));
  ops.add();
  EXPECT_EQ(reg.counter("ops").value(), 6u);

  const std::optional<obs::Json> doc = obs::Json::parse(reg.to_json().dump());
  ASSERT_TRUE(doc.has_value());
  EXPECT_NE(doc->find("counters"), nullptr);
  EXPECT_NE(doc->find("gauges"), nullptr);
}

TEST(Registry, SeriesDecimatesToBoundedSketch) {
  obs::Registry reg;
  obs::Series& s = reg.series("q", /*max_points=*/16);
  for (int i = 0; i < 1000; ++i) s.add(static_cast<double>(i), static_cast<double>(i));
  EXPECT_EQ(s.offered(), 1000u);
  EXPECT_LE(s.samples().size(), 16u);
  EXPECT_GT(s.stride(), 1u);
  // The sketch stays time-ordered and spans the timeline.
  const auto& pts = s.samples();
  ASSERT_GE(pts.size(), 2u);
  for (std::size_t i = 1; i < pts.size(); ++i) EXPECT_LT(pts[i - 1].first, pts[i].first);
  EXPECT_GE(pts.back().first, 500.0);
}

// --- Histogram ---------------------------------------------------------------

TEST(Histogram, QuantilesWithinSketchError) {
  obs::Histogram h(/*rel_err=*/0.01);
  // 10,000 evenly spaced values over three decades: the true quantile q is
  // (approximately) q * 10 s, and every estimate must land within the
  // sketch's relative-error guarantee (bucket midpoint, ~1%).
  for (int i = 1; i <= 10000; ++i) h.add(i * 1e-3);
  EXPECT_EQ(h.count(), 10000u);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1e-3);   // exact extrema
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 10.0);
  for (const double q : {0.25, 0.50, 0.75, 0.90, 0.99}) {
    const double truth = q * 10.0;
    EXPECT_NEAR(h.quantile(q), truth, 0.02 * truth) << "q=" << q;
  }
  EXPECT_NEAR(h.mean(), h.sum() / 10000.0, 1e-9);

  // Empty histogram: zeros, no division by zero.
  const obs::Histogram empty;
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);
}

TEST(Histogram, EmptySketchIsAllZeros) {
  const obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  for (const double q : {0.0, 0.25, 0.5, 0.99, 1.0}) EXPECT_DOUBLE_EQ(h.quantile(q), 0.0);
}

TEST(Histogram, SingleSampleDominatesEveryQuantile) {
  obs::Histogram h;
  h.add(0.125);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.125);
  EXPECT_DOUBLE_EQ(h.min(), 0.125);
  EXPECT_DOUBLE_EQ(h.max(), 0.125);
  // Interior quantiles come from the sketch midpoint but clamp to [min, max],
  // so with one sample every quantile is exactly that sample.
  for (const double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0})
    EXPECT_DOUBLE_EQ(h.quantile(q), 0.125) << "q=" << q;
  // Out-of-range q clamps rather than misindexing.
  EXPECT_DOUBLE_EQ(h.quantile(-1.0), 0.125);
  EXPECT_DOUBLE_EQ(h.quantile(2.0), 0.125);
}

TEST(Histogram, ExtremeValuesLandInClampedBuckets) {
  // Sub-floor values (zero, denormal-scale) clamp into the smallest tracked
  // bucket rather than computing log(0); exact min/max still ride along.
  obs::Histogram tiny;
  tiny.add(0.0);
  tiny.add(1e-300);
  tiny.add(1.0);
  EXPECT_EQ(tiny.count(), 3u);
  EXPECT_DOUBLE_EQ(tiny.min(), 0.0);
  EXPECT_DOUBLE_EQ(tiny.max(), 1.0);
  EXPECT_DOUBLE_EQ(tiny.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(tiny.quantile(1.0), 1.0);
  // The two clamped samples share the floor bucket: the median estimate is
  // the floor-bucket midpoint, clamped back into [min, max].
  EXPECT_LE(tiny.quantile(0.5), 1e-11);
  EXPECT_GE(tiny.quantile(0.5), 0.0);

  // A huge-dynamic-range sketch (300 decades) stays finite and ordered —
  // bucket storage is O(observed index range), not O(value).
  obs::Histogram wide;
  wide.add(1e-300);
  wide.add(1e300);
  EXPECT_DOUBLE_EQ(wide.min(), 1e-300);
  EXPECT_DOUBLE_EQ(wide.max(), 1e300);
  EXPECT_LE(wide.quantile(0.25), wide.quantile(0.75));
  EXPECT_TRUE(std::isfinite(wide.quantile(0.5)));

  // And the ~1% relative-error guarantee holds out at the huge end.
  obs::Histogram big;
  for (int i = 0; i < 1000; ++i) big.add(1e9);
  EXPECT_NEAR(big.quantile(0.5), 1e9, 0.02 * 1e9);
}

TEST(Histogram, SkipsNonFiniteSamples) {
  // NaN and infinities have no log bucket; they are dropped whole, so the
  // count, extrema and quantiles describe only the finite samples.
  obs::Histogram h;
  h.add(1.0);
  h.add(std::nan(""));
  h.add(std::numeric_limits<double>::infinity());
  h.add(-std::numeric_limits<double>::infinity(), 3);
  h.add(2.0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.sum(), 3.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 2.0);
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_GE(h.quantile(q), 1.0) << "q=" << q;
    EXPECT_LE(h.quantile(q), 2.0) << "q=" << q;
  }

  obs::Histogram only_nan;
  only_nan.add(std::nan(""));
  EXPECT_EQ(only_nan.count(), 0u);
  EXPECT_DOUBLE_EQ(only_nan.quantile(0.5), 0.0);
}

// --- merge_records -----------------------------------------------------------

obs::Record rec(double t, obs::Rec kind, std::uint32_t id, std::uint8_t a = 0) {
  obs::Record r;
  r.t = t;
  r.kind = kind;
  r.id = id;
  r.a = a;
  return r;
}

TEST(MergeRecords, TiedTimestampsOrderByKindThenContent) {
  // A sharded epilogue in miniature: the run's kComplete mark, a writer end,
  // an OST state flip, and two steal completions all land at the same
  // simulated instant, interleaved adversarially across two journals.
  const double t = 4.0;
  obs::Journal a({/*path=*/"", /*max_records=*/64});
  obs::Journal b({/*path=*/"", /*max_records=*/64});
  a.append(rec(t, obs::Rec::kStealComplete, /*grant=*/1));
  a.append(rec(t, obs::Rec::kRunMark, 1, static_cast<std::uint8_t>(obs::Mark::kComplete)));
  a.append(rec(t - 1.0, obs::Rec::kWriterStart, 3));
  b.append(rec(t, obs::Rec::kOstState, 0));
  b.append(rec(t, obs::Rec::kStealComplete, /*grant=*/0));
  b.append(rec(t, obs::Rec::kWriterEnd, 3));

  const std::vector<obs::Record> merged = obs::merge_records({&a, &b});
  ASSERT_EQ(merged.size(), 6u);
  // Strictly earlier timestamps first, whatever the kind.
  EXPECT_EQ(merged[0].kind, obs::Rec::kWriterStart);
  // At the tie: ascending kind — run mark (2), writer end (6), OST state (7).
  EXPECT_EQ(merged[1].kind, obs::Rec::kRunMark);
  EXPECT_EQ(merged[2].kind, obs::Rec::kWriterEnd);
  EXPECT_EQ(merged[3].kind, obs::Rec::kOstState);
  // Steal completions (kind 10, the largest) sort after every other kind
  // at the same instant, ties between them broken bytewise.
  EXPECT_EQ(merged[4].kind, obs::Rec::kStealComplete);
  EXPECT_EQ(merged[4].id, 0u);
  EXPECT_EQ(merged[5].kind, obs::Rec::kStealComplete);
  EXPECT_EQ(merged[5].id, 1u);
}

TEST(MergeRecords, ResultDependsOnlyOnTheMultiset) {
  // Same six records, three different distributions over shard journals
  // (including one empty part and a null part): identical merged bytes.
  const std::vector<obs::Record> all = {
      rec(1.0, obs::Rec::kRunBegin, 1),
      rec(2.0, obs::Rec::kWriterSignal, 0),
      rec(2.0, obs::Rec::kWriterStart, 0),
      rec(2.0, obs::Rec::kStealComplete, 0),
      rec(2.0, obs::Rec::kMdsOp, 0),
      rec(3.0, obs::Rec::kRunMark, 1, static_cast<std::uint8_t>(obs::Mark::kComplete)),
  };
  obs::Journal one({/*path=*/"", 64}), two_a({/*path=*/"", 64}), two_b({/*path=*/"", 64}),
      empty({/*path=*/"", 64});
  for (const obs::Record& r : all) one.append(r);
  for (std::size_t i = 0; i < all.size(); ++i)
    (i % 2 ? two_a : two_b).append(all[all.size() - 1 - i]);  // reversed, split

  const std::vector<obs::Record> base = obs::merge_records({&one});
  const std::vector<obs::Record> split = obs::merge_records({&two_a, &two_b, &empty, nullptr});
  ASSERT_EQ(base.size(), all.size());
  ASSERT_EQ(split.size(), all.size());
  EXPECT_EQ(std::memcmp(base.data(), split.data(), base.size() * sizeof(obs::Record)), 0);
  // And the steal completion still trails its same-time peers.
  EXPECT_EQ(base[4].kind, obs::Rec::kStealComplete);
}

// --- Sampler vs hand-computed OST drain --------------------------------------

// A 1000 B durable write into an OST with ingest 1000 B/s, disk 100 B/s and a
// roomy cache: occupancy rises at the net 900 B/s until ingest completes at
// t=1 (occupancy 900), then drains at 100 B/s, empty (and done) at t=10.
TEST(Sampler, PerOstSeriesMatchesFluidModel) {
  obs::Registry reg;
  sim::Engine engine;
  fs::Ost::Config cfg;
  cfg.ingest_bw = 1000.0;
  cfg.disk_bw = 100.0;
  cfg.cache_bytes = 1e6;
  cfg.per_stream_cap = 0.0;
  cfg.alpha = 0.0;
  cfg.eff_floor = 0.0;
  cfg.op_latency_s = 0.0;
  fs::Ost ost(engine, cfg);

  obs::Sampler sampler(reg, /*period_s=*/0.5);
  sampler.add_probe("ost0.cache_occupancy", [&](double) { return ost.cache_occupancy(); });

  // Tick at 0.25, 0.75, 1.25, ... — off the model's own breakpoints.
  std::function<void()> arm = [&] {
    sampler.tick(engine.now());
    engine.schedule_daemon_after(0.5, arm);
  };
  engine.schedule_daemon_after(0.25, arm);

  sim::Time done = -1.0;
  ost.write(1000.0, fs::Ost::Mode::Durable, [&](sim::Time t) { done = t; });
  engine.run();
  EXPECT_NEAR(done, 10.0, 1e-6);

  const auto& samples = reg.series("ost0.cache_occupancy").samples();
  ASSERT_GE(samples.size(), 19u);  // daemons ticked up to t=done
  for (const auto& [t, q] : samples) {
    const double expected = t <= 1.0 ? 900.0 * t : 900.0 - 100.0 * (t - 1.0);
    EXPECT_NEAR(q, expected, 1e-6) << "at t=" << t;
  }
}

// The report counts cache-full crossings from the journaled OST states: a
// 1000 B durable write into a 100 B cache fills it once, stays full while
// ingest is throttled to the drain, then drains; a second write fills it
// again.  A state record journaled while the cache stays full (the load
// reset at t=5) is not a crossing.
TEST(OstMetrics, CacheFullCrossingsCountFromTheJournal) {
  obs::Journal journal({/*path=*/"", /*max_records=*/1u << 10});
  sim::Engine engine(&journal);
  fs::Ost::Config cfg;
  cfg.ingest_bw = 1000.0;
  cfg.disk_bw = 100.0;
  cfg.cache_bytes = 100.0;
  cfg.alpha = 0.0;
  cfg.eff_floor = 0.0;
  fs::Ost ost(engine, cfg);
  const auto crossings = [&journal] {
    return obs::analyze(journal).find("summary")->find("cache_full_crossings")->number();
  };
  sim::Time done = -1.0;
  ost.write(1000.0, fs::Ost::Mode::Durable, [&](sim::Time t) { done = t; });
  engine.schedule_at(5.0, [&] { ost.set_load(0.0, 0.0); });
  engine.run();
  EXPECT_NEAR(done, 10.0, 1e-6);
  EXPECT_EQ(crossings(), 1.0);
  ost.write(1000.0, fs::Ost::Mode::Durable, [&](sim::Time t) { done = t; });
  engine.run();
  EXPECT_NEAR(done, 20.0, 1e-6);
  EXPECT_EQ(crossings(), 2.0);
}

// --- Protocol instrumentation agrees with IoResult ---------------------------

/// Events in a Chrome trace document with phase `ph` whose name starts with
/// `prefix` (empty = any).
std::size_t count_events(const obs::Json& trace, const char* ph, std::string_view prefix = {}) {
  const std::optional<obs::Json> doc = obs::Json::parse(trace.dump());
  const obs::Json* events = doc ? doc->find("traceEvents") : nullptr;
  std::size_t n = 0;
  for (std::size_t i = 0; events && i < events->size(); ++i) {
    const obs::Json& e = events->at(i);
    if (e.find("ph")->str() != ph) continue;
    const obs::Json* name = e.find("name");
    if (prefix.empty() || (name && name->str().rfind(prefix, 0) == 0)) ++n;
  }
  return n;
}

TEST(ProtocolTrace, StealInstantsMatchIoResult) {
  obs::Journal journal({/*path=*/"", /*max_records=*/1u << 20});
  sim::Engine engine(&journal);

  fs::FsConfig fc;
  fc.n_osts = 4;
  fc.fabric_bw = 0.0;
  fc.stripe_limit = 4;
  fc.default_stripe_size = 1e6;
  fc.ost.ingest_bw = 100e6;
  fc.ost.disk_bw = 10e6;
  fc.ost.cache_bytes = 50e6;
  fc.ost.per_stream_cap = 0.0;
  fc.ost.alpha = 0.0;
  fc.ost.eff_floor = 0.0;
  fc.mds.open_base_s = 1e-4;
  fc.mds.close_base_s = 1e-4;
  fs::FileSystem filesystem(engine, fc);
  net::Network network(engine, net::NetConfig{1e-6, 10e9, 8}, 64);

  // Load one target heavily so its group falls behind and gets stolen from.
  filesystem.ost(0).set_load(0.8, 0.8);

  core::AdaptiveTransport::Config ac;
  ac.n_files = 4;
  core::AdaptiveTransport transport(filesystem, network, ac);
  std::optional<core::IoResult> result;
  transport.run(core::IoJob::uniform(16, 8e6), [&](core::IoResult r) { result = std::move(r); });
  engine.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_GT(result->steals, 0u);

  // In the trace exported from the run's journal, every steal completion
  // leaves exactly one instant; every writer opens exactly one data-write
  // span (stolen or not), and all spans close.
  const obs::Json report = obs::analyze(journal);
  const obs::Json trace = obs::report_trace(journal, report);
  EXPECT_EQ(count_events(trace, "i", "steal-complete "), result->steals);
  EXPECT_EQ(count_events(trace, "B", "write"), 16u);
  EXPECT_EQ(count_events(trace, "B"), count_events(trace, "E"));
  // The report's counts agree with the protocol's own.
  const obs::Json& summary = *report.find("summary");
  EXPECT_EQ(summary.find("steals")->number(), static_cast<double>(result->steals));
  EXPECT_EQ(report.find("runs")->size(), 1u);
  EXPECT_GE(summary.find("grants")->number(), static_cast<double>(result->steals));
}

// --- env readers -------------------------------------------------------------

// One reader call with `value` in a variable no other case uses (so every
// case sees its own first warning); returns the captured stderr.
template <typename Read>
std::string read_env(const char* tag, std::size_t i, const char* value, Read read) {
  const std::string name = std::string("AIO_TEST_") + tag + "_" + std::to_string(i);
  if (value)
    ::setenv(name.c_str(), value, 1);
  else
    ::unsetenv(name.c_str());
  testing::internal::CaptureStderr();
  read(name.c_str());
  ::unsetenv(name.c_str());
  return testing::internal::GetCapturedStderr();
}

TEST(EnvReaders, CountAcceptsWholeNumbersAtOrAboveTheMinimum) {
  struct Case {
    const char* value;
    std::size_t min;
    std::size_t want;
    bool warns;
  };
  const Case cases[] = {
      {"12", 1, 12, false},     {nullptr, 1, 7, false},  // valid, unset
      {"", 1, 7, false},        {"12x", 1, 7, true},     // empty, trailing junk
      {"99999999999999999999999", 1, 7, true},          // overflow
      {"0", 1, 7, true},        {"0", 0, 0, false},      // below minimum; min 0 accepts it
      {"3", 4, 7, true},        {"-3", 1, 7, true},      // below minimum; no signs
      {" 3", 1, 7, true},       {"all", 1, 7, true},     // no blanks; no words
  };
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    const Case& c = cases[i];
    std::size_t got = 0;
    const std::string err = read_env("COUNT", i, c.value, [&](const char* name) {
      got = obs::env_count(name, 7, c.min);
    });
    EXPECT_EQ(got, c.want) << i;
    EXPECT_EQ(!err.empty(), c.warns) << i << ": " << err;
    if (c.warns) {
      EXPECT_NE(err.find("aio: ignoring AIO_TEST_COUNT_"), std::string::npos) << err;
    }
  }
}

TEST(EnvReaders, SecondsAcceptsPositiveFiniteNumbers) {
  struct Case {
    const char* value;
    double min;
    double want;
    bool warns;
  };
  const Case cases[] = {
      {"0.25", 0.0, 0.25, false}, {nullptr, 0.0, 2.0, false},  // valid, unset
      {"", 0.0, 2.0, false},      {"1.5s", 0.0, 2.0, true},     // empty, trailing junk
      {"1e999", 0.0, 2.0, true},  {"nan", 0.0, 2.0, true},      // overflow, not a number
      {"0", 0.0, 2.0, true},      {"-1", 0.0, 2.0, true},       // not positive
      {"0.5", 1.0, 2.0, true},    {"1", 1.0, 1.0, false},       // below / at the minimum
  };
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    const Case& c = cases[i];
    double got = 0.0;
    const std::string err = read_env("SECONDS", i, c.value, [&](const char* name) {
      got = obs::env_seconds(name, 2.0, c.min);
    });
    EXPECT_EQ(got, c.want) << i;
    EXPECT_EQ(!err.empty(), c.warns) << i << ": " << err;
  }
}

TEST(EnvReaders, CountListRejectsAnyMalformedEntryWhole) {
  struct Case {
    const char* value;
    std::vector<std::size_t> want;
    bool warns;
  };
  const Case cases[] = {
      {"1,2,4,8", {1, 2, 4, 8}, false}, {nullptr, {}, false},  // valid, unset
      {"", {}, false},                  {"1,2,x", {}, true},   // empty, trailing junk
      {"1,99999999999999999999999", {}, true},                // overflow
      {"0,2", {}, true},                {"2,", {}, true},      // below minimum; dangling comma
      {",2", {}, true},                 {"1;2", {}, true},
  };
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    const Case& c = cases[i];
    std::vector<std::size_t> got{42};
    const std::string err = read_env("COUNTS", i, c.value, [&](const char* name) {
      got = obs::env_counts(name);
    });
    EXPECT_EQ(got, c.want) << i;
    EXPECT_EQ(!err.empty(), c.warns) << i << ": " << err;
  }
}

TEST(EnvReaders, SinkGrammarSeparatesSwitchesFromPaths) {
  struct Case {
    const char* value;
    bool needs_path;
    bool on;
    const char* path;
    bool warns;
  };
  const Case cases[] = {
      {nullptr, false, false, "", false},  {"", false, false, "", false},  // unset, empty
      {"0", false, false, "", false},                                     // off, quietly
      {"1", false, true, "", false},       {"-", false, true, "", false},  // on, no file
      {"out.json", false, true, "out.json", false},                       // a path
      {"1x", false, true, "1x", false},                                   // junk is a path
      {"2", false, false, "", true},       {"07", false, false, "", true},  // mistyped switch
      {"99999999999999999999999", false, false, "", true},                // overflow
      {"1", true, false, "", true},        {"-", true, false, "", true},    // file required
      {"0", true, false, "", false},       {"m.json", true, true, "m.json", false},
  };
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    const Case& c = cases[i];
    obs::EnvSink got;
    const std::string err = read_env("SINK", i, c.value, [&](const char* name) {
      got = obs::env_sink(name, c.needs_path);
    });
    EXPECT_EQ(got.on, c.on) << i;
    EXPECT_EQ(got.path, c.path) << i;
    EXPECT_EQ(!err.empty(), c.warns) << i << ": " << err;
    if (c.warns) {
      EXPECT_NE(err.find(c.needs_path ? "(want 0 or a file path)" : "(want 0, 1, -, or a file path)"),
                std::string::npos)
          << err;
    }
  }
}

TEST(EnvReaders, WarnsOncePerVariable) {
  ::setenv("AIO_TEST_ONCE_A", "x", 1);
  ::setenv("AIO_TEST_ONCE_B", "y", 1);
  testing::internal::CaptureStderr();
  EXPECT_EQ(obs::env_count("AIO_TEST_ONCE_A", 3), 3u);
  EXPECT_EQ(obs::env_count("AIO_TEST_ONCE_A", 3), 3u);
  EXPECT_EQ(obs::env_seconds("AIO_TEST_ONCE_A", 1.0), 1.0);  // same variable, other reader
  EXPECT_EQ(obs::env_count("AIO_TEST_ONCE_B", 3), 3u);
  const std::string err = testing::internal::GetCapturedStderr();
  ::unsetenv("AIO_TEST_ONCE_A");
  ::unsetenv("AIO_TEST_ONCE_B");
  EXPECT_EQ(err,
            "aio: ignoring AIO_TEST_ONCE_A=\"x\" (want an integer >= 1)\n"
            "aio: ignoring AIO_TEST_ONCE_B=\"y\" (want an integer >= 1)\n");
}

TEST(EnvReaders, NumberedPathsFollowTheMachineSlot) {
  EXPECT_EQ(obs::numbered_path("out.json", 0), "out.json");
  EXPECT_EQ(obs::numbered_path("out.json", 1), "out.json.2");
  // -1 draws the next machine ordinal: one past whatever was drawn last.
  const int drawn = obs::machine_slot();
  EXPECT_EQ(obs::numbered_path("out.json", -1), "out.json." + std::to_string(drawn + 2));
  EXPECT_EQ(obs::machine_slot(5), 5);  // explicit slots never touch the ordinal
  EXPECT_EQ(obs::machine_slot(), drawn + 2);
}

TEST(EnvReaders, ZeroTurnsEverySinkOff) {
  for (const char* v : {"AIO_TRACE", "AIO_JOURNAL", "AIO_REPORT", "AIO_LIVE", "AIO_FLIGHT"})
    ::setenv(v, "0", 1);
  EXPECT_EQ(obs::Journal::from_env(0), nullptr);
  EXPECT_EQ(obs::LivePlane::from_env(0), nullptr);
  for (const char* v : {"AIO_TRACE", "AIO_JOURNAL", "AIO_REPORT", "AIO_LIVE", "AIO_FLIGHT"})
    ::unsetenv(v);
}

// A document that fits in the stream buffer is written only when its file
// closes, and a failure there must still be reported.
TEST(FlushReport, FailedWriteOfASmallDocumentIsReported) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const obs::Journal journal({/*path=*/"", /*max_records=*/16});
  std::string summary;
  const obs::SummaryCapture capture(summary);
  for (const char* var : {"AIO_REPORT", "AIO_TRACE"}) {
    ::setenv(var, "/dev/full", 1);
    EXPECT_FALSE(obs::flush_report(journal, 0)) << var;
    ::unsetenv(var);
  }
}

// AIO_TRACE renders the journal into a file at the end of the run, so an
// in-memory trace would be read by nothing: `1` and `-` are rejected, and a
// rejected value arms no journal.
TEST(EnvReaders, TraceRequiresAPath) {
  ::setenv("AIO_TRACE", "1", 1);
  testing::internal::CaptureStderr();
  EXPECT_EQ(obs::Journal::from_env(0), nullptr);
  const std::string err = testing::internal::GetCapturedStderr();
  ::unsetenv("AIO_TRACE");
  EXPECT_NE(err.find("aio: ignoring AIO_TRACE=\"1\" (want 0 or a file path)"), std::string::npos)
      << err;
}

}  // namespace
