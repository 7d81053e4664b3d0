// Critical-path extraction: the segment algebra on synthetic inputs (exact
// tiling, clamping, degraded chains), the analyzer integration on the golden
// 2-OST rig (sum == io_seconds at 1e-9, the identity CI gates), the new
// report surfaces (summary line, HTML critical-path + metadata-tier tables),
// and the offline journal -> Chrome-trace converter, byte for byte against
// the object-per-event reference builder (trace_reference.hpp).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/transports/adaptive_transport.hpp"
#include "fs/filesystem.hpp"
#include "fs/ost.hpp"
#include "net/network.hpp"
#include "obs/analysis.hpp"
#include "obs/critical_path.hpp"
#include "obs/journal.hpp"
#include "obs/trace_export.hpp"
#include "sim/engine.hpp"
#include "trace_reference.hpp"

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

// --- segment algebra ---------------------------------------------------------

obs::PathInputs full_chain_inputs() {
  obs::PathInputs in;
  in.t_begin = 0.5;
  in.t_open = 1.0;
  in.t_data_done = 6.5;
  in.t_complete = 7.0;
  in.have_anchor = true;
  in.anchor_writer = 3;
  in.signal_t = 3.0;
  in.start_t = 3.5;
  in.end_t = 6.0;
  in.queue_ext_s = 0.8;    // of the 2.0 s queue interval
  in.service_ext_s = 1.2;  // of the 2.5 s service interval
  in.close_mds_s = 0.2;    // of the 0.5 s close phase
  in.open_mds_service_s = 0.3;
  return in;
}

TEST(CriticalPath, FullChainTilesTheSpanExactly) {
  const obs::PathInputs in = full_chain_inputs();
  const std::vector<obs::PathSeg> segs = obs::critical_path_segments(in);
  ASSERT_FALSE(segs.empty());

  // Contiguous tiling: each segment starts where the previous ended, the
  // first at t_open, the last at t_complete.
  EXPECT_DOUBLE_EQ(segs.front().t0, in.t_open);
  EXPECT_DOUBLE_EQ(segs.back().t1, in.t_complete);
  for (std::size_t i = 1; i < segs.size(); ++i)
    EXPECT_DOUBLE_EQ(segs[i].t0, segs[i - 1].t1) << "gap before segment " << i;

  // The expected walk: queue split, signal transfer, service split, anchor
  // slack, close split.
  const std::vector<std::string> types = {"external", "internal", "network", "external",
                                          "internal", "residual", "mds",      "network"};
  ASSERT_EQ(segs.size(), types.size());
  for (std::size_t i = 0; i < segs.size(); ++i) EXPECT_EQ(segs[i].type, types[i]) << i;

  const obs::PathTotals t = obs::path_totals(segs);
  EXPECT_NEAR(t.span_s, in.t_complete - in.t_open, 1e-12);
  EXPECT_NEAR(t.external_s, 0.8 + 1.2, 1e-12);
  EXPECT_NEAR(t.internal_s, (2.0 - 0.8) + (2.5 - 1.2), 1e-12);
  EXPECT_NEAR(t.network_s, 0.5 + 0.3, 1e-12);  // signal transfer + close traffic
  EXPECT_NEAR(t.mds_s, 0.2, 1e-12);
  EXPECT_NEAR(t.residual_s, 0.5, 1e-12);  // anchor end -> data-done
  EXPECT_NEAR(t.mds_s + t.internal_s + t.external_s + t.network_s + t.residual_s, t.span_s,
              1e-12);
}

TEST(CriticalPath, OverlargeIntegralsClampAndStillTile) {
  obs::PathInputs in = full_chain_inputs();
  in.queue_ext_s = 100.0;    // > the queue interval: clamps to all-external
  in.service_ext_s = 100.0;  // same on the service interval
  in.close_mds_s = 100.0;    // > the close phase: mds swallows it, no network
  const std::vector<obs::PathSeg> segs = obs::critical_path_segments(in);
  ASSERT_FALSE(segs.empty());
  const obs::PathTotals t = obs::path_totals(segs);
  EXPECT_NEAR(t.span_s, in.t_complete - in.t_open, 1e-12);
  EXPECT_DOUBLE_EQ(t.internal_s, 0.0);
  EXPECT_DOUBLE_EQ(t.external_s, 2.0 + 2.5);
  EXPECT_DOUBLE_EQ(t.network_s, 0.5);  // the signal transfer survives
  for (std::size_t i = 1; i < segs.size(); ++i) EXPECT_DOUBLE_EQ(segs[i].t0, segs[i - 1].t1);
}

TEST(CriticalPath, IncompleteChainDegradesToOneResidual) {
  obs::PathInputs in = full_chain_inputs();
  in.have_anchor = false;
  const std::vector<obs::PathSeg> segs = obs::critical_path_segments(in);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_STREQ(segs[0].type, "residual");
  EXPECT_DOUBLE_EQ(segs[0].t0, in.t_open);
  EXPECT_DOUBLE_EQ(segs[0].t1, in.t_complete);
}

TEST(CriticalPath, NoIntervalMeansNoPath) {
  obs::PathInputs in;  // t_open/t_complete unobserved
  EXPECT_TRUE(obs::critical_path_segments(in).empty());
  EXPECT_TRUE(obs::critical_path_json(in).is_null());
  in.t_open = 2.0;
  in.t_complete = 1.0;  // inverted interval
  EXPECT_TRUE(obs::critical_path_segments(in).empty());
}

TEST(CriticalPath, JsonCarriesAnchorSegmentsAndTotals) {
  const obs::Json cp = obs::critical_path_json(full_chain_inputs());
  ASSERT_FALSE(cp.is_null());
  EXPECT_DOUBLE_EQ(num_at(cp, {"span_s"}), 6.0);
  EXPECT_DOUBLE_EQ(num_at(cp, {"anchor", "writer"}), 3.0);
  EXPECT_TRUE(cp.find("anchor")->find("found")->boolean());
  ASSERT_NE(cp.find("segments"), nullptr);
  EXPECT_GT(cp.find("segments")->size(), 0u);
  EXPECT_NEAR(num_at(cp, {"totals", "sum_s"}), 6.0, 1e-12);
  EXPECT_DOUBLE_EQ(num_at(cp, {"open_phase", "wait_s"}), 0.5);
  EXPECT_DOUBLE_EQ(num_at(cp, {"open_phase", "mds_service_s"}), 0.3);
}

// --- analyzer integration (the golden rig) -----------------------------------

/// Same golden scenario as test_analysis: two storage targets, target 1
/// carrying heavy external load, eight writers in two groups, real MDS
/// opens so the close phase has metadata to attribute.
struct TwoOstRig {
  obs::Journal journal{{/*path=*/"", /*max_records=*/1u << 20}};
  sim::Engine engine{&journal};
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

  TwoOstRig()
      : filesystem(engine, fs_config()),
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

TEST(CriticalPathReport, SegmentsSumToIoSecondsWithinGate) {
  TwoOstRig rig;
  const core::IoResult result = rig.run();
  const obs::Json report = obs::analyze(rig.journal);

  ASSERT_EQ(report.find("runs")->size(), 1u);
  const obs::Json& run = report.find("runs")->at(0);
  const obs::Json* cp = run.find("critical_path");
  ASSERT_NE(cp, nullptr) << "run has no critical_path block";

  // The CI invariant: 100% of io_seconds attributed, to 1e-9.
  EXPECT_NEAR(num_at(*cp, {"totals", "sum_s"}), result.io_seconds(), 1e-9);
  EXPECT_NEAR(num_at(*cp, {"totals", "sum_s"}), num_at(run, {"run_time_s"}), 1e-9);

  // Segment-level identity: contiguous, inside the interval, durations match.
  const obs::Json* segs = cp->find("segments");
  ASSERT_NE(segs, nullptr);
  ASSERT_GT(segs->size(), 1u);
  double prev_t1 = num_at(*cp, {"t0"});
  double sum = 0.0;
  for (const obs::Json& s : segs->items()) {
    EXPECT_DOUBLE_EQ(num_at(s, {"t0"}), prev_t1);
    prev_t1 = num_at(s, {"t1"});
    sum += num_at(s, {"dur_s"});
  }
  EXPECT_DOUBLE_EQ(prev_t1, num_at(*cp, {"t1"}));
  EXPECT_NEAR(sum, result.io_seconds(), 1e-9);

  // The anchor chain resolved (this run always has complete writers), and
  // the loaded target shows up as external path time.
  EXPECT_TRUE(cp->find("anchor")->find("found")->boolean());
  EXPECT_GT(num_at(*cp, {"totals", "external_s"}) + num_at(*cp, {"totals", "internal_s"}),
            0.0);

  // Aggregate block mirrors the per-run totals (one run here).
  EXPECT_EQ(num_at(report, {"summary", "critical_path", "runs"}), 1.0);
  EXPECT_NEAR(num_at(report, {"summary", "critical_path", "span_s"}), result.io_seconds(),
              1e-9);
  const double shares = num_at(report, {"summary", "critical_path", "mds_share"}) +
                        num_at(report, {"summary", "critical_path", "internal_share"}) +
                        num_at(report, {"summary", "critical_path", "external_share"}) +
                        num_at(report, {"summary", "critical_path", "network_share"}) +
                        num_at(report, {"summary", "critical_path", "residual_share"});
  EXPECT_NEAR(shares, 1.0, 1e-9);
}

TEST(CriticalPathReport, RenderersSurfaceThePathAndTheMdsTier) {
  TwoOstRig rig;
  (void)rig.run();
  const obs::Json report = obs::analyze(rig.journal);

  const std::string text = obs::report_summary(report);
  EXPECT_NE(text.find("critical path:"), std::string::npos);
  EXPECT_NE(text.find("bounded"), std::string::npos);

  const std::string html = obs::report_html(report);
  EXPECT_NE(html.find("id=\"critical-path\""), std::string::npos);
  EXPECT_NE(html.find("href=\"#critical-path\""), std::string::npos);
  // The per-MDS tier table (PR 9's records) linked from the run summary.
  EXPECT_NE(html.find("id=\"mds\""), std::string::npos);
  EXPECT_NE(html.find("href=\"#mds\""), std::string::npos);
  EXPECT_NE(html.find("Metadata tier"), std::string::npos);
}

TEST(CriticalPathReport, RunWithoutWritersDegradesToResidual) {
  // A synthetic journal with run marks but no writer records: the analyzer
  // must still tile [t_open, t_complete], as one residual segment.
  obs::Journal journal({/*path=*/"", /*max_records=*/64});
  const std::uint32_t run = journal.begin_run();
  obs::Record r;
  r.kind = obs::Rec::kRunBegin;
  r.id = run;
  r.t = 0.0;
  journal.append(r);
  r.kind = obs::Rec::kRunMark;
  r.a = static_cast<std::uint8_t>(obs::Mark::kOpenDone);
  r.t = 1.0;
  journal.append(r);
  r.a = static_cast<std::uint8_t>(obs::Mark::kDataDone);
  r.t = 2.0;
  journal.append(r);
  r.a = static_cast<std::uint8_t>(obs::Mark::kComplete);
  r.t = 3.0;
  journal.append(r);

  const obs::Json report = obs::analyze(journal);
  const obs::Json* cp = report.find("runs")->at(0).find("critical_path");
  ASSERT_NE(cp, nullptr);
  EXPECT_FALSE(cp->find("anchor")->find("found")->boolean());
  ASSERT_EQ(cp->find("segments")->size(), 1u);
  EXPECT_EQ(cp->find("segments")->at(0).find("type")->str(), "residual");
  EXPECT_NEAR(num_at(*cp, {"totals", "sum_s"}), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(num_at(*cp, {"totals", "residual_s"}), 2.0);
}

// --- journal -> Chrome-trace converter ---------------------------------------

std::size_t count_events(const obs::Json& trace, const char* ph, const std::string& name,
                         int pid = -1) {
  const std::optional<obs::Json> doc = obs::Json::parse(trace.dump());
  const obs::Json* events = doc ? doc->find("traceEvents") : nullptr;
  if (!events || !events->is_array()) return 0;
  std::size_t n = 0;
  for (const obs::Json& e : events->items()) {
    const obs::Json* p = e.find("ph");
    if (!p || p->str() != ph) continue;
    if (!name.empty()) {
      const obs::Json* nm = e.find("name");
      if (!nm || nm->str() != name) continue;
    }
    if (pid >= 0) {
      const obs::Json* pj = e.find("pid");
      if (!pj || static_cast<int>(pj->number()) != pid) continue;
    }
    ++n;
  }
  return n;
}

TEST(TraceExport, JournalTraceRebuildsWriterAndStorageTracks) {
  TwoOstRig rig;
  (void)rig.run();
  const obs::Json trace = obs::journal_trace(rig.journal);

  // Every writer opens one "write" span and closes it.
  EXPECT_EQ(count_events(trace, "B", "write"), 8u);
  EXPECT_EQ(count_events(trace, "B", ""), count_events(trace, "E", ""));
  // Run-phase instants and per-OST external-load counters are present.
  EXPECT_EQ(count_events(trace, "i", "complete"), 1u);
  EXPECT_GT(count_events(trace, "C", ""), 0u);
  // The document is valid JSON end to end.
  EXPECT_TRUE(obs::Json::parse(trace.dump()).has_value());
}

TEST(TraceExport, ReportTraceAddsTheCriticalPathTrack) {
  TwoOstRig rig;
  (void)rig.run();
  const obs::Json report = obs::analyze(rig.journal);
  const obs::Json trace = obs::report_trace(rig.journal, report);

  // The path track (pid 6) carries one span per segment of the run's path.
  const obs::Json* cp = report.find("runs")->at(0).find("critical_path");
  ASSERT_NE(cp, nullptr);
  const std::size_t n_segs = cp->find("segments")->size();
  ASSERT_GT(n_segs, 0u);
  std::size_t path_spans = 0;
  for (const char* type : {"mds", "internal", "external", "network", "residual"})
    path_spans += count_events(trace, "B", type, static_cast<int>(obs::kPidPath));
  EXPECT_EQ(path_spans, n_segs);
  // And the journal tracks are still there alongside.
  EXPECT_EQ(count_events(trace, "B", "write"), 8u);

  // critical_path_trace alone carries only the path.
  const obs::Json only = obs::critical_path_trace(report);
  EXPECT_EQ(count_events(only, "B", "write"), 0u);
  std::size_t only_spans = 0;
  for (const char* type : {"mds", "internal", "external", "network", "residual"})
    only_spans += count_events(only, "B", type, static_cast<int>(obs::kPidPath));
  EXPECT_EQ(only_spans, n_segs);
}

// Byte-identity goldens: the exporter's output is a frozen format, so any
// rewrite must reproduce it exactly (including the duplicate process_name
// metadata for pids 2-5).

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

TEST(TraceExport, RigExportsMatchGoldenBytes) {
  TwoOstRig rig;
  (void)rig.run();
  const obs::Json report = obs::analyze(rig.journal);
  struct Golden {
    const char* what;
    std::string doc;
    std::size_t bytes;
    std::uint64_t digest;
  };
  const Golden goldens[] = {
      {"journal_trace", obs::journal_trace(rig.journal).dump(), 7453, 0x83f190da27757e7cull},
      {"report_trace", obs::report_trace(rig.journal, report).dump(), 8919,
       0xffbb0047a28feeebull},
      {"critical_path_trace", obs::critical_path_trace(report).dump(), 2014,
       0x5523c59e9a9167b7ull},
  };
  for (const Golden& g : goldens) {
    EXPECT_EQ(g.doc.size(), g.bytes) << g.what;
    EXPECT_EQ(fnv1a(g.doc), g.digest) << g.what << std::hex << " digest 0x" << fnv1a(g.doc);
  }
}

/// A journal holding every record kind once or more, written by hand: both
/// signal flavours, a steal chain, a record of the retired kind 11 (a shard
/// profile, which renders nothing), and writer 1's start with no end (what a
/// crash dump leaves behind).  One MDS op carries an infinite service time,
/// which must render as null.
obs::Journal every_kind_journal() {
  using obs::Rec;
  obs::Journal j({/*path=*/"", /*max_records=*/64});
  const std::uint32_t run = j.begin_run();
  j.append({.t = 0.0, .id = run, .u0 = 2, .u1 = 1, .u2 = 2, .kind = Rec::kRunBegin});
  j.append({.t = 0.0, .id = run, .u0 = 0, .u1 = 1, .kind = Rec::kFileMap});
  j.append({.t = 1.25e-4, .v0 = 1e-4, .id = 0, .u0 = 3, .u1 = 1, .kind = Rec::kMdsOp});
  j.append({.t = 2.5e-4, .id = run, .kind = Rec::kRunMark, .a = 0});
  j.append({.t = 0.5, .id = 0, .u0 = 0, .u1 = 0, .kind = Rec::kWriterSignal});
  j.append({.t = 0.5, .v0 = 4e6, .id = 0, .u0 = 0, .kind = Rec::kWriterStart});
  j.append({.t = 0.5, .v0 = 0.75, .v1 = 0.8, .v2 = 0.25, .id = 1, .u0 = 1,
            .kind = Rec::kOstState});
  j.append({.t = 1.0000003, .v0 = HUGE_VAL, .id = 1, .u0 = 4294967295u,
            .kind = Rec::kMdsOp});
  j.append({.t = 1.25, .v0 = 2e6, .v1 = 3.0, .id = 7, .u0 = 1, .u1 = 0,
            .kind = Rec::kStealGrant});
  j.append({.t = 1.5, .id = 1, .u0 = 0, .u1 = 1, .u2 = 7, .kind = Rec::kWriterSignal, .a = 1});
  j.append({.t = 1.5, .v0 = 2e6, .id = 1, .u0 = 0, .kind = Rec::kWriterStart});
  j.append({.t = 2.0, .id = 0, .u0 = 0, .kind = Rec::kWriterEnd});
  j.append({.t = 2.5, .v0 = 2e6, .id = 7, .u0 = 1, .u1 = 0, .u2 = 1,
            .kind = Rec::kStealComplete});
  j.append({.t = 2.5, .id = run, .kind = Rec::kRunMark, .a = 1});
  j.append({.t = 2.75, .v0 = 1.0, .v1 = 1.0, .id = run, .kind = Rec::kRunMark, .a = 2});
  j.append({.t = 2.75, .v0 = 0.125, .v1 = 0.0625, .v2 = 0.03125, .id = 0, .u0 = 42, .u1 = 5,
            .u2 = 5, .kind = static_cast<Rec>(11), .a = 1});
  return j;
}

TEST(TraceExport, EveryRecordKindMatchesGoldenDump) {
  // kFileMap and kind 11 render nothing; writer 1's span stays open.
  const std::string expected =
      R"({"traceEvents":[{"ph":"M","pid":1,"tid":0,"ts":0,"name":"process_name","args":{"name":"des engine"}},)"
      R"({"ph":"M","pid":2,"tid":0,"ts":0,"name":"process_name","args":{"name":"adaptive protocol"}},)"
      R"({"ph":"M","pid":3,"tid":0,"ts":0,"name":"process_name","args":{"name":"storage targets"}},)"
      R"({"ph":"M","pid":4,"tid":0,"ts":0,"name":"process_name","args":{"name":"metadata server"}},)"
      R"({"ph":"M","pid":5,"tid":0,"ts":0,"name":"process_name","args":{"name":"thread runtime"}},)"
      R"({"ph":"M","pid":2,"tid":0,"ts":0,"name":"process_name","args":{"name":"protocol"}},)"
      R"({"ph":"M","pid":3,"tid":0,"ts":0,"name":"process_name","args":{"name":"storage"}},)"
      R"({"ph":"M","pid":4,"tid":0,"ts":0,"name":"process_name","args":{"name":"mds"}},)"
      R"({"ph":"M","pid":5,"tid":0,"ts":0,"name":"process_name","args":{"name":"runtime"}},)"
      R"({"ph":"i","pid":2,"tid":0,"ts":0,"name":"run 1","cat":"protocol","s":"t","args":{"writers":2,"files":1,"osts":2}},)"
      R"({"ph":"i","pid":4,"tid":0,"ts":125,"name":"op","cat":"mds","s":"t","args":{"service_s":1e-04,"backlog":3,"batched":1}},)"
      R"({"ph":"i","pid":2,"tid":0,"ts":250,"name":"open-done","cat":"protocol","s":"t"},)"
      R"({"ph":"i","pid":2,"tid":1,"ts":500000,"name":"signal","cat":"protocol","s":"t","args":{"target":0,"origin":0}},)"
      R"({"ph":"B","pid":2,"tid":1,"ts":500000,"name":"write","cat":"protocol","args":{"file":0,"bytes":4000000}},)"
      R"({"ph":"C","pid":3,"tid":0,"ts":500000,"name":"ost1 ext","cat":"storage","args":{"value":0.8}},)"
      R"({"ph":"i","pid":4,"tid":1,"ts":1000000.2999999999,"name":"op","cat":"mds","s":"t","args":{"service_s":null,"backlog":4294967295,"batched":0}},)"
      R"({"ph":"i","pid":2,"tid":0,"ts":1250000,"name":"steal-grant 7","cat":"protocol","s":"t","args":{"source":1,"file":0,"queue_depth":3}},)"
      R"j({"ph":"i","pid":2,"tid":2,"ts":1500000,"name":"signal (adaptive)","cat":"protocol","s":"t","args":{"target":0,"origin":1}},)j"
      R"({"ph":"B","pid":2,"tid":2,"ts":1500000,"name":"write","cat":"protocol","args":{"file":0,"bytes":2000000}},)"
      R"({"ph":"E","pid":2,"tid":1,"ts":2000000,"cat":"protocol"},)"
      R"({"ph":"i","pid":2,"tid":0,"ts":2500000,"name":"steal-complete 7","cat":"protocol","s":"t","args":{"writer":1,"bytes":2000000}},)"
      R"({"ph":"i","pid":2,"tid":0,"ts":2500000,"name":"data-done","cat":"protocol","s":"t"},)"
      R"({"ph":"i","pid":2,"tid":0,"ts":2750000,"name":"complete","cat":"protocol","s":"t"}],)"
      R"("displayTimeUnit":"ms","otherData":{"dropped":0,"events":14,"categories":4294967295}})";
  EXPECT_EQ(obs::journal_trace(every_kind_journal()).dump(), expected);
}

// --- the text writer against the object-per-event reference -----------------

/// All three exports of (journal, report), each byte for byte against the
/// reference builder's document for the same inputs.
void expect_reference_bytes(const obs::Journal& journal, const obs::Json& report) {
  EXPECT_EQ(obs::journal_trace(journal).dump(),
            obs::testing::trace_reference(&journal, nullptr).dump());
  EXPECT_EQ(obs::critical_path_trace(report).dump(),
            obs::testing::trace_reference(nullptr, &report).dump());
  EXPECT_EQ(obs::report_trace(journal, report).dump(),
            obs::testing::trace_reference(&journal, &report).dump());
}

TEST(TraceReference, RigExportsMatchTheObjectBuilder) {
  TwoOstRig rig;
  (void)rig.run();
  expect_reference_bytes(rig.journal, obs::analyze(rig.journal));
}

TEST(TraceReference, EveryRecordKindMatchesTheObjectBuilder) {
  const obs::Journal journal = every_kind_journal();
  expect_reference_bytes(journal, obs::analyze(journal));
}

// Hand-built reports: segment types that need escaping (quote, backslash,
// control characters, multi-byte UTF-8), and runs, critical_path blocks and
// segments of every wrong shape, which the exporter skips or renders with
// empty names and zero times exactly as the reference does.
TEST(TraceReference, MalformedReportsMatchTheObjectBuilder) {
  const char* const reports[] = {
      R"({"runs":[
        {"critical_path":{"segments":[
          {"type":"quote \" backslash \\ newline \n tab \t ctl \u0001\u001f \u00e9 é","t0":0.5,"t1":0.75},
          {"type":7,"t0":"0.5","t1":null},
          {"type":"no t1","t0":1},
          3, null, [], "segment",
          {"type":"","t0":-1e308,"t1":1e308},
          {"t0":1,"t1":2},
          {"type":{"nested":true},"t0":[1],"t1":{}}
        ]}},
        5,
        {"critical_path":{"segments":"not an array"}},
        {"critical_path":1},
        {"critical_path":{}},
        {"critical_path":null},
        {},
        {"critical_path":{"segments":[{"type":"mds","t0":0,"t1":1e-7}]}}
      ]})",
      R"({"runs":{"critical_path":{"segments":[]}}})",
      R"({"runs":[]})",
      R"([{"runs":[]}])",
      "null",
  };
  const obs::Journal journal = every_kind_journal();
  for (const char* text : reports) {
    SCOPED_TRACE(text);
    const std::optional<obs::Json> report = obs::Json::parse(text);
    ASSERT_TRUE(report.has_value());
    expect_reference_bytes(journal, *report);
  }
}

}  // namespace
