// Tests for the ADIOS-like public API (groups, write sets, Simulation).
#include "core/api/adios.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/analysis.hpp"
#include "obs/journal.hpp"
#include "obs/trace_export.hpp"

namespace {

using namespace aio;
using api::IoGroup;
using api::Method;
using api::Simulation;
using api::Type;
using api::WriteSet;

fs::MachineSpec tiny_machine() {
  fs::MachineSpec m = fs::xtp();
  m.fs.n_osts = 8;
  m.fs.fabric_bw = 0.0;
  m.fs.stripe_limit = 4;
  m.nodes = 16;
  m.cores_per_node = 4;
  return m;
}

TEST(IoGroup, DefinesAndFindsVars) {
  IoGroup g("restart");
  const auto v0 = g.define_var("rho", Type::Double, {64, 64, 64});
  const auto v1 = g.define_scalar("step", Type::Int32);
  EXPECT_EQ(g.n_vars(), 2u);
  EXPECT_EQ(g.var(v0).name, "rho");
  EXPECT_EQ(g.var(v1).global_dims.size(), 0u);
  EXPECT_EQ(g.find("rho"), v0);
  EXPECT_FALSE(g.find("missing").has_value());
}

TEST(TypeSize, AllTypes) {
  EXPECT_EQ(api::type_size(Type::Double), 8u);
  EXPECT_EQ(api::type_size(Type::Float), 4u);
  EXPECT_EQ(api::type_size(Type::Int64), 8u);
  EXPECT_EQ(api::type_size(Type::Int32), 4u);
  EXPECT_EQ(api::type_size(Type::Byte), 1u);
}

TEST(WriteSetTest, ComputesBytesFromBlockShape) {
  IoGroup g("g");
  const auto v = g.define_var("a", Type::Double, {100, 100});
  WriteSet ws(g);
  ws.put(v, {0, 0}, {10, 20});
  EXPECT_DOUBLE_EQ(ws.total_bytes(), 10 * 20 * 8.0);
  EXPECT_EQ(ws.n_blocks(), 1u);
}

TEST(WriteSetTest, RejectsOutOfBoundsAndWrongDims) {
  IoGroup g("g");
  const auto v = g.define_var("a", Type::Double, {100, 100});
  WriteSet ws(g);
  EXPECT_THROW(ws.put(v, {95, 0}, {10, 10}), std::invalid_argument);
  EXPECT_THROW(ws.put(v, {0}, {10}), std::invalid_argument);
}

TEST(WriteSetTest, BlueprintCarriesCharacteristics) {
  IoGroup g("g");
  const auto v = g.define_var("a", Type::Double, {4});
  WriteSet ws(g);
  const std::vector<double> data{1.0, -2.0, 3.0, 0.5};
  ws.put(v, {0}, {4}, data);
  const core::LocalIndex idx = ws.blueprint(7);
  ASSERT_EQ(idx.blocks.size(), 1u);
  EXPECT_EQ(idx.writer, 7);
  EXPECT_DOUBLE_EQ(idx.blocks[0].ch.min, -2.0);
  EXPECT_DOUBLE_EQ(idx.blocks[0].ch.max, 3.0);
  EXPECT_EQ(idx.blocks[0].length, 32u);
}

TEST(WriteSetTest, ScalarPut) {
  IoGroup g("g");
  const auto v = g.define_scalar("time", Type::Double);
  const auto arr = g.define_var("a", Type::Double, {10});
  WriteSet ws(g);
  ws.put_scalar(v, 3.5);
  EXPECT_DOUBLE_EQ(ws.total_bytes(), 8.0);
  EXPECT_THROW(ws.put_scalar(arr, 1.0), std::invalid_argument);
}

TEST(SimulationTest, RunsAllThreeMethods) {
  IoGroup g("restart");
  const auto v = g.define_var("zion", Type::Double, {1u << 20});
  Simulation::Options opts;
  opts.background_load = false;
  Simulation sim(tiny_machine(), /*seed=*/3, opts);

  const auto contribution = [&](core::Rank r) {
    WriteSet ws(g);
    ws.put(v, {static_cast<std::uint64_t>(r) * 1024}, {1024});
    return ws;
  };
  for (const Method m : {Method::Posix, Method::MpiIo, Method::Adaptive}) {
    const core::IoResult r = sim.write_step(g, m, 16, contribution);
    EXPECT_DOUBLE_EQ(r.total_bytes, 16 * 1024 * 8.0) << api::method_name(m);
    EXPECT_GT(r.io_seconds(), 0.0);
    EXPECT_EQ(r.transport, api::method_name(m));
  }
}

// write_step declares each rank's index size from the blueprint of its
// contribution, so ranks that put different numbers and shapes of blocks
// are sized exactly: the kept index builds (the build checks the bytes the
// writers streamed) and holds every block.
TEST(SimulationTest, UnevenContributionsIndexEveryBlock) {
  IoGroup g("mixed");
  const auto step = g.define_scalar("step", Type::Int32);
  const auto time = g.define_scalar("time", Type::Double);
  const auto line = g.define_var("line", Type::Double, {16 * 64});
  const auto cube = g.define_var("cube", Type::Float, {16 * 4, 4, 4});
  // Rank r puts r % 3 scalars, one 1-d block (two halves on odd ranks) and,
  // on every fourth rank, a 3-d block.
  const auto blocks_of = [](std::uint64_t r) {
    return r % 3 + (r % 2 == 1 ? 2 : 1) + (r % 4 == 0 ? 1 : 0);
  };
  const auto contribution = [&](core::Rank r) {
    const auto rank = static_cast<std::uint64_t>(r);
    WriteSet ws(g);
    if (rank % 3 >= 1) ws.put_scalar(step, 1.0);
    if (rank % 3 >= 2) ws.put_scalar(time, 0.5);
    if (rank % 2 == 1) {
      ws.put(line, {rank * 64}, {32});
      ws.put(line, {rank * 64 + 32}, {32});
    } else {
      ws.put(line, {rank * 64}, {64});
    }
    if (rank % 4 == 0) ws.put(cube, {rank * 4, 0, 0}, {4, 4, 4});
    return ws;
  };
  std::size_t expected = 0;
  for (std::uint64_t r = 0; r < 16; ++r) expected += blocks_of(r);

  Simulation sim(tiny_machine(), /*seed=*/5, Simulation::Options{.background_load = false});
  const core::IoResult r = sim.write_step(g, Method::Adaptive, 16, contribution);
  EXPECT_EQ(r.total_blocks_indexed, expected);
  ASSERT_NE(r.kept_index, nullptr);
  EXPECT_EQ(r.kept_index->build().total_blocks(), expected);
}

TEST(SimulationTest, AdvanceMovesClock) {
  Simulation sim(tiny_machine(), 1, Simulation::Options{.background_load = false});
  const double t0 = sim.engine().now();
  sim.advance(120.0);
  EXPECT_DOUBLE_EQ(sim.engine().now(), t0 + 120.0);
}

TEST(SimulationTest, InterferenceJobSlowsTheStep) {
  IoGroup g("out");
  const auto v = g.define_var("x", Type::Byte, {1u << 30});
  const auto contribution = [&](core::Rank r) {
    WriteSet ws(g);
    ws.put(v, {static_cast<std::uint64_t>(r) * (4u << 20)}, {4u << 20});
    return ws;
  };
  auto io_time = [&](bool interference) {
    Simulation::Options opts;
    opts.background_load = false;
    opts.interference_job = interference;
    Simulation sim(tiny_machine(), 5, opts);
    return sim.write_step(g, Method::Adaptive, 16, contribution).io_seconds();
  };
  EXPECT_GT(io_time(true), 1.2 * io_time(false));
}

TEST(SimulationTest, TooManyWritersThrows) {
  Simulation sim(tiny_machine(), 1, Simulation::Options{.background_load = false});
  IoGroup g("g");
  g.define_scalar("s", Type::Double);
  EXPECT_THROW(sim.write_step(g, Method::Posix, 100000, [&](core::Rank) { return WriteSet(g); }),
               std::invalid_argument);
}

TEST(SimulationTest, ReportAndJournalShareTheMachineNumber) {
  // Two live Simulations destroyed in reverse construction order: each
  // report must analyze the journal written under the same number
  // (report.2 <-> journal.2), not whichever machine flushed first.
  namespace fsys = std::filesystem;
  const fsys::path dir = fsys::path(testing::TempDir()) / "aio_sim_numbering";
  fsys::remove_all(dir);
  fsys::create_directories(dir);
  ::setenv("AIO_JOURNAL", (dir / "journal").c_str(), 1);
  ::setenv("AIO_REPORT", (dir / "report").c_str(), 1);
  {
    IoGroup g("out");
    const auto v = g.define_var("x", Type::Double, {1u << 20});
    const auto contribution = [&](core::Rank r) {
      WriteSet ws(g);
      ws.put(v, {static_cast<std::uint64_t>(r) * 1024}, {1024});
      return ws;
    };
    Simulation first(tiny_machine(), 1, Simulation::Options{.background_load = false});
    Simulation second(tiny_machine(), 2, Simulation::Options{.background_load = false});
    first.write_step(g, Method::Adaptive, 8, contribution);
    second.write_step(g, Method::Adaptive, 16, contribution);
  }  // `second` flushes first
  ::unsetenv("AIO_JOURNAL");
  ::unsetenv("AIO_REPORT");

  // Suffix ("" or ".N") -> file contents, per sink.
  std::map<std::string, std::string> journals, reports;
  for (const auto& entry : fsys::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    std::ifstream in(entry.path());
    std::stringstream body;
    body << in.rdbuf();
    if (name.rfind("journal", 0) == 0) journals[name.substr(7)] = entry.path().string();
    if (name.rfind("report", 0) == 0) reports[name.substr(6)] = body.str();
  }
  ASSERT_EQ(journals.size(), 2u);
  ASSERT_EQ(reports.size(), 2u);
  for (const auto& [suffix, path] : journals) {
    const std::optional<obs::Journal> journal = obs::Journal::load(path);
    ASSERT_TRUE(journal.has_value()) << path;
    ASSERT_EQ(reports.count(suffix), 1u) << "no report" << suffix;
    const obs::Json report = obs::analyze(*journal);
    EXPECT_EQ(reports[suffix], report.dump() + "\n") << "report" << suffix
                                                     << " does not analyze journal" << suffix;
  }
  fsys::remove_all(dir);
}

TEST(SimulationTest, TraceIsTheReportTraceOfItsJournal) {
  // AIO_TRACE renders the run journal at teardown: the file must be, byte
  // for byte, what `aio_report <journal> --trace` writes for that journal.
  namespace fsys = std::filesystem;
  const fsys::path dir = fsys::path(testing::TempDir()) / "aio_sim_trace";
  fsys::remove_all(dir);
  fsys::create_directories(dir);
  ::setenv("AIO_JOURNAL", (dir / "journal").c_str(), 1);
  ::setenv("AIO_TRACE", (dir / "trace").c_str(), 1);
  {
    IoGroup g("out");
    const auto v = g.define_var("x", Type::Double, {1u << 20});
    Simulation sim(tiny_machine(), 4, Simulation::Options{.background_load = false});
    const core::IoResult r = sim.write_step(g, Method::Adaptive, 16, [&](core::Rank rank) {
      WriteSet ws(g);
      ws.put(v, {static_cast<std::uint64_t>(rank) * 1024}, {1024});
      return ws;
    });
    EXPECT_GT(r.io_seconds(), 0.0);
  }
  ::unsetenv("AIO_JOURNAL");
  ::unsetenv("AIO_TRACE");

  // One machine, so one file per sink; its number depends on how many
  // Simulations this process built before, so match by prefix.
  std::string journal_path, trace;
  for (const auto& entry : fsys::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("journal", 0) == 0) journal_path = entry.path().string();
    if (name.rfind("trace", 0) == 0) {
      std::ifstream in(entry.path(), std::ios::binary);
      std::stringstream body;
      body << in.rdbuf();
      trace = body.str();
    }
  }
  ASSERT_FALSE(journal_path.empty());
  const std::optional<obs::Journal> journal = obs::Journal::load(journal_path);
  ASSERT_TRUE(journal.has_value());
  ASSERT_GT(journal->records().size(), 0u);
  EXPECT_EQ(trace, obs::report_trace(*journal, obs::analyze(*journal)).dump() + "\n");
  fsys::remove_all(dir);
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream body;
  body << in.rdbuf();
  return body.str();
}

TEST(SimulationTest, WatchdogSetAfterACleanRunTripsAndNamesItsTrace) {
  // The step cap is read per run: a cap set after an earlier clean run in
  // the same process still bounds the next one, and the failure names the
  // watchdog, the cap and the numbered trace file it left behind.
  namespace fsys = std::filesystem;
  const fsys::path dir = fsys::path(testing::TempDir()) / "aio_sim_watchdog";
  fsys::remove_all(dir);
  fsys::create_directories(dir);
  IoGroup g("out");
  const auto v = g.define_var("x", Type::Double, {1u << 20});
  const auto contribution = [&](core::Rank r) {
    WriteSet ws(g);
    ws.put(v, {static_cast<std::uint64_t>(r) * 1024}, {1024});
    return ws;
  };
  std::size_t clean_steps = 0;
  {
    Simulation sim(tiny_machine(), 6, Simulation::Options{.background_load = false});
    sim.write_step(g, Method::Adaptive, 16, contribution);
    clean_steps = sim.engine().steps();
  }
  ASSERT_GT(clean_steps, 50u);

  ::setenv("AIO_BENCH_MAX_STEPS", "50", 1);
  ::setenv("AIO_TRACE", (dir / "trace.json").c_str(), 1);
  std::string what;
  {
    Simulation sim(tiny_machine(), 6,
                   Simulation::Options{.background_load = false, .slot = 2});
    try {
      sim.write_step(g, Method::Adaptive, 16, contribution);
    } catch (const std::runtime_error& e) {
      what = e.what();
    }
  }
  ::unsetenv("AIO_BENCH_MAX_STEPS");
  ::unsetenv("AIO_TRACE");

  const fsys::path trace = dir / "trace.json.3";  // slot 2
  EXPECT_NE(what.find("Adaptive: engine watchdog tripped after 50 steps (AIO_BENCH_MAX_STEPS)"),
            std::string::npos)
      << what;
  EXPECT_NE(what.find("; trace dumped to " + trace.string()), std::string::npos) << what;
  const std::optional<obs::Json> doc = obs::Json::parse(read_file(trace));
  ASSERT_TRUE(doc.has_value()) << trace;
  const obs::Json* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_GT(events->size(), 0u);
  fsys::remove_all(dir);
}

TEST(SimulationTest, MdsCountAndMetricsFileApplyToEveryMachine) {
  // AIO_MDS_COUNT widens the metadata tier, and AIO_METRICS arms the
  // sampler and leaves the registry (its series and the application's own
  // counters) in a file at teardown.
  namespace fsys = std::filesystem;
  const fsys::path dir = fsys::path(testing::TempDir()) / "aio_sim_metrics";
  fsys::remove_all(dir);
  fsys::create_directories(dir);
  ::setenv("AIO_MDS_COUNT", "4", 1);
  ::setenv("AIO_METRICS", (dir / "metrics.json").c_str(), 1);
  {
    Simulation sim(tiny_machine(), 7,
                   Simulation::Options{.background_load = false, .slot = 0});
    EXPECT_EQ(sim.file_system().mds_group().count(), 4u);
    sim.metrics().counter("app.steps").add();
    sim.advance(3.0);
  }
  ::unsetenv("AIO_MDS_COUNT");
  ::unsetenv("AIO_METRICS");

  const std::optional<obs::Json> doc = obs::Json::parse(read_file(dir / "metrics.json"));
  ASSERT_TRUE(doc.has_value());
  const obs::Json* series = doc->find("series");
  ASSERT_NE(series, nullptr);
  for (const char* name : {"ost0.cache_occupancy", "fs.drain_bw"}) {
    const obs::Json* points = series->find(name);
    ASSERT_NE(points, nullptr) << name;
    EXPECT_EQ(points->size(), 3u) << name;  // one sample per simulated second
  }
  const obs::Json* counters = doc->find("counters");
  ASSERT_NE(counters, nullptr);
  const obs::Json* steps = counters->find("app.steps");
  ASSERT_NE(steps, nullptr);
  EXPECT_EQ(steps->number(), 1.0);
  fsys::remove_all(dir);
}

TEST(SimulationTest, MethodNameStrings) {
  EXPECT_STREQ(api::method_name(Method::Posix), "POSIX");
  EXPECT_STREQ(api::method_name(Method::MpiIo), "MPI-IO");
  EXPECT_STREQ(api::method_name(Method::Adaptive), "Adaptive");
}

}  // namespace
