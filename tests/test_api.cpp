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

TEST(SimulationTest, MethodNameStrings) {
  EXPECT_STREQ(api::method_name(Method::Posix), "POSIX");
  EXPECT_STREQ(api::method_name(Method::MpiIo), "MPI-IO");
  EXPECT_STREQ(api::method_name(Method::Adaptive), "Adaptive");
}

}  // namespace
