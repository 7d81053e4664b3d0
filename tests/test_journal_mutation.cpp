// Seeded journal-mutation test: the journal of a small adaptive run under
// external load is corrupted five ways — bit flips, NaN/±Inf/1e308 written
// into every double field of every record kind, duplicated records, swapped
// records, and truncation mid-record — and every mutant is pushed through
// the whole offline pipeline: Journal::write → Journal::load →
// merge_records → analyze → report_trace → diff_reports against the clean
// report.  No mutant may throw, and a load never yields more records than
// the file holds.  The seed is fixed, so a failure names a reproducible
// mutant.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/transports/adaptive_transport.hpp"
#include "fs/filesystem.hpp"
#include "net/network.hpp"
#include "obs/analysis.hpp"
#include "obs/journal.hpp"
#include "obs/trace_export.hpp"
#include "sim/engine.hpp"

namespace {

using namespace aio;

constexpr std::uint64_t kSeed = 20100913;

/// Two adaptive runs of 16 writers on 4 targets; two targets carry external
/// load that changes mid-run, so the journal holds steal chains, MDS
/// service and OST load transitions next to the writer lifecycle.  One
/// profiler record is appended so every record kind is present.
obs::Journal loaded_run_journal() {
  obs::Journal journal({/*path=*/"", /*max_records=*/1u << 20});
  sim::Engine engine(nullptr, &journal);
  fs::FsConfig fc;
  fc.n_osts = 4;
  fc.fabric_bw = 0.0;
  fc.stripe_limit = 4;
  fc.default_stripe_size = 1e6;
  fc.ost.ingest_bw = 100e6;
  fc.ost.disk_bw = 10e6;
  fc.ost.cache_bytes = 20e6;
  fc.mds.open_base_s = 1e-4;
  fc.mds.close_base_s = 1e-4;
  fs::FileSystem filesystem(engine, fc);
  net::Network network(engine, net::NetConfig{1e-6, 10e9, 8}, 64);
  filesystem.ost(0).set_load(0.8, 0.7);
  filesystem.ost(2).set_load(0.3, 0.5);
  engine.schedule_daemon_after(0.5, [&] { filesystem.ost(2).set_load(0.6, 0.2); });

  core::AdaptiveTransport::Config ac;
  ac.n_files = 4;
  ac.open_mode = core::AdaptiveTransport::Config::OpenMode::Storm;
  core::AdaptiveTransport transport(filesystem, network, ac);
  for (int run = 0; run < 2; ++run) {
    bool done = false;
    transport.run(core::IoJob::uniform(16, 4e6), [&](const core::IoResult&) { done = true; });
    engine.run();
    EXPECT_TRUE(done);
    // A compute phase between the outputs, as the benches run them: the
    // canonical merge orders same-time records by kind, so a run beginning
    // at the instant the previous one completed would take over its marks.
    engine.run_until(engine.now() + 1.0);
  }
  obs::Record prof;
  prof.kind = obs::Rec::kProfShard;
  prof.t = engine.now();
  prof.v0 = 0.5;
  prof.v1 = 0.25;
  prof.v2 = 0.125;
  prof.u0 = 1000;
  prof.a = 1;
  journal.append(prof);
  return journal;
}

std::vector<char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

obs::Journal journal_of(const std::vector<obs::Record>& records) {
  obs::Journal j({/*path=*/"", /*max_records=*/records.size() + 1});
  for (const obs::Record& r : records) j.append(r);
  return j;
}

class JournalMutation : public testing::Test {
 protected:
  void SetUp() override {
    clean_ = loaded_run_journal();
    ASSERT_GT(clean_->runs(), 1u);
    clean_report_ = obs::analyze(*clean_);
    // One file per test: CTest runs the cases in parallel.
    path_ = testing::TempDir() + "aio_journal_mutant_" +
            testing::UnitTest::GetInstance()->current_test_info()->name() + ".bin";
    // The header is whatever an empty journal writes.
    ASSERT_TRUE(obs::Journal({}).write(path_));
    header_bytes_ = std::filesystem::file_size(path_);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  const std::vector<obs::Record>& records() const { return clean_->records(); }

  /// The file as Journal::write lays out the clean records.
  std::vector<char> clean_bytes() {
    EXPECT_TRUE(clean_->write(path_));
    return read_file(path_);
  }

  /// Loads the mutant at path_ and runs the offline pipeline over it.
  void check(const std::string& what) {
    SCOPED_TRACE(what);
    const std::uintmax_t size = std::filesystem::file_size(path_);
    const std::uintmax_t held =
        size >= header_bytes_ ? (size - header_bytes_) / sizeof(obs::Record) : 0;
    EXPECT_NO_THROW({
      const std::optional<obs::Journal> loaded = obs::Journal::load(path_);
      if (loaded) {
        EXPECT_LE(loaded->records().size(), held);
        const obs::Journal merged = journal_of(obs::merge_records({&*loaded}));
        const obs::Json report = obs::analyze(merged);
        const obs::Json trace = obs::report_trace(merged, report);
        EXPECT_FALSE(trace.dump().empty());
        (void)obs::diff_reports(clean_report_, report);
      }
    });
  }

  void check_records(const std::vector<obs::Record>& mutant, const std::string& what) {
    ASSERT_TRUE(journal_of(mutant).write(path_));
    check(what);
  }

  std::optional<obs::Journal> clean_;
  obs::Json clean_report_;
  std::string path_;
  std::uintmax_t header_bytes_ = 0;
  std::mt19937_64 rng_{kSeed};
};

TEST_F(JournalMutation, CleanJournalRoundTripsToTheSameReport) {
  ASSERT_TRUE(clean_->write(path_));
  const std::optional<obs::Journal> loaded = obs::Journal::load(path_);
  ASSERT_TRUE(loaded.has_value());
  const obs::Json report = obs::analyze(journal_of(obs::merge_records({&*loaded})));
  EXPECT_EQ(obs::diff_reports(clean_report_, report), std::vector<std::string>{});
}

TEST_F(JournalMutation, BitFlipsAnywhereInTheFile) {
  const std::vector<char> clean = clean_bytes();
  std::uniform_int_distribution<std::size_t> byte(0, clean.size() - 1);
  std::uniform_int_distribution<int> bit(0, 7), flips(1, 8);
  for (int m = 0; m < 80; ++m) {
    std::vector<char> bytes = clean;
    for (int f = flips(rng_); f > 0; --f)
      bytes[byte(rng_)] ^= static_cast<char>(1 << bit(rng_));
    write_file(path_, bytes);
    check("bit-flip mutant " + std::to_string(m));
  }
}

TEST_F(JournalMutation, PoisonedDoubleFieldsOfEveryRecordKind) {
  const double poisons[] = {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity(), 1e308};
  double obs::Record::*const fields[] = {&obs::Record::t, &obs::Record::v0, &obs::Record::v1,
                                         &obs::Record::v2};
  std::size_t kinds = 0;
  for (auto k = static_cast<std::uint8_t>(obs::Rec::kRunBegin);
       k <= static_cast<std::uint8_t>(obs::Rec::kProfShard); ++k) {
    std::vector<std::size_t> of_kind;
    for (std::size_t i = 0; i < records().size(); ++i)
      if (static_cast<std::uint8_t>(records()[i].kind) == k) of_kind.push_back(i);
    ASSERT_FALSE(of_kind.empty()) << "record kind " << int{k} << " missing from the journal";
    ++kinds;
    std::uniform_int_distribution<std::size_t> pick(0, of_kind.size() - 1);
    for (std::size_t f = 0; f < std::size(fields); ++f) {
      for (const double poison : poisons) {
        std::vector<obs::Record> mutant = records();
        mutant[of_kind[pick(rng_)]].*fields[f] = poison;
        check_records(mutant, "kind " + std::to_string(k) + " field " + std::to_string(f) +
                                  " = " + std::to_string(poison));
      }
    }
  }
  EXPECT_EQ(kinds, 11u);
}

TEST_F(JournalMutation, DuplicatedRecords) {
  std::uniform_int_distribution<std::size_t> pick(0, records().size() - 1);
  for (int m = 0; m < 20; ++m) {
    std::vector<obs::Record> mutant = records();
    const std::size_t i = pick(rng_);
    mutant.insert(mutant.begin() + static_cast<std::ptrdiff_t>(pick(rng_)), records()[i]);
    check_records(mutant, "duplicate of record " + std::to_string(i));
  }
}

TEST_F(JournalMutation, SwappedRecords) {
  std::uniform_int_distribution<std::size_t> pick(0, records().size() - 1);
  for (int m = 0; m < 20; ++m) {
    std::vector<obs::Record> mutant = records();
    const std::size_t i = pick(rng_), j = pick(rng_);
    std::swap(mutant[i], mutant[j]);
    check_records(mutant, "swap of records " + std::to_string(i) + ", " + std::to_string(j));
  }
}

TEST_F(JournalMutation, TruncationMidRecord) {
  const std::vector<char> clean = clean_bytes();
  std::uniform_int_distribution<std::size_t> record(0, records().size() - 1);
  std::uniform_int_distribution<std::size_t> within(1, sizeof(obs::Record) - 1);
  const auto prefix = [&](std::size_t n) {
    return std::vector<char>(clean.begin(), clean.begin() + static_cast<std::ptrdiff_t>(n));
  };
  for (int m = 0; m < 20; ++m) {
    const std::size_t cut = header_bytes_ + record(rng_) * sizeof(obs::Record) + within(rng_);
    write_file(path_, prefix(cut));
    check("cut at byte " + std::to_string(cut));
  }
  // Inside the header, too.
  write_file(path_, prefix(header_bytes_ / 2));
  check("cut inside the header");
}

}  // namespace
