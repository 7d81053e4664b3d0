#include "runtime/thread_runtime.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <exception>
#include <fstream>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <thread>

#include "core/protocol/roles.hpp"

namespace aio::runtime {

namespace {

using namespace aio::core;

/// A shutdown-capable blocking mailbox.
class Mailbox {
 public:
  void push(Message msg) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(msg));
    }
    cv_.notify_one();
  }

  void shutdown() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    cv_.notify_one();
  }

  /// Blocks until a message or shutdown; nullopt means shutdown.
  std::optional<Message> pop() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
    if (!queue_.empty()) {
      Message m = std::move(queue_.front());
      queue_.pop_front();
      return m;
    }
    return std::nullopt;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Message> queue_;
  bool shutdown_ = false;
};

/// One output file, open for positional writes from any thread.
class DataFile {
 public:
  explicit DataFile(const std::filesystem::path& path) : path_(path) {
    stream_.open(path, std::ios::binary | std::ios::out | std::ios::trunc);
    if (!stream_) throw std::runtime_error("cannot create " + path.string());
  }

  void pwrite(std::uint64_t offset, const std::uint8_t* data, std::size_t size) {
    const std::lock_guard<std::mutex> lock(mu_);
    stream_.seekp(static_cast<std::streamoff>(offset));
    stream_.write(reinterpret_cast<const char*>(data), static_cast<std::streamsize>(size));
    if (!stream_) throw std::runtime_error("write failed on " + path_.string());
  }

  void close() {
    const std::lock_guard<std::mutex> lock(mu_);
    stream_.flush();
    stream_.close();
  }

  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
  std::ofstream stream_;
  std::mutex mu_;
};

struct SharedState {
  ThreadRunConfig cfg;
  /// Shared by every rank thread: rank r's messages and writes run only on
  /// thread r, which therefore touches only r's roles.
  Roles roles;
  Blueprint blueprint;  ///< the job's, for the SC threads' file-index builds
  GlobalIndex global_index;  ///< built by thread 0 at the master-file write
  std::vector<std::unique_ptr<Mailbox>> mailboxes;
  std::vector<std::unique_ptr<DataFile>> files;  // one per group
  std::atomic<std::size_t> roles_remaining;
  std::atomic<double> total_bytes{0.0};
  std::mutex error_mu;
  std::exception_ptr error;  ///< first exception a rank thread threw

  SharedState(const IoJob& job, Topology topo, ThreadRunConfig c)
      : cfg(std::move(c)),
        roles(topo, job,
              Roles::Config{.max_concurrent = cfg.max_concurrent, .stealing = cfg.stealing}),
        blueprint([&job](Rank r) { return job.blueprint_for(r); }),
        roles_remaining(roles.count()) {}

  void send(Rank to, Message msg) { mailboxes[static_cast<std::size_t>(to)]->push(std::move(msg)); }

  void shutdown() {
    for (auto& mb : mailboxes) mb->shutdown();
  }

  void role_done() {
    if (roles_remaining.fetch_sub(1) == 1) shutdown();
  }

  /// Keeps the first error and stops the run: every rank drains its mailbox
  /// and exits.
  void fail(std::exception_ptr e) {
    {
      const std::lock_guard<std::mutex> lock(error_mu);
      if (!error) error = std::move(e);
    }
    shutdown();
  }
};

void append_footer(DataFile& file, std::uint64_t index_offset, std::uint64_t index_size) {
  std::uint8_t buf[24];
  const FileFooter footer{index_offset, index_size, FileFooter::kMagic};
  std::memcpy(buf, &footer.index_offset, 8);
  std::memcpy(buf + 8, &footer.index_size, 8);
  std::memcpy(buf + 16, &footer.magic, 8);
  file.pwrite(index_offset + index_size, buf, sizeof buf);
}

/// One rank's thread: delivers the messages addressed to the rank and runs
/// the writes its roles issue.
class RankThread {
 public:
  RankThread(SharedState& shared, Rank rank) : shared_(shared), rank_(rank) {}
  // The thread holds `this`.
  RankThread(const RankThread&) = delete;
  RankThread& operator=(const RankThread&) = delete;

  void start() {
    thread_ = std::thread([this] {
      try {
        while (auto msg = shared_.mailboxes[static_cast<std::size_t>(rank_)]->pop())
          execute(shared_.roles.deliver(rank_, *msg));
      } catch (...) {
        shared_.fail(std::current_exception());
      }
    });
  }
  void join() {
    if (thread_.joinable()) thread_.join();
  }

  void execute(Actions actions) {
    Roles& roles = shared_.roles;
    for (auto& action : actions) {
      if (auto* send = std::get_if<SendAction>(&action)) {
        shared_.send(send->to, std::move(send->msg));
      } else if (const auto* w = std::get_if<StartWriteAction>(&action)) {
        do_data_write(*w);
        execute(roles.on_write_done(rank_));
      } else if (const auto* wi = std::get_if<WriteIndexAction>(&action)) {
        do_index_write(*wi);
        execute(roles.on_index_write_done(rank_));
      } else if (std::get_if<WriteGlobalIndexAction>(&action)) {
        do_global_index_write();
        execute(roles.on_global_index_write_done());
      } else if (std::get_if<RoleDoneAction>(&action)) {
        shared_.role_done();
      }
    }
  }

 private:
  void do_data_write(const StartWriteAction& w) {
    if (shared_.cfg.write_delay) {
      const double delay = shared_.cfg.write_delay(rank_);
      if (delay > 0.0)
        std::this_thread::sleep_for(std::chrono::duration<double>(delay));
    }
    const std::vector<std::uint8_t> payload(static_cast<std::size_t>(w.bytes),
                                            static_cast<std::uint8_t>(rank_ & 0xFF));
    shared_.files[static_cast<std::size_t>(w.file)]->pwrite(
        static_cast<std::uint64_t>(w.offset), payload.data(), payload.size());
    shared_.total_bytes.fetch_add(w.bytes);
  }

  void do_index_write(const WriteIndexAction& wi) {
    // The file's records are built here, where they are first read.
    const SubCoordinatorFsm& sc = shared_.roles.sc(wi.file);
    const auto bytes =
        build_file_index(wi.file, sc.placements(), sc.file_index_blocks(), shared_.blueprint)
            .serialize();
    DataFile& file = *shared_.files[static_cast<std::size_t>(wi.file)];
    file.pwrite(static_cast<std::uint64_t>(wi.offset), bytes.data(), bytes.size());
    append_footer(file, static_cast<std::uint64_t>(wi.offset), bytes.size());
  }

  void do_global_index_write() {
    shared_.global_index = shared_.roles.coordinator().kept_index().build();
    const auto bytes = shared_.global_index.serialize();
    DataFile master(shared_.cfg.directory / "master.aidx");
    master.pwrite(0, bytes.data(), bytes.size());
    master.close();
  }

  SharedState& shared_;
  Rank rank_;
  std::thread thread_;
};

std::vector<std::uint8_t> read_all(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path.string());
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

}  // namespace

ThreadRunResult run_threaded(const core::IoJob& job, const ThreadRunConfig& config) {
  if (job.n_writers() == 0) throw std::invalid_argument("run_threaded: empty job");
  if (config.directory.empty()) throw std::invalid_argument("run_threaded: no directory");
  std::filesystem::create_directories(config.directory);

  const std::size_t n_files = std::min(std::max<std::size_t>(config.n_files, 1), job.n_writers());
  const core::Topology topo(job.n_writers(), n_files);
  SharedState shared(job, topo, config);
  shared.mailboxes.reserve(job.n_writers());
  for (std::size_t r = 0; r < job.n_writers(); ++r)
    shared.mailboxes.push_back(std::make_unique<Mailbox>());
  for (std::size_t f = 0; f < n_files; ++f) {
    shared.files.push_back(std::make_unique<DataFile>(
        config.directory / ("group." + std::to_string(f) + ".aio")));
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::unique_ptr<RankThread>> threads;
  threads.reserve(job.n_writers());
  for (std::size_t r = 0; r < job.n_writers(); ++r)
    threads.push_back(std::make_unique<RankThread>(shared, static_cast<core::Rank>(r)));
  // Prime SC schedules before any thread runs, then launch.  A thread that
  // cannot be started stops the run like a rank that threw.
  for (GroupId g = 0; g < static_cast<GroupId>(n_files); ++g)
    threads[static_cast<std::size_t>(topo.sc_rank(g))]->execute(shared.roles.start(g));
  try {
    for (auto& t : threads) t->start();
  } catch (...) {
    shared.fail(std::current_exception());
  }
  for (auto& t : threads) t->join();
  const auto t1 = std::chrono::steady_clock::now();

  for (auto& f : shared.files) f->close();
  if (shared.error) std::rethrow_exception(shared.error);

  ThreadRunResult result;
  for (auto& f : shared.files) result.data_files.push_back(f->path());
  result.master_file = config.directory / "master.aidx";
  result.global_index = std::move(shared.global_index);
  result.steals = shared.roles.coordinator().total_steals();
  result.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  result.total_bytes = shared.total_bytes.load();
  return result;
}

core::FileIndex read_file_index(const std::filesystem::path& file) {
  const auto bytes = read_all(file);
  if (bytes.size() < 24) throw std::runtime_error("file too small for footer");
  FileFooter footer;
  std::memcpy(&footer.index_offset, bytes.data() + bytes.size() - 24, 8);
  std::memcpy(&footer.index_size, bytes.data() + bytes.size() - 16, 8);
  std::memcpy(&footer.magic, bytes.data() + bytes.size() - 8, 8);
  if (footer.magic != FileFooter::kMagic) throw std::runtime_error("bad footer magic");
  // Compared without adding the two fields, which may wrap.
  const std::uint64_t before_footer = bytes.size() - 24;
  if (footer.index_offset > before_footer ||
      footer.index_size != before_footer - footer.index_offset)
    throw std::runtime_error("footer does not match file size");
  const auto idx = core::FileIndex::deserialize(
      std::span(bytes).subspan(footer.index_offset, footer.index_size));
  if (!idx) throw std::runtime_error("corrupt file index");
  return *idx;
}

core::GlobalIndex read_global_index(const std::filesystem::path& file) {
  const auto bytes = read_all(file);
  const auto idx = core::GlobalIndex::deserialize(bytes);
  if (!idx) throw std::runtime_error("corrupt global index");
  return *idx;
}

std::size_t verify_blocks(const std::filesystem::path& file, const core::FileIndex& index) {
  const auto bytes = read_all(file);
  std::size_t checked = 0;
  for (const auto& block : index.blocks()) {
    if (block.file_offset + block.length > bytes.size())
      throw std::runtime_error("block outside file");
    const auto expected = static_cast<std::uint8_t>(block.writer & 0xFF);
    for (std::uint64_t i = 0; i < block.length; ++i) {
      if (bytes[block.file_offset + i] != expected)
        throw std::runtime_error("pattern mismatch in block of writer " +
                                 std::to_string(block.writer));
    }
    ++checked;
  }
  return checked;
}

}  // namespace aio::runtime
