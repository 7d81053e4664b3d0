#include "runtime/thread_runtime.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <fstream>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <thread>

#include "core/protocol/coordinator_fsm.hpp"
#include "core/protocol/subcoordinator_fsm.hpp"
#include "core/protocol/writer_fsm.hpp"

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
  Topology topo;
  ThreadRunConfig cfg;
  /// Shared per-writer payload sizes; SC configs view subranges instead of
  /// copying their member lists (written once before threads launch).
  std::vector<double> bytes;
  std::vector<std::unique_ptr<Mailbox>> mailboxes;
  std::vector<std::unique_ptr<DataFile>> files;  // one per group
  std::atomic<std::size_t> roles_remaining;
  std::atomic<double> total_bytes{0.0};
  // Global index + footer metadata produced by the coordinator thread.
  std::mutex result_mu;
  GlobalIndex global_index;
  std::uint64_t steals = 0;

  SharedState(Topology t, ThreadRunConfig c)
      : topo(t), cfg(std::move(c)), roles_remaining(t.n_writers() + t.n_groups() + 1) {}

  void send(Rank to, Message msg) { mailboxes[static_cast<std::size_t>(to)]->push(std::move(msg)); }

  void role_done() {
    if (roles_remaining.fetch_sub(1) == 1) {
      for (auto& mb : mailboxes) mb->shutdown();
    }
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

/// Per-rank actor thread: hosts the writer role plus, on first-of-group
/// ranks, the SC role, plus the coordinator on rank 0.
class RankThread {
 public:
  RankThread(SharedState& shared, Rank rank, const IoJob& job) : shared_(shared), rank_(rank) {
    const GroupId group = shared_.topo.group_of(rank);
    const auto sc_of = [topo = shared_.topo](GroupId g) { return topo.sc_rank(g); };
    WriterFsm::Config wc;
    wc.rank = rank;
    wc.group = group;
    wc.my_sc = shared_.topo.sc_rank(group);
    wc.bytes = job.bytes_per_writer[static_cast<std::size_t>(rank)];
    wc.blueprint = job.blueprint_for(rank);
    wc.sc_of = sc_of;
    writer_.emplace(std::move(wc));

    if (shared_.topo.sc_rank(group) == rank) {
      SubCoordinatorFsm::Config sc;
      sc.group = group;
      sc.rank = rank;
      sc.coordinator = Topology::coordinator_rank();
      sc.first_member = shared_.topo.group_begin(group);
      sc.n_members = shared_.topo.group_size(group);
      sc.member_bytes = std::span<const double>(shared_.bytes)
                            .subspan(static_cast<std::size_t>(sc.first_member), sc.n_members);
      sc.max_concurrent = shared_.cfg.max_concurrent;
      sc_.emplace(std::move(sc));
    }
    if (rank == Topology::coordinator_rank()) {
      CoordinatorFsm::Config cc;
      cc.n_groups = shared_.topo.n_groups();
      cc.group_size_of = [topo = shared_.topo](GroupId g) { return topo.group_size(g); };
      cc.sc_of = sc_of;
      cc.stealing_enabled = shared_.cfg.stealing;
      coord_.emplace(std::move(cc));
    }
  }

  void start() {
    thread_ = std::thread([this] { loop(); });
  }
  void join() { thread_.join(); }

  /// Kicks off the SC schedule (called from the main thread before start).
  void prime() {
    if (sc_) execute(sc_->start());
  }

 private:
  void loop() {
    while (auto msg = shared_.mailboxes[static_cast<std::size_t>(rank_)]->pop()) {
      dispatch(*msg);
    }
  }

  void dispatch(const Message& msg) {
    struct Visitor {
      RankThread& t;
      Actions operator()(const DoWrite& m) { return t.writer_->on_do_write(m); }
      Actions operator()(const WriteComplete& m) {
        if (m.kind == WriteComplete::Kind::WriterDone) return t.sc_->on_write_complete(m);
        return t.coord_->on_write_complete(m);
      }
      Actions operator()(const IndexBody& m) { return t.sc_->on_index_body(m); }
      Actions operator()(const AdaptiveWriteStart& m) {
        return t.sc_->on_adaptive_write_start(m);
      }
      Actions operator()(const WritersBusy& m) { return t.coord_->on_writers_busy(m); }
      Actions operator()(const OverallWriteComplete& m) {
        return t.sc_->on_overall_write_complete(m);
      }
      Actions operator()(const SubIndex& m) { return t.coord_->on_sub_index(m); }
    };
    execute(std::visit(Visitor{*this}, msg.body));
  }

  void execute(Actions actions) {
    for (auto& action : actions) {
      if (auto* send = std::get_if<SendAction>(&action)) {
        shared_.send(send->to, std::move(send->msg));
      } else if (const auto* w = std::get_if<StartWriteAction>(&action)) {
        do_data_write(*w);
        dispatch_self(writer_->on_write_done());
      } else if (const auto* wi = std::get_if<WriteIndexAction>(&action)) {
        do_index_write(*wi);
        dispatch_self(sc_->on_index_write_done());
      } else if (std::get_if<WriteGlobalIndexAction>(&action)) {
        do_global_index_write();
        dispatch_self(coord_->on_global_index_write_done());
      } else if (std::get_if<RoleDoneAction>(&action)) {
        shared_.role_done();
      }
    }
  }

  void dispatch_self(Actions actions) { execute(std::move(actions)); }

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
    const auto bytes = sc_->file_index().serialize();
    DataFile& file = *shared_.files[static_cast<std::size_t>(wi.file)];
    file.pwrite(static_cast<std::uint64_t>(wi.offset), bytes.data(), bytes.size());
    append_footer(file, static_cast<std::uint64_t>(wi.offset), bytes.size());
  }

  void do_global_index_write() {
    const std::lock_guard<std::mutex> lock(shared_.result_mu);
    // The coordinator is done with its copy; move it out instead of
    // duplicating every block record at the peak-memory moment of the run.
    shared_.global_index = coord_->take_global_index();
    shared_.steals = coord_->total_steals();
    const auto bytes = shared_.global_index.serialize();
    DataFile master(shared_.cfg.directory / "master.aidx");
    master.pwrite(0, bytes.data(), bytes.size());
    master.close();
  }

  SharedState& shared_;
  Rank rank_;
  std::optional<WriterFsm> writer_;
  std::optional<SubCoordinatorFsm> sc_;
  std::optional<CoordinatorFsm> coord_;
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
  SharedState shared(core::Topology(job.n_writers(), n_files), config);
  shared.bytes = job.bytes_per_writer;
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
    threads.push_back(std::make_unique<RankThread>(shared, static_cast<core::Rank>(r), job));
  // Prime SC schedules before any thread runs, then launch.
  for (auto& t : threads) t->prime();
  for (auto& t : threads) t->start();
  for (auto& t : threads) t->join();
  const auto t1 = std::chrono::steady_clock::now();

  for (auto& f : shared.files) f->close();

  ThreadRunResult result;
  for (auto& f : shared.files) result.data_files.push_back(f->path());
  result.master_file = config.directory / "master.aidx";
  result.global_index = std::move(shared.global_index);
  result.steals = shared.steals;
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
  if (footer.index_offset + footer.index_size + 24 != bytes.size())
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
