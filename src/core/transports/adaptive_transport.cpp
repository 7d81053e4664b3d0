#include "core/transports/adaptive_transport.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/protocol/roles.hpp"
#include "obs/journal.hpp"
#include "sim/shard.hpp"

namespace aio::core {

namespace {

Roles::Config role_config(const AdaptiveTransport::Config& c) {
  Roles::Config rc;
  rc.max_concurrent = c.max_concurrent;
  rc.stealing = c.stealing;
  rc.steal_source = c.steal_most_remaining ? CoordinatorFsm::StealSource::MostRemaining
                                           : CoordinatorFsm::StealSource::RoundRobin;
  rc.retain_global_index = c.retain_global_index;
  return rc;
}

/// Per-run state; kept alive by the callbacks that reference it.  The
/// protocol roles live in `roles`; the run moves their messages over the
/// network and their writes through the file system.
struct AdaptiveRun : std::enable_shared_from_this<AdaptiveRun> {
  fs::FileSystem& fs;
  net::Network& net;
  AdaptiveTransport::Config cfg;
  Roles roles;
  fs::Ost::Mode data_mode = fs::Ost::Mode::Durable;

  std::vector<fs::StripedFile*> files;  // one per group
  fs::StripedFile* master = nullptr;    // global index file

  IoResult result;
  std::function<void(IoResult)> on_done;
  std::size_t roles_remaining = 0;
  std::size_t opens_remaining = 0;
  std::size_t closes_remaining = 0;

  /// Where the file system's entities run: each role's events execute on
  /// its rank's home engine, and every coupling — a write to its OST and
  /// back, a role's report to the coordinator — is a `Homes` hand-off.
  sim::Homes homes;
  /// The engine's record gate, read once: every record below goes through
  /// `eng().record`.  Shard engines carry a journal each and no live plane,
  /// and the merge is canonical, so shard 0's gate is all-or-none.
  bool observing = false;
  std::uint32_t journal_run = 0;  ///< this run's id within the journal

  AdaptiveRun(fs::FileSystem& f, net::Network& n, AdaptiveTransport::Config c, const IoJob& job,
              std::size_t n_files)
      : fs(f),
        net(n),
        cfg(std::move(c)),
        roles(Topology(job.n_writers(), n_files), job, role_config(cfg)),
        homes(f.homes()),
        observing(f.engine().observing_records()),
        scratch_(homes.n_engines()) {}

  /// Engine executing the current event (the acting rank's home).
  [[nodiscard]] sim::Engine& eng() const { return homes.here(); }

  void begin(const IoJob& job);
  void start_protocol();
  void execute(Rank from, Actions& actions);
  void execute(Rank from, Actions&& actions) { execute(from, actions); }
  void deliver(Rank to, const Message& msg);
  void all_roles_done();
  void finish(sim::Time now);
  void observe_steal_grant(const SendAction& send);
  void observe_steal_complete(const WriteComplete& msg);
  void journal_mark(obs::Mark mark, double v0 = 0.0, double v1 = 0.0) {
    obs::Record r;
    r.kind = obs::Rec::kRunMark;
    r.t = eng().now();
    r.id = journal_run;
    r.a = static_cast<std::uint8_t>(mark);
    r.v0 = v0;
    r.v1 = v1;
    eng().record(r);
  }

  /// Data-path write completions, factored into methods so the hand-back
  /// closures capture only (run, rank, file, method, OST) and stay inside
  /// the OST's 64-byte callback SBO.
  using WriteDone = void (AdaptiveRun::*)(Rank, std::uint32_t, sim::Time);
  void writer_write_done(Rank from, std::uint32_t file, sim::Time now);
  void sc_index_write_done(Rank from, std::uint32_t file, sim::Time now);
  void coord_gidx_write_done(Rank from, std::uint32_t file, sim::Time now);
  void role_done();

  /// Issues a data write on `file`, completing through `done(from, file_id)`:
  /// a hand-off from the rank to the OST holding `offset`, and one back.
  void issue_write(Rank from, fs::StripedFile& file, double offset, double bytes,
                   fs::Ost::Mode mode, std::uint32_t file_id, WriteDone done);

  /// Walks the files (groups, then the master index) in global order and
  /// calls `emit(server, first_file, items)` once per request: chunks of up
  /// to `open_batch` files (0 counts as 1) that share a metadata server,
  /// each full chunk as it fills, then every server's remainder in server
  /// order.
  template <class Emit>
  void for_each_mds_request(Emit&& emit) {
    fs::MdsGroup& tier = fs.mds_group();
    const std::size_t batch = std::max<std::size_t>(cfg.open_batch, 1);
    struct Chunk {
      std::size_t first = 0;
      std::size_t items = 0;
    };
    std::vector<Chunk> chunks(tier.count());
    auto flush = [&](std::size_t m) {
      if (chunks[m].items == 0) return;
      const std::size_t k = chunks[m].items;
      chunks[m].items = 0;
      emit(m, chunks[m].first, k);
    };
    for (std::size_t f = 0; f <= files.size(); ++f) {
      const std::size_t m = tier.index_of((f == files.size() ? master : files[f])->path());
      if (chunks[m].items == 0) chunks[m].first = f;
      if (++chunks[m].items >= batch) flush(m);
    }
    for (std::size_t m = 0; m < tier.count(); ++m) flush(m);
  }

  /// Scratch action list reused across deliveries, one per engine.
  /// Steady-state steps fit the SmallVector's inline slots; the rare
  /// overflow (the coordinator's final broadcast) leaves its heap block here
  /// for the rest of the run instead of being reallocated per message.  Safe
  /// because nothing in execute() delivers a message synchronously (every
  /// send/write completes through a scheduled event), so deliver() never
  /// re-enters itself on any one engine.
  std::vector<Actions> scratch_;
};

void AdaptiveRun::begin(const IoJob& job) {
  if (homes.group() && cfg.open_mode != AdaptiveTransport::Config::OpenMode::Skip) {
    // MDS-timed open storms serialize on shard 0 and their stagger daemons
    // are not window-aware; the sharded timing model starts at open-done.
    throw std::invalid_argument("AdaptiveRun: sharded runs require OpenMode::Skip");
  }
  const std::size_t n = roles.topology().n_writers();
  const std::size_t g = roles.topology().n_groups();
  result.transport = "Adaptive";
  result.t_begin = fs.engine().now();
  result.total_bytes = job.total_bytes();
  result.var_names = job.var_names;
  result.writer_times.resize(n);
  roles_remaining = roles.count();

  // --- file creation --------------------------------------------------------
  files.resize(g, nullptr);
  auto ost_of_file = [this](std::size_t file) {
    if (!cfg.targets.empty()) return cfg.targets[file] % fs.n_osts();
    return (cfg.first_ost + file) % fs.n_osts();
  };
  if (observing) {
    if (obs::Journal* journal = fs.engine().journal()) {
      journal_run = journal->begin_run();
      // Every shard's journal counts the same runs, so run-scoped record ids
      // agree across shards (and therefore across shard counts post-merge).
      for (std::size_t e = 1; e < homes.n_engines(); ++e)
        if (obs::Journal* js = homes.engine(e).journal()) js->begin_run();
    }
    obs::Record r;
    r.kind = obs::Rec::kRunBegin;
    r.t = result.t_begin;
    r.id = journal_run;
    r.u0 = static_cast<std::uint32_t>(n);
    r.u1 = static_cast<std::uint32_t>(g);
    r.u2 = static_cast<std::uint32_t>(fs.n_osts());
    eng().record(r);
    for (std::size_t f = 0; f < g; ++f) {
      obs::Record m;
      m.kind = obs::Rec::kFileMap;
      m.t = result.t_begin;
      m.id = journal_run;
      m.u0 = static_cast<std::uint32_t>(f);
      m.u1 = static_cast<std::uint32_t>(ost_of_file(f));
      eng().record(m);
    }
  }
  // The files themselves are bookkeeping, created up front in every mode;
  // only the metadata traffic below is timed.
  const std::string base = "adaptive";
  for (std::size_t f = 0; f < g; ++f)
    files[f] = &fs.open_immediate(base + "." + std::to_string(f), 1, ost_of_file(f));
  master = &fs.open_immediate(base + ".midx", 1, cfg.first_ost % fs.n_osts());
  using OpenMode = AdaptiveTransport::Config::OpenMode;
  if (cfg.open_mode == OpenMode::Skip) {
    result.t_open_done = fs.engine().now();
    start_protocol();
    return;
  }
  // One OPEN request per chunk of files per server; staggered mode launches
  // each request at the gap slot of its first file.
  opens_remaining = g + 1;
  auto self = shared_from_this();
  const double gap = cfg.open_mode == OpenMode::Staggered ? cfg.stagger_gap_s : 0.0;
  for_each_mds_request([&](std::size_t m, std::size_t first, std::size_t k) {
    fs.engine().schedule_after(gap * static_cast<double>(first), [self, m, k] {
      self->fs.mds_group().submit_batch(
          m, fs::MetadataServer::OpKind::Open, k, [self, k](sim::Time) {
            self->opens_remaining -= k;
            if (self->opens_remaining == 0) {
              self->result.t_open_done = self->fs.engine().now();
              self->start_protocol();
            }
          });
    });
  });
}

void AdaptiveRun::start_protocol() {
  if (observing) journal_mark(obs::Mark::kOpenDone);
  const Topology& topo = roles.topology();
  for (GroupId grp = 0; grp < static_cast<GroupId>(topo.n_groups()); ++grp)
    execute(topo.sc_rank(grp), roles.start(grp));
}

void AdaptiveRun::observe_steal_grant(const SendAction& send) {
  // An ADAPTIVE_WRITE_START leaving the coordinator is a steal grant: the
  // destination rank is the SC of the group being stolen *from*; the body
  // names the file being stolen *into*.
  const auto* grant = std::get_if<AdaptiveWriteStart>(&send.msg.body);
  if (!grant) return;
  const GroupId src = roles.topology().group_of(send.to);
  obs::Record r;
  r.kind = obs::Rec::kStealGrant;
  r.t = eng().now();
  r.id = static_cast<std::uint32_t>(grant->grant_seq);
  r.u0 = static_cast<std::uint32_t>(src);
  r.u1 = static_cast<std::uint32_t>(grant->target_file);
  r.v0 = grant->offset;
  r.v1 = static_cast<double>(roles.coordinator().remaining_writers(src));
  eng().record(r);
}

void AdaptiveRun::observe_steal_complete(const WriteComplete& msg) {
  obs::Record r;
  r.kind = obs::Rec::kStealComplete;
  r.t = eng().now();
  r.id = static_cast<std::uint32_t>(msg.grant_seq);
  r.u0 = static_cast<std::uint32_t>(msg.origin_group);
  r.u1 = static_cast<std::uint32_t>(msg.file);
  r.u2 = static_cast<std::uint32_t>(msg.writer);
  r.v0 = msg.bytes;
  eng().record(r);
}

void AdaptiveRun::deliver(Rank to, const Message& msg) {
  if (const auto* wc = std::get_if<WriteComplete>(&msg.body);
      observing && wc && wc->kind == WriteComplete::Kind::AdaptiveDone) {
    observe_steal_complete(*wc);
  }
  Actions& scratch = scratch_[homes.here_index()];
  scratch.clear();
  scratch.append(roles.deliver(to, msg));
  execute(to, scratch);
}

void AdaptiveRun::writer_write_done(Rank from, std::uint32_t file, sim::Time now) {
  result.writer_times[static_cast<std::size_t>(from)].end = now;
  if (observing) {
    obs::Record r;
    r.kind = obs::Rec::kWriterEnd;
    r.t = now;
    r.id = static_cast<std::uint32_t>(from);
    r.u0 = file;
    eng().record(r);
  }
  execute(from, roles.on_write_done(from));
}

void AdaptiveRun::sc_index_write_done(Rank from, std::uint32_t, sim::Time) {
  execute(from, roles.on_index_write_done(from));
}

void AdaptiveRun::coord_gidx_write_done(Rank from, std::uint32_t, sim::Time) {
  execute(from, roles.on_global_index_write_done());
}

void AdaptiveRun::role_done() {
  if (roles_remaining == 0) throw std::logic_error("AdaptiveRun: role overcompletion");
  if (--roles_remaining == 0) all_roles_done();
}

void AdaptiveRun::issue_write(Rank from, fs::StripedFile& file, double offset, double bytes,
                              fs::Ost::Mode mode, std::uint32_t file_id, WriteDone done) {
  const std::size_t ost = file.target_of(offset);
  homes.hand_off(
      sim::Entity::rank(from), sim::Entity::ost(ost),
      [self = shared_from_this(), f = &file, offset, bytes, mode, from, file_id, done,
       ost]() mutable {
        f->write(offset, bytes, mode,
                 [self = std::move(self), from, file_id, done, ost](sim::Time) mutable {
                   const sim::Homes& homes = self->homes;
                   homes.hand_off(sim::Entity::ost(ost), sim::Entity::rank(from),
                                  [self = std::move(self), from, file_id, done] {
                                    ((*self).*done)(from, file_id, self->eng().now());
                                  });
                 });
      });
}

void AdaptiveRun::execute(Rank from, Actions& actions) {
  for (auto& action : actions) {
    if (auto* send = std::get_if<SendAction>(&action)) {
      if (observing) {
        if (from == Topology::coordinator_rank()) observe_steal_grant(*send);
        // A DO_WRITE leaving an SC is the writer's release from its queue;
        // the gap to the matching kWriterStart is pure network latency.
        if (const auto* dw = std::get_if<DoWrite>(&send->msg.body)) {
          const GroupId home = roles.topology().group_of(send->to);
          obs::Record r;
          r.kind = obs::Rec::kWriterSignal;
          r.t = eng().now();
          r.id = static_cast<std::uint32_t>(send->to);
          r.u0 = static_cast<std::uint32_t>(dw->target_file);
          r.u1 = static_cast<std::uint32_t>(home);
          r.u2 = static_cast<std::uint32_t>(dw->grant_seq);
          r.a = dw->target_file != home ? 1 : 0;
          eng().record(r);
        }
      }
      const Rank to = send->to;
      const double bytes = send->msg.wire_bytes();  // before the move below
      auto deliver_cb = [self = shared_from_this(), to, msg = std::move(send->msg)] {
        self->deliver(to, msg);
      };
      static_assert(sizeof(deliver_cb) <= 96,
                    "protocol deliver closure outgrew the engine callback SBO");
      net.send(from, to, bytes, std::move(deliver_cb));
    } else if (const auto* write = std::get_if<StartWriteAction>(&action)) {
      result.writer_times[static_cast<std::size_t>(from)].start = eng().now();
      const auto file = static_cast<std::uint32_t>(write->file);
      if (observing) {
        obs::Record r;
        r.kind = obs::Rec::kWriterStart;
        r.t = eng().now();
        r.id = static_cast<std::uint32_t>(from);
        r.u0 = file;
        r.v0 = write->bytes;
        eng().record(r);
      }
      issue_write(from, *files.at(static_cast<std::size_t>(write->file)), write->offset,
                  write->bytes, data_mode, file, &AdaptiveRun::writer_write_done);
    } else if (const auto* widx = std::get_if<WriteIndexAction>(&action)) {
      issue_write(from, *files.at(static_cast<std::size_t>(widx->file)), widx->offset,
                  widx->bytes, fs::Ost::Mode::Durable, static_cast<std::uint32_t>(widx->file),
                  &AdaptiveRun::sc_index_write_done);
    } else if (const auto* gidx = std::get_if<WriteGlobalIndexAction>(&action)) {
      issue_write(from, *master, 0.0, gidx->bytes, fs::Ost::Mode::Durable, 0,
                  &AdaptiveRun::coord_gidx_write_done);
    } else if (std::get_if<RoleDoneAction>(&action)) {
      // The role tally lives with the coordinator.
      homes.hand_off(sim::Entity::rank(from), sim::Entity::rank(Topology::coordinator_rank()),
                     [self = shared_from_this()] { self->role_done(); });
    }
  }
}

void AdaptiveRun::all_roles_done() {
  result.t_data_done = eng().now();
  CoordinatorFsm& coord = roles.coordinator();
  result.steals = coord.total_steals();
  result.grants_issued = coord.grants_issued();
  if (observing) journal_mark(obs::Mark::kDataDone);
  result.total_blocks_indexed = coord.total_blocks();
  if (cfg.retain_global_index)
    result.kept_index = std::make_shared<const KeptIndex>(coord.take_kept_index());
  result.output_files = files;
  result.master_file = master;

  // all_roles_done runs where the role tally lives, so the coordinator is
  // the entity that closes the files.
  auto self = shared_from_this();
  closes_remaining = files.size() + 1;
  for_each_mds_request([&](std::size_t m, std::size_t, std::size_t k) {
    fs.mds_group().submit_batch_from(
        sim::Entity::rank(Topology::coordinator_rank()), m, fs::MetadataServer::OpKind::Close, k,
        [self, k](sim::Time now) {
          self->closes_remaining -= k;
          if (self->closes_remaining == 0) self->finish(now);
        });
  });
}

void AdaptiveRun::finish(sim::Time now) {
  result.t_complete = now;
  if (observing)
    journal_mark(obs::Mark::kComplete, static_cast<double>(result.steals),
                 static_cast<double>(result.grants_issued));
  on_done(std::move(result));
}

}  // namespace

void AdaptiveTransport::run(const IoJob& job, std::function<void(IoResult)> on_done) {
  if (job.n_writers() == 0) throw std::invalid_argument("AdaptiveTransport: empty job");
  if (net_.n_ranks() < job.n_writers())
    throw std::invalid_argument("AdaptiveTransport: network has fewer ranks than writers");
  std::size_t n_files = config_.n_files == 0 ? fs_.n_osts() : config_.n_files;
  if (!config_.targets.empty()) n_files = config_.targets.size();
  n_files = std::min(n_files, job.n_writers());
  Config cfg = config_;
  if (!cfg.targets.empty() && n_files < cfg.targets.size()) cfg.targets.resize(n_files);
  auto run = std::make_shared<AdaptiveRun>(fs_, net_, std::move(cfg), job, n_files);
  run->on_done = std::move(on_done);
  run->begin(job);
}

}  // namespace aio::core
