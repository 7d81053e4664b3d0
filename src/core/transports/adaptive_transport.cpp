#include "core/transports/adaptive_transport.hpp"

#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/protocol/coordinator_fsm.hpp"
#include "core/protocol/subcoordinator_fsm.hpp"
#include "core/protocol/writer_pool.hpp"
#include "obs/journal.hpp"
#include "sim/shard.hpp"

namespace aio::core {

namespace {

/// Per-run state; kept alive by the callbacks that reference it.
///
/// Roles live in role-segregated storage sized to the role populations — a
/// dense WriterPool for the n writers, one SubCoordinatorFsm per group, one
/// coordinator — instead of a per-rank actor struct.  At full Jaguar scale
/// (224,160 ranks) the per-rank layout spent kilobytes per rank on FSM
/// configs (member vectors, resolver copies, optional<> slots for roles the
/// rank never plays); the pooled layout keeps per-writer state to a few
/// scalars, plus the writer's own index blocks when the run keeps the global
/// index.
struct AdaptiveRun : std::enable_shared_from_this<AdaptiveRun> {
  fs::FileSystem& fs;
  net::Network& net;
  AdaptiveTransport::Config cfg;
  Topology topo;
  fs::Ost::Mode data_mode = fs::Ost::Mode::Durable;

  std::vector<fs::StripedFile*> files;  // one per group
  fs::StripedFile* master = nullptr;    // global index file

  /// The run's single owned copy of per-writer payload sizes; the writer
  /// pool and every SC config view subranges of it.
  std::vector<double> bytes_per_writer;
  std::optional<WriterPool> writers;
  std::vector<SubCoordinatorFsm> scs;  // indexed by group
  std::optional<CoordinatorFsm> coord;

  IoResult result;
  std::function<void(IoResult)> on_done;
  std::size_t roles_remaining = 0;
  std::size_t opens_remaining = 0;
  std::size_t closes_remaining = 0;

  /// Non-null for runs homed on a sharded file system: protocol events
  /// execute on the shard owning the acting rank's domain, and every
  /// coupling that crosses a node or storage boundary (writes to OSTs, role
  /// completions to the coordinator's node) travels through the shard
  /// group's channel plane regardless of the domain layout.
  sim::ShardGroup* shards = nullptr;
  /// The engine's record gate, read once: every record below goes through
  /// `eng().record`.  Shard engines carry a journal each and no live plane,
  /// and the merge is canonical, so shard 0's gate is all-or-none.
  bool observing = false;
  std::uint32_t journal_run = 0;  ///< this run's id within the journal

  AdaptiveRun(fs::FileSystem& f, net::Network& n, AdaptiveTransport::Config c, Topology t)
      : fs(f),
        net(n),
        cfg(std::move(c)),
        topo(t),
        shards(f.shards()),
        observing(f.engine().observing_records()) {
    scratch_shards_.resize(shards ? shards->n_shards() : 1);
  }

  /// Engine of the shard executing the current event (the acting rank's
  /// home); the run-wide engine on the classic path.
  [[nodiscard]] sim::Engine& eng() const {
    return shards ? *sim::current_engine() : fs.engine();
  }

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

  /// Data-path write completions, factored into methods so the sharded
  /// hop-back closures capture only (run, rank, file, method) and stay
  /// inside the OST's 64-byte callback SBO.
  using WriteDone = void (AdaptiveRun::*)(Rank, std::uint32_t, sim::Time);
  void writer_write_done(Rank from, std::uint32_t file, sim::Time now);
  void sc_index_write_done(Rank from, std::uint32_t file, sim::Time now);
  void coord_gidx_write_done(Rank from, std::uint32_t file, sim::Time now);
  void role_done();

  /// Issues a data write on `file`, completing through `done(from, file_id)`.
  /// Classic runs call straight into the striped file.  Sharded runs always
  /// hop to the OST's home shard and hop the completion back (a rank→OST
  /// write crosses the compute/storage boundary by definition); both hops
  /// land on window boundaries.
  void issue_write(Rank from, fs::StripedFile& file, double offset, double bytes,
                   fs::Ost::Mode mode, std::uint32_t file_id, WriteDone done);

  [[nodiscard]] SubCoordinatorFsm& sc_at(Rank rank) {
    return scs[static_cast<std::size_t>(topo.group_of(rank))];
  }

  /// Scratch action list reused across deliveries, one per shard (classic
  /// runs use slot 0).  Steady-state steps fit the SmallVector's inline
  /// slots; the rare overflow (the coordinator's final broadcast) leaves its
  /// heap block here for the rest of the run instead of being reallocated
  /// per message.  Safe because nothing in execute() delivers a message
  /// synchronously (every send/write completes through a scheduled event),
  /// so deliver() never re-enters itself on any one shard.
  std::vector<Actions> scratch_shards_;
};

void AdaptiveRun::begin(const IoJob& job) {
  if (shards && cfg.open_mode != AdaptiveTransport::Config::OpenMode::Skip) {
    // MDS-timed open storms serialize on shard 0 and their stagger daemons
    // are not window-aware; the sharded timing model starts at open-done.
    throw std::invalid_argument("AdaptiveRun: sharded runs require OpenMode::Skip");
  }
  const std::size_t n = topo.n_writers();
  const std::size_t g = topo.n_groups();
  result.transport = "Adaptive";
  result.t_begin = fs.engine().now();
  result.total_bytes = job.total_bytes();
  result.var_names = job.var_names;
  result.writer_times.resize(n);
  roles_remaining = n + g + 1;  // writers + SCs + coordinator

  bytes_per_writer = job.bytes_per_writer;
  const std::span<const double> all_bytes{bytes_per_writer};
  const auto sc_of = [topo = topo](GroupId grp) { return topo.sc_rank(grp); };

  {
    WriterPool::Layout layout;
    layout.first_rank = 0;
    layout.group_of = [topo = topo](Rank r) { return topo.group_of(r); };
    layout.sc_of = sc_of;
    layout.bytes = all_bytes;
    layout.carry_records = cfg.retain_global_index;
    writers.emplace(std::move(layout), [&job](Rank r) { return job.blueprint_for(r); });
  }
  scs.reserve(g);
  for (GroupId grp = 0; grp < static_cast<GroupId>(g); ++grp) {
    SubCoordinatorFsm::Config sc;
    sc.group = grp;
    sc.rank = topo.sc_rank(grp);
    sc.coordinator = Topology::coordinator_rank();
    sc.first_member = topo.group_begin(grp);
    sc.n_members = topo.group_size(grp);
    sc.member_bytes =
        all_bytes.subspan(static_cast<std::size_t>(sc.first_member), sc.n_members);
    sc.max_concurrent = cfg.max_concurrent;
    scs.emplace_back(std::move(sc));
  }
  {
    CoordinatorFsm::Config cc;
    cc.n_groups = g;
    cc.group_size_of = [topo = topo](GroupId grp) { return topo.group_size(grp); };
    cc.sc_of = sc_of;
    cc.rank = Topology::coordinator_rank();
    cc.stealing_enabled = cfg.stealing;
    cc.steal_source = cfg.steal_most_remaining ? CoordinatorFsm::StealSource::MostRemaining
                                               : CoordinatorFsm::StealSource::RoundRobin;
    cc.retain_global_index = cfg.retain_global_index;
    coord.emplace(std::move(cc));
  }

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
      if (shards)
        for (std::size_t s = 1; s < shards->n_shards(); ++s)
          if (obs::Journal* js = shards->engine(s).journal()) js->begin_run();
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
  const std::string base = "adaptive";
  using OpenMode = AdaptiveTransport::Config::OpenMode;
  if (cfg.open_mode == OpenMode::Skip) {
    for (std::size_t f = 0; f < g; ++f)
      files[f] = &fs.open_immediate(base + "." + std::to_string(f), 1, ost_of_file(f));
    master = &fs.open_immediate(base + ".midx", 1, cfg.first_ost % fs.n_osts());
    result.t_open_done = fs.engine().now();
    start_protocol();
    return;
  }
  opens_remaining = g + 1;
  auto self = shared_from_this();
  const double gap = cfg.open_mode == OpenMode::Staggered ? cfg.stagger_gap_s : 0.0;
  if (cfg.open_batch > 0) {
    // Batched client path: the files themselves are bookkeeping (created
    // immediately); the metadata traffic is one batched OPEN per chunk of
    // `open_batch` files per server, walked in global file order so that
    // open_batch == 1 reproduces the per-file path's submission sequence
    // request-for-request.  Staggered mode launches each chunk at the gap
    // slot of its first file.
    for (std::size_t f = 0; f <= g; ++f) {
      const std::string path = f == g ? base + ".midx" : base + "." + std::to_string(f);
      const std::size_t ost = f == g ? cfg.first_ost % fs.n_osts() : ost_of_file(f);
      fs::StripedFile& file = fs.open_immediate(path, 1, ost);
      if (f == g) {
        master = &file;
      } else {
        files[f] = &file;
      }
    }
    fs::MdsGroup& tier = fs.mds_group();
    std::vector<std::size_t> chunk_items(tier.count(), 0);
    std::vector<std::size_t> chunk_first(tier.count(), 0);  // global file index
    auto flush_chunk = [&](std::size_t m) {
      if (chunk_items[m] == 0) return;
      const std::size_t k = chunk_items[m];
      chunk_items[m] = 0;
      fs.engine().schedule_after(
          gap * static_cast<double>(chunk_first[m]), [self, m, k] {
            self->fs.mds_group().submit_batch(
                m, fs::MetadataServer::OpKind::Open, k, [self, k](sim::Time) {
                  self->opens_remaining -= k;
                  if (self->opens_remaining == 0) {
                    self->result.t_open_done = self->fs.engine().now();
                    self->start_protocol();
                  }
                });
          });
    };
    for (std::size_t f = 0; f <= g; ++f) {
      fs::StripedFile& file = f == g ? *master : *files[f];
      const std::size_t m = tier.index_of(file.path());
      if (chunk_items[m] == 0) chunk_first[m] = f;
      if (++chunk_items[m] >= cfg.open_batch) flush_chunk(m);
    }
    for (std::size_t m = 0; m < tier.count(); ++m) flush_chunk(m);
    return;
  }
  auto opened = [self](std::size_t slot, fs::StripedFile& file) {
    if (slot == self->topo.n_groups()) {
      self->master = &file;
    } else {
      self->files[slot] = &file;
    }
    if (--self->opens_remaining == 0) {
      self->result.t_open_done = self->fs.engine().now();
      self->start_protocol();
    }
  };
  for (std::size_t f = 0; f <= g; ++f) {
    const std::string path = f == g ? base + ".midx" : base + "." + std::to_string(f);
    const std::size_t ost = f == g ? cfg.first_ost % fs.n_osts() : ost_of_file(f);
    fs.engine().schedule_after(gap * static_cast<double>(f), [self, path, ost, f, opened] {
      self->fs.open(path, 1, ost,
                    [f, opened](fs::StripedFile& file, sim::Time) { opened(f, file); });
    });
  }
}

void AdaptiveRun::start_protocol() {
  if (observing) journal_mark(obs::Mark::kOpenDone);
  for (GroupId grp = 0; grp < static_cast<GroupId>(topo.n_groups()); ++grp) {
    execute(topo.sc_rank(grp), scs[static_cast<std::size_t>(grp)].start());
  }
}

void AdaptiveRun::observe_steal_grant(const SendAction& send) {
  // An ADAPTIVE_WRITE_START leaving the coordinator is a steal grant: the
  // destination rank is the SC of the group being stolen *from*; the body
  // names the file being stolen *into*.
  const auto* grant = std::get_if<AdaptiveWriteStart>(&send.msg.body);
  if (!grant) return;
  const GroupId src = topo.group_of(send.to);
  obs::Record r;
  r.kind = obs::Rec::kStealGrant;
  r.t = eng().now();
  r.id = static_cast<std::uint32_t>(grant->grant_seq);
  r.u0 = static_cast<std::uint32_t>(src);
  r.u1 = static_cast<std::uint32_t>(grant->target_file);
  r.v0 = grant->offset;
  r.v1 = static_cast<double>(coord->remaining_writers(src));
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
  // Route by message type + destination role: writers get DO_WRITE, the
  // destination rank's SC gets file traffic, the coordinator the rest.
  struct Visitor {
    AdaptiveRun& run;
    Rank to;
    Actions operator()(const DoWrite& m) { return run.writers->on_do_write(to, m); }
    Actions operator()(const WriteComplete& m) {
      if (m.kind == WriteComplete::Kind::WriterDone) return run.sc_at(to).on_write_complete(m);
      return run.coord->on_write_complete(m);
    }
    Actions operator()(const IndexBody& m) { return run.sc_at(to).on_index_body(m); }
    Actions operator()(const AdaptiveWriteStart& m) {
      return run.sc_at(to).on_adaptive_write_start(m);
    }
    Actions operator()(const WritersBusy& m) { return run.coord->on_writers_busy(m); }
    Actions operator()(const OverallWriteComplete& m) {
      return run.sc_at(to).on_overall_write_complete(m);
    }
    Actions operator()(const SubIndex& m) { return run.coord->on_sub_index(m); }
  };
  Actions produced = std::visit(Visitor{*this, to}, msg.body);
  Actions& scratch = scratch_shards_[shards ? sim::current_shard_index() : 0];
  scratch.clear();
  scratch.append(std::move(produced));
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
  execute(from, writers->on_write_done(from));
}

void AdaptiveRun::sc_index_write_done(Rank from, std::uint32_t, sim::Time) {
  execute(from, sc_at(from).on_index_write_done());
}

void AdaptiveRun::coord_gidx_write_done(Rank from, std::uint32_t, sim::Time) {
  execute(from, coord->on_global_index_write_done());
}

void AdaptiveRun::role_done() {
  if (roles_remaining == 0) throw std::logic_error("AdaptiveRun: role overcompletion");
  if (--roles_remaining == 0) all_roles_done();
}

void AdaptiveRun::issue_write(Rank from, fs::StripedFile& file, double offset, double bytes,
                              fs::Ost::Mode mode, std::uint32_t file_id, WriteDone done) {
  auto self = shared_from_this();
  if (shards) {
    // A rank→OST write always crosses the compute/storage boundary, so it
    // always quantizes: hop to the OST's home shard to issue, and hop the
    // completion back to the issuer's shard.  Both hops land on window
    // boundaries whatever the domain layout — the same-domain case is not
    // special-cased, which is what keeps the timing invariant under
    // AIO_SIM_DOMAINS.
    const std::uint32_t src_key = shards->key_of_rank(static_cast<std::size_t>(from));
    const std::uint32_t dst_dom = shards->domain_of_ost(file.target_of(offset));
    shards->post_at_boundary(
        src_key, shards->shard_of_domain(dst_dom),
        [self, f = &file, offset, bytes, mode, from, file_id, done] {
          const std::uint32_t ost_key = self->shards->key_of_ost(f->target_of(offset));
          f->write(offset, bytes, mode,
                   [self, from, file_id, done, ost_key](sim::Time) {
                     sim::ShardGroup& sg = *self->shards;
                     const std::size_t home = sg.shard_of_domain(
                         sg.domain_of_rank(static_cast<std::size_t>(from)));
                     sg.post_at_boundary(ost_key, home, [self, from, file_id, done] {
                       ((*self).*done)(from, file_id, self->eng().now());
                     });
                   });
        });
    return;
  }
  file.write(offset, bytes, mode, [self, from, file_id, done](sim::Time now) {
    ((*self).*done)(from, file_id, now);
  });
}

void AdaptiveRun::execute(Rank from, Actions& actions) {
  auto self = shared_from_this();
  for (auto& action : actions) {
    if (auto* send = std::get_if<SendAction>(&action)) {
      if (observing) {
        if (from == Topology::coordinator_rank()) observe_steal_grant(*send);
        // A DO_WRITE leaving an SC is the writer's release from its queue;
        // the gap to the matching kWriterStart is pure network latency.
        if (const auto* dw = std::get_if<DoWrite>(&send->msg.body)) {
          const GroupId home = topo.group_of(send->to);
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
      auto deliver_cb = [self, to, msg = std::move(send->msg)] { self->deliver(to, msg); };
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
      if (!shards) {
        role_done();
        continue;
      }
      // The role tally lives with the coordinator; ranks on other nodes hand
      // their completion over the channel plane so it is counted on its home
      // shard in canonical order.  The predicate is the coordinator's *node*
      // — same node means same engine at any domain count, and the tally is
      // commutative, so mixing direct and quantized decrements is safe.
      const std::uint32_t src_key = shards->key_of_rank(static_cast<std::size_t>(from));
      const std::uint32_t coord_key = shards->key_of_rank(
          static_cast<std::size_t>(Topology::coordinator_rank()));
      if (src_key == coord_key) {
        role_done();
      } else {
        const std::uint32_t coord_dom = shards->domain_of_rank(
            static_cast<std::size_t>(Topology::coordinator_rank()));
        shards->post_at_boundary(src_key, shards->shard_of_domain(coord_dom),
                                 [self] { self->role_done(); });
      }
    }
  }
}

void AdaptiveRun::all_roles_done() {
  result.t_data_done = eng().now();
  result.steals = coord->total_steals();
  result.grants_issued = coord->grants_issued();
  if (observing) journal_mark(obs::Mark::kDataDone);
  result.total_blocks_indexed = coord->total_blocks();
  if (cfg.retain_global_index) {
    result.global_index = std::make_shared<GlobalIndex>(coord->take_global_index());
  }
  result.output_files = files;
  result.master_file = master;

  if (!cfg.close_via_mds) {
    finish(eng().now());
    return;
  }
  auto self = shared_from_this();
  closes_remaining = files.size() + 1;
  auto closed = [self](sim::Time now) {
    if (--self->closes_remaining == 0) self->finish(now);
  };
  if (shards) {
    // all_roles_done executes on the coordinator's home shard (the role
    // tally lives there), so the coordinator's node is the entity issuing
    // the closes; a metadata server may be homed on any shard, so the
    // request and its completion ride the channel plane.
    const std::uint32_t ckey =
        shards->key_of_rank(static_cast<std::size_t>(Topology::coordinator_rank()));
    for (fs::StripedFile* file : files) fs.close_from(ckey, *file, closed);
    fs.close_from(ckey, *master, closed);
    return;
  }
  if (cfg.open_batch > 0) {
    // Mirror the batched opens: one batched CLOSE per chunk of `open_batch`
    // files per server, in global file order.
    fs::MdsGroup& tier = fs.mds_group();
    std::vector<std::size_t> chunk_items(tier.count(), 0);
    auto flush_chunk = [&](std::size_t m) {
      if (chunk_items[m] == 0) return;
      const std::size_t k = chunk_items[m];
      chunk_items[m] = 0;
      tier.submit_batch(m, fs::MetadataServer::OpKind::Close, k, [self, k](sim::Time now) {
        self->closes_remaining -= k;
        if (self->closes_remaining == 0) self->finish(now);
      });
    };
    for (std::size_t f = 0; f <= files.size(); ++f) {
      fs::StripedFile& file = f == files.size() ? *master : *files[f];
      const std::size_t m = tier.index_of(file.path());
      if (++chunk_items[m] >= cfg.open_batch) flush_chunk(m);
    }
    for (std::size_t m = 0; m < tier.count(); ++m) flush_chunk(m);
    return;
  }
  for (fs::StripedFile* file : files) fs.close(*file, closed);
  fs.close(*master, closed);
}

void AdaptiveRun::finish(sim::Time now) {
  result.t_complete = now;
  if (observing)
    journal_mark(obs::Mark::kComplete, static_cast<double>(result.steals),
                 static_cast<double>(result.grants_issued));
  on_done(result);
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
  auto run = std::make_shared<AdaptiveRun>(fs_, net_, std::move(cfg),
                                           Topology(job.n_writers(), n_files));
  run->on_done = std::move(on_done);
  run->begin(job);
}

}  // namespace aio::core
