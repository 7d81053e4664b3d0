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
#include "obs/live.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
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

  // Observability hooks from the engine; `trace` is pre-gated on the
  // protocol category so the hot paths test one pointer.
  obs::TraceSink* trace = nullptr;
  obs::Registry* metrics = nullptr;
  obs::Journal* journal = nullptr;
  obs::LivePlane* live = nullptr;
  std::uint32_t journal_run = 0;  ///< this run's id within the journal

  /// Non-null for runs homed on a sharded file system: protocol events
  /// execute on the shard owning the acting rank's domain, and every
  /// coupling that crosses a node or storage boundary (writes to OSTs, role
  /// completions to the coordinator's node) travels through the shard
  /// group's channel plane regardless of the domain layout.
  sim::ShardGroup* shards = nullptr;

  AdaptiveRun(fs::FileSystem& f, net::Network& n, AdaptiveTransport::Config c, Topology t)
      : fs(f), net(n), cfg(std::move(c)), topo(t) {
    shards = fs.shards();
    trace = fs.engine().trace();
    if (trace && !trace->wants(obs::kCatProtocol)) trace = nullptr;
    metrics = fs.engine().metrics();
    journal = fs.engine().journal();
    live = fs.engine().live();
    if (shards) {
      // The trace sink, metrics registry, and live plane are single-threaded
      // consumers; sharded runs support the journal only (one per shard
      // engine, merged canonically after the run).
      trace = nullptr;
      metrics = nullptr;
      live = nullptr;
    }
    scratch_shards_.resize(shards ? shards->n_shards() : 1);
  }

  /// Engine of the shard executing the current event (the acting rank's
  /// home); the run-wide engine on the classic path.
  [[nodiscard]] sim::Engine& eng() const {
    return shards ? *sim::current_engine() : fs.engine();
  }

  /// Journal and live plane consume the same records; one gate, one emit.
  [[nodiscard]] bool observing() const { return journal || live; }
  void obs_append(const obs::Record& r) {
    if (shards) {
      // Each shard appends to its own journal; the merge is canonical, so
      // the gate below (shard-0 pointers) is all-or-none across shards.
      if (obs::Journal* j = eng().journal()) j->append(r);
      return;
    }
    if (journal) journal->append(r);
    if (live) live->ingest(r);
  }

  void begin(const IoJob& job);
  void start_protocol();
  void execute(Rank from, Actions& actions);
  void execute(Rank from, Actions&& actions) { execute(from, actions); }
  void deliver(Rank to, const Message& msg);
  void all_roles_done();
  void finish(sim::Time now);
  void trace_steal_grant(const SendAction& send);
  void trace_steal_complete(const WriteComplete& msg);
  void journal_mark(obs::Mark mark, double v0 = 0.0, double v1 = 0.0) {
    obs::Record r;
    r.kind = obs::Rec::kRunMark;
    r.t = eng().now();
    r.id = journal_run;
    r.a = static_cast<std::uint8_t>(mark);
    r.v0 = v0;
    r.v1 = v1;
    obs_append(r);
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
  if (observing()) {
    journal_run = journal ? journal->begin_run() : 0;
    if (shards && journal) {
      // Every shard's journal counts the same runs, so run-scoped record ids
      // agree across shards (and therefore across shard counts post-merge).
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
    obs_append(r);
    for (std::size_t f = 0; f < g; ++f) {
      obs::Record m;
      m.kind = obs::Rec::kFileMap;
      m.t = result.t_begin;
      m.id = journal_run;
      m.u0 = static_cast<std::uint32_t>(f);
      m.u1 = static_cast<std::uint32_t>(ost_of_file(f));
      obs_append(m);
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
  if (observing()) journal_mark(obs::Mark::kOpenDone);
  for (GroupId grp = 0; grp < static_cast<GroupId>(topo.n_groups()); ++grp) {
    execute(topo.sc_rank(grp), scs[static_cast<std::size_t>(grp)].start());
  }
}

void AdaptiveRun::trace_steal_grant(const SendAction& send) {
  // An ADAPTIVE_WRITE_START leaving the coordinator is a steal grant: the
  // destination rank is the SC of the group being stolen *from*; the body
  // names the file being stolen *into*.
  const auto* grant = std::get_if<AdaptiveWriteStart>(&send.msg.body);
  if (!grant) return;
  if (metrics) metrics->counter("protocol.steal_grants").add();
  if (observing()) {
    const GroupId src = topo.group_of(send.to);
    obs::Record r;
    r.kind = obs::Rec::kStealGrant;
    r.t = eng().now();
    r.id = static_cast<std::uint32_t>(grant->grant_seq);
    r.u0 = static_cast<std::uint32_t>(src);
    r.u1 = static_cast<std::uint32_t>(grant->target_file);
    r.v0 = grant->offset;
    r.v1 = static_cast<double>(coord->remaining_writers(src));
    obs_append(r);
  }
  if (!trace) return;
  const GroupId source = topo.group_of(send.to);
  trace->instant(
      obs::kCatProtocol, obs::kPidProtocol, static_cast<std::uint32_t>(send.to),
      eng().now(), "steal.grant",
      {{"source_sc", obs::Json(static_cast<double>(source))},
       {"target_file", obs::Json(static_cast<double>(grant->target_file))},
       {"offset", obs::Json(grant->offset)},
       {"source_queue_depth",
        obs::Json(static_cast<double>(coord->remaining_writers(source)))},
       {"target_writes_into",
        obs::Json(static_cast<double>(coord->writes_into(grant->target_file)))}});
}

void AdaptiveRun::trace_steal_complete(const WriteComplete& msg) {
  if (metrics) metrics->counter("protocol.steals").add();
  if (observing()) {
    obs::Record r;
    r.kind = obs::Rec::kStealComplete;
    r.t = eng().now();
    r.id = static_cast<std::uint32_t>(msg.grant_seq);
    r.u0 = static_cast<std::uint32_t>(msg.origin_group);
    r.u1 = static_cast<std::uint32_t>(msg.file);
    r.u2 = static_cast<std::uint32_t>(msg.writer);
    r.v0 = msg.bytes;
    obs_append(r);
  }
  if (!trace) return;
  trace->instant(
      obs::kCatProtocol, obs::kPidProtocol, static_cast<std::uint32_t>(msg.writer),
      eng().now(), "steal.complete",
      {{"writer", obs::Json(static_cast<double>(msg.writer))},
       {"source_sc", obs::Json(static_cast<double>(msg.origin_group))},
       {"target_file", obs::Json(static_cast<double>(msg.file))},
       {"bytes", obs::Json(msg.bytes)},
       {"source_queue_depth",
        obs::Json(static_cast<double>(coord->remaining_writers(msg.origin_group)))},
       {"target_writes_into",
        obs::Json(static_cast<double>(coord->writes_into(msg.file)))}});
}

void AdaptiveRun::deliver(Rank to, const Message& msg) {
  if (trace) {
    trace->instant(obs::kCatProtocol, obs::kPidProtocol, static_cast<std::uint32_t>(to),
                   eng().now(), msg.name(),
                   {{"from", obs::Json(static_cast<double>(msg.from))}});
  }
  if (metrics) {
    metrics->counter("protocol.msgs").add();
    if (std::holds_alternative<WritersBusy>(msg.body))
      metrics->counter("protocol.busy_declines").add();
  }
  if (const auto* wc = std::get_if<WriteComplete>(&msg.body);
      wc && wc->kind == WriteComplete::Kind::AdaptiveDone &&
      (trace || metrics || journal || live)) {
    trace_steal_complete(*wc);
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
  if (trace) trace->end(obs::kCatProtocol, obs::kPidProtocol, static_cast<std::uint32_t>(from), now);
  if (observing()) {
    obs::Record r;
    r.kind = obs::Rec::kWriterEnd;
    r.t = now;
    r.id = static_cast<std::uint32_t>(from);
    r.u0 = file;
    obs_append(r);
  }
  execute(from, writers->on_write_done(from));
}

void AdaptiveRun::sc_index_write_done(Rank from, std::uint32_t, sim::Time now) {
  if (trace) trace->end(obs::kCatProtocol, obs::kPidProtocol, static_cast<std::uint32_t>(from), now);
  execute(from, sc_at(from).on_index_write_done());
}

void AdaptiveRun::coord_gidx_write_done(Rank from, std::uint32_t, sim::Time now) {
  if (trace) trace->end(obs::kCatProtocol, obs::kPidProtocol, static_cast<std::uint32_t>(from), now);
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
      if ((trace || metrics || journal || live) && from == Topology::coordinator_rank())
        trace_steal_grant(*send);
      if (observing()) {
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
          obs_append(r);
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
      if (trace) {
        trace->begin(obs::kCatProtocol, obs::kPidProtocol, static_cast<std::uint32_t>(from),
                     eng().now(), "write",
                     {{"file", obs::Json(static_cast<double>(write->file))},
                      {"offset", obs::Json(write->offset)},
                      {"bytes", obs::Json(write->bytes)}});
      }
      const auto file = static_cast<std::uint32_t>(write->file);
      if (observing()) {
        obs::Record r;
        r.kind = obs::Rec::kWriterStart;
        r.t = eng().now();
        r.id = static_cast<std::uint32_t>(from);
        r.u0 = file;
        r.v0 = write->bytes;
        obs_append(r);
      }
      issue_write(from, *files.at(static_cast<std::size_t>(write->file)), write->offset,
                  write->bytes, data_mode, file, &AdaptiveRun::writer_write_done);
    } else if (const auto* widx = std::get_if<WriteIndexAction>(&action)) {
      if (trace) {
        trace->begin(obs::kCatProtocol, obs::kPidProtocol, static_cast<std::uint32_t>(from),
                     eng().now(), "index_write",
                     {{"file", obs::Json(static_cast<double>(widx->file))},
                      {"bytes", obs::Json(widx->bytes)}});
      }
      issue_write(from, *files.at(static_cast<std::size_t>(widx->file)), widx->offset,
                  widx->bytes, fs::Ost::Mode::Durable, static_cast<std::uint32_t>(widx->file),
                  &AdaptiveRun::sc_index_write_done);
    } else if (const auto* gidx = std::get_if<WriteGlobalIndexAction>(&action)) {
      if (trace) {
        trace->begin(obs::kCatProtocol, obs::kPidProtocol, static_cast<std::uint32_t>(from),
                     eng().now(), "global_index_write",
                     {{"bytes", obs::Json(gidx->bytes)}});
      }
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
  if (observing()) journal_mark(obs::Mark::kDataDone);
  if (metrics) {
    metrics->counter("protocol.runs").add();
    metrics->gauge("protocol.last_steals").set(static_cast<double>(result.steals));
    metrics->gauge("protocol.last_grants").set(static_cast<double>(result.grants_issued));
    obs::Histogram& h = metrics->histogram("protocol.writer_s");
    for (const auto& wt : result.writer_times) h.add(wt.end - wt.start);
  }
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
  if (observing())
    journal_mark(obs::Mark::kComplete, static_cast<double>(result.steals),
                 static_cast<double>(result.grants_issued));
  if (metrics) metrics->histogram("protocol.run_s").add(result.t_complete - result.t_begin);
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
