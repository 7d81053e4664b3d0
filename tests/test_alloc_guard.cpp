// Allocation-count regression guard for the protocol hot path.
//
// Replaces global operator new with a counting hook and asserts that, after
// a warm-up pass has populated every freelist and scratch buffer (engine
// event slots, NIC stream slots, OST op vectors, SmallVector inline storage),
// the steady-state paths allocate NOTHING:
//
//   * scheduling + dispatching an engine event, on the queue or a lane, at
//     any time scale,
//   * sending + delivering a protocol-sized network message,
//   * an OST write round-trip,
//   * every control-plane FSM step a delivered message triggers
//     (DO_WRITE, WRITE_COMPLETE, steal grant / decline handling);
//
// and that an SC's index phase with the index kept allocates at most once,
// a network's NIC state allocates the same at any node count, and a run's
// result reaches its callback without a copy.
//
// If a future change reintroduces a per-message allocation — a widened
// closure falling off the SBO, a map node per stream, a vector rebuilt per
// call — these tests fail with the exact count.
//
// The hook also records the largest request it counted, and refuses any
// request over 1 GiB outright: a hostile count that sizes an allocation
// fails with bad_alloc instead of exhausting the machine's memory.
//
// The hook counts only between guard.start()/guard.stop(), so gtest and
// library internals outside the measured region don't pollute the numbers.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "core/protocol/coordinator_fsm.hpp"
#include "core/protocol/subcoordinator_fsm.hpp"
#include "core/protocol/writer_pool.hpp"
#include "core/transports/adaptive_transport.hpp"
#include "core/transports/layout.hpp"
#include "fs/filesystem.hpp"
#include "fs/mds.hpp"
#include "fs/ost.hpp"
#include "net/network.hpp"
#include "obs/analysis.hpp"
#include "obs/journal.hpp"
#include "obs/prof.hpp"
#include "sim/engine.hpp"
#include "sim/shard.hpp"
#include "workload/pixie3d.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocs{0};
std::atomic<std::size_t> g_largest{0};

constexpr std::size_t kRefuseAbove = std::size_t{1} << 30;

void note_alloc(std::size_t n) {
  if (n > kRefuseAbove) throw std::bad_alloc();
  if (!g_counting.load(std::memory_order_relaxed)) return;
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  std::size_t seen = g_largest.load(std::memory_order_relaxed);
  while (n > seen && !g_largest.compare_exchange_weak(seen, n, std::memory_order_relaxed)) {
  }
}

}  // namespace

// Minimal replacement set: every allocating form funnels through malloc so
// sized/unsized deletes stay matched.  Works under ASan too (the malloc
// beneath is still intercepted), which is where CI runs this test.
// Out of line, like the sized delete below: when GCC inlines one of the two
// it sees malloc paired with operator delete (or operator new with free)
// and warns -Wmismatched-new-delete, though the pair is matched.
[[gnu::noinline]] void* operator new(std::size_t n) {
  note_alloc(n);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  note_alloc(n);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(al), n ? n : 1) != 0) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n, std::align_val_t al) { return ::operator new(n, al); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace {

using namespace aio;
using namespace aio::core;

class AllocGuard {
 public:
  void start() {
    g_allocs.store(0, std::memory_order_relaxed);
    g_largest.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
  }
  std::size_t stop() {
    g_counting.store(false, std::memory_order_relaxed);
    return g_allocs.load(std::memory_order_relaxed);
  }
  /// Largest single request between the last start() and stop().
  [[nodiscard]] std::size_t largest() const { return g_largest.load(std::memory_order_relaxed); }
};

// --- engine ------------------------------------------------------------------

TEST(AllocGuard, EngineEventCycleIsAllocationFree) {
  sim::Engine engine;
  int fired = 0;
  const auto burst = [&] {
    for (int i = 0; i < 64; ++i)
      engine.schedule_after(1e-6 * (i + 1), [&fired] { ++fired; });
    engine.run();
  };
  burst();  // warm-up: slot table and queue reach steady-state capacity

  AllocGuard guard;
  guard.start();
  burst();
  EXPECT_EQ(guard.stop(), 0u) << "engine schedule/dispatch allocated";
  EXPECT_EQ(fired, 128);
}

TEST(AllocGuard, EngineFixedLaneCycleIsAllocationFree) {
  // 64 chains on each of two lanes, each link re-scheduling the next on its
  // own lane, beside queue events: the rings wrap without growing.
  sim::Engine engine;
  int fired = 0;
  struct Chain {
    sim::Engine* engine;
    int* fired;
    double delay;
    int left;
    void operator()() {
      ++*fired;
      if (--left > 0) engine->schedule_fixed(delay, *this);
    }
  };
  const auto cycle = [&](int links) {
    for (int i = 0; i < 64; ++i) {
      engine.schedule_fixed(8e-6, Chain{&engine, &fired, 8e-6, links});
      engine.schedule_fixed(12e-3, Chain{&engine, &fired, 12e-3, links});
      engine.schedule_after(1e-6 * (i + 1), [&fired] { ++fired; });
    }
    engine.run();
  };
  cycle(1);  // warm-up: both rings and the slot table reach steady capacity

  AllocGuard guard;
  guard.start();
  cycle(8);
  EXPECT_EQ(guard.stop(), 0u) << "fixed-lane schedule/dispatch allocated";
  EXPECT_EQ(fired, 3 * 64 + (2 * 8 + 1) * 64);
}

// The queue files a node by the highest bit in which its time key differs
// from the radix point, so a later epoch lands keys in buckets an earlier
// one never used.  Bucket nodes come from one pool, so the same cycle a
// thousand seconds on allocates nothing: a 672-event same-instant batch, as
// the clean machine's lock-stepped groups make, beside chains whose delays
// span 1e-9 s to 1 s.
TEST(AllocGuard, EngineQueueAcrossTimeScalesIsAllocationFree) {
  sim::Engine engine;
  int fired = 0;
  struct Chain {
    sim::Engine* engine;
    int* fired;
    double delay;
    int left;
    void operator()() {
      ++*fired;
      if (--left > 0) engine->schedule_after(delay, *this);
    }
  };
  const auto cycle = [&](sim::Time epoch) {
    for (int i = 0; i < 672; ++i) engine.schedule_at(epoch, [&fired] { ++fired; });
    double delay = 1e-9;
    for (int k = 0; k < 10; ++k, delay *= 10.0)
      engine.schedule_at(epoch, Chain{&engine, &fired, delay, 8});
    engine.run();
  };
  cycle(1.0);  // warm-up: slot table, bucket pool and near run reach steady capacity

  AllocGuard guard;
  guard.start();
  cycle(1e3);
  EXPECT_EQ(guard.stop(), 0u) << "the queue allocated at a new time scale";
  EXPECT_EQ(fired, 2 * (672 + 10 * 8));
}

// Lane events that fire ahead of every queued event must leave the radix
// point where it is, so what they schedule lands in the warm bucket pool.
// Were the queue settled before the lanes are consulted, the point would
// jump to the far event and each schedule would fall below it into the near
// run, which the warm-up (one event per instant) left at one node.
TEST(AllocGuard, EngineLaneEventsLeaveTheRadixPointAlone) {
  sim::Engine engine;
  int fired = 0;
  struct Link {
    sim::Engine* engine;
    int* fired;
    int left;
    void operator()() {
      ++*fired;
      engine->schedule_after(10.0, [fired = fired] { ++*fired; });
      if (--left > 0) engine->schedule_fixed(1e-3, *this);
    }
  };
  for (int i = 0; i < 256; ++i) engine.schedule_at(1.0 + 1e-3 * i, [&fired] { ++fired; });
  engine.schedule_fixed(1e-3, Link{&engine, &fired, 1});
  engine.run();  // warm-up: slot table, bucket pool and lane ring

  AllocGuard guard;
  guard.start();
  engine.schedule_after(100.0, [&fired] { ++fired; });
  engine.schedule_fixed(1e-3, Link{&engine, &fired, 64});
  engine.run();
  EXPECT_EQ(guard.stop(), 0u) << "lane events moved the radix point";
  EXPECT_EQ(fired, 256 + 2 + 1 + 2 * 64);
}

// --- network delivery --------------------------------------------------------

TEST(AllocGuard, MessageDeliveryIsAllocationFree) {
  sim::Engine engine;
  net::Network net(engine, net::NetConfig{}, 16);

  // Model the adaptive transport's deliver closure: a shared_ptr to the run
  // state, a destination rank, and a full 56-byte protocol Message.
  auto run_state = std::make_shared<int>(0);
  const auto burst = [&] {
    for (net::Rank r = 1; r < 16; ++r) {
      Message msg{0, WriteComplete{}};
      const double bytes = msg.wire_bytes();
      auto deliver = [run_state, r, msg = std::move(msg)] {
        *run_state += static_cast<int>(r) + static_cast<int>(msg.from);
      };
      static_assert(sizeof(deliver) <= 96, "deliver closure must fit the engine SBO");
      net.send(0, r, bytes, std::move(deliver));
    }
    engine.run();
  };
  burst();  // warm-up: NIC stream slots + engine slots

  AllocGuard guard;
  guard.start();
  burst();
  EXPECT_EQ(guard.stop(), 0u) << "network send/deliver allocated per message";
}

// The NICs are links of one fluid resource per engine, so building a
// network allocates the same at 18,680 nodes (224,160 ranks) as at 86, over
// one engine or a shard group.
TEST(AllocGuard, NetworkBuildDoesNotFollowTheNodeCount) {
  const auto build = [](sim::Homes homes, std::size_t n_ranks) {
    AllocGuard guard;
    guard.start();
    net::Network net(homes, net::NetConfig{}, n_ranks);
    const std::size_t allocs = guard.stop();
    EXPECT_EQ(net.n_nodes(), (n_ranks + 11) / 12);
    return allocs;
  };
  sim::Engine engine;
  EXPECT_EQ(build(engine, 224160), build(engine, 1024));

  const auto build_sharded = [&build](std::size_t n_ranks) {
    sim::ShardGroup::Config c;
    c.n_shards = 4;
    c.n_ranks = n_ranks;
    c.ranks_per_node = 12;
    c.n_osts = 672;
    sim::ShardGroup group(c);
    return build(group, n_ranks);
  };
  EXPECT_EQ(build_sharded(224160), build_sharded(1024));
}

// --- OST write round-trip ----------------------------------------------------

TEST(AllocGuard, OstWriteCycleIsAllocationFree) {
  sim::Engine engine;
  fs::Ost ost(engine, fs::Ost::Config{}, 0);
  const auto burst = [&] {
    for (int i = 0; i < 8; ++i)
      ost.write(1 << 20, fs::Ost::Mode::Durable, [](sim::Time) {});
    engine.run();
  };
  burst();  // warm-up: op vector capacity, drain events, scratch

  AllocGuard guard;
  guard.start();
  burst();
  EXPECT_EQ(guard.stop(), 0u) << "OST write/completion allocated per op";
}

// --- journal append ----------------------------------------------------------

// The journal is wired into the same hot paths the other guards protect, so
// its append must be a POD push into reserved capacity — nothing else.
TEST(AllocGuard, JournalAppendIsAllocationFree) {
  obs::Journal journal({/*path=*/"", /*max_records=*/1u << 16});
  journal.reserve(1u << 16);

  AllocGuard guard;
  guard.start();
  for (std::uint32_t i = 0; i < 4096; ++i) {
    obs::Record r;
    r.kind = obs::Rec::kWriterStart;
    r.t = static_cast<double>(i);
    r.id = i;
    journal.append(r);
  }
  EXPECT_EQ(guard.stop(), 0u) << "journal append allocated in steady state";
  EXPECT_EQ(journal.records().size(), 4096u);
}

// An instrumented OST write round-trip must stay allocation-free with the
// journal attached: state observations append, never allocate.
TEST(AllocGuard, OstWriteCycleWithJournalIsAllocationFree) {
  obs::Journal journal({/*path=*/"", /*max_records=*/1u << 16});
  journal.reserve(1u << 16);
  sim::Engine engine(&journal);
  fs::Ost ost(engine, fs::Ost::Config{}, 0);
  const auto burst = [&] {
    for (int i = 0; i < 8; ++i)
      ost.write(1 << 20, fs::Ost::Mode::Durable, [](sim::Time) {});
    engine.run();
  };
  burst();  // warm-up: op vector capacity, drain events, journal capacity

  AllocGuard guard;
  guard.start();
  burst();
  EXPECT_EQ(guard.stop(), 0u) << "journaled OST write cycle allocated per op";
  EXPECT_GT(journal.records().size(), 0u);
}

// --- protocol FSM steps ------------------------------------------------------

Rank sc_of(GroupId g) { return g * 4; }

TEST(AllocGuard, WriterStepsAreAllocationFree) {
  static const double kBytes = 1000.0;
  WriterPool::Layout layout;
  layout.first_rank = 1;
  layout.group_of = [](Rank) { return GroupId{0}; };
  layout.sc_of = sc_of;
  layout.bytes = std::span<const double>(&kBytes, 1);
  // The index size is read here, outside the guard.
  WriterPool w(std::move(layout), [](Rank rank) {
    BlockRecord b;
    b.writer = rank;
    b.length = 1000;
    b.global_dims = {64, 64, 64};
    b.offsets = {0, 0, 0};
    b.counts = {4, 4, 4};
    LocalIndex blueprint;
    blueprint.writer = rank;
    blueprint.blocks.push_back(b);
    return IndexSize::of(blueprint);
  });

  AllocGuard guard;
  guard.start();
  const Actions a1 = w.on_do_write(1, DoWrite{0, 0.0});
  const Actions a2 = w.on_write_done(1);
  EXPECT_EQ(guard.stop(), 0u) << "writer FSM allocated per delivered message";
  EXPECT_EQ(a1.size(), 1u);
  EXPECT_EQ(a2.size(), 3u);
}

TEST(AllocGuard, SubCoordinatorControlStepsAreAllocationFree) {
  static const double kMemberBytes[4] = {1000.0, 1000.0, 1000.0, 1000.0};
  SubCoordinatorFsm::Config c;
  c.group = 0;
  c.rank = 0;
  c.coordinator = 0;
  c.first_member = 0;
  c.n_members = 4;
  c.member_bytes = kMemberBytes;
  SubCoordinatorFsm sc(c);
  const Actions first = sc.start();
  ASSERT_EQ(first.size(), 1u);

  WriteComplete done;
  done.kind = WriteComplete::Kind::WriterDone;
  done.writer = 0;
  done.origin_group = 0;
  done.file = 0;
  done.bytes = 1000.0;

  AllocGuard guard;
  guard.start();
  // A mid-group local completion: ack + signal the next waiting writer.
  const Actions a = sc.on_write_complete(done);
  EXPECT_EQ(guard.stop(), 0u) << "SC completion handling allocated";
  ASSERT_EQ(a.size(), 1u);
  EXPECT_TRUE(std::holds_alternative<SendAction>(a[0]));
}

// With the index kept, an SC only notes each INDEX_BODY's writer and offset
// in a list reserved for its members at construction: none allocates.
TEST(AllocGuard, SubCoordinatorIndexBodyIsAllocationFree) {
  static const double kMemberBytes[4] = {1000.0, 1000.0, 1000.0, 1000.0};
  const LocalIndex blueprint = [] {
    LocalIndex local;
    for (int v = 0; v < 3; ++v) {
      BlockRecord b;
      b.var_id = static_cast<std::uint32_t>(v);
      b.length = 1000;
      b.global_dims = {64, 64, 64};
      b.offsets = {0, 0, 0};
      b.counts = {4, 4, 4};
      local.blocks.push_back(b);
    }
    return local;
  }();
  SubCoordinatorFsm::Config c;
  c.group = 0;
  c.rank = 0;
  c.coordinator = 0;
  c.first_member = 0;
  c.n_members = 4;
  c.member_bytes = kMemberBytes;
  c.keep_placements = true;
  SubCoordinatorFsm sc(c);
  (void)sc.start();
  const auto body = [&blueprint](Rank writer) {
    return IndexBody{writer, 0, static_cast<std::uint64_t>(writer) * 3000,
                     blueprint.serialized_size(), blueprint.blocks.size()};
  };

  AllocGuard guard;
  guard.start();
  const Actions a0 = sc.on_index_body(body(0));
  const Actions a1 = sc.on_index_body(body(1));
  const Actions a2 = sc.on_index_body(body(2));
  const Actions a3 = sc.on_index_body(body(3));
  EXPECT_EQ(guard.stop(), 0u) << "SC INDEX_BODY handling allocated";
  EXPECT_TRUE(a0.empty() && a1.empty() && a2.empty() && a3.empty());
  EXPECT_EQ(sc.indices_received(), 4u);
}

// With the index kept, an SC's whole index phase — its last INDEX_BODY,
// OVERALL_WRITE_COMPLETE, the index-write completion and the SUB_INDEX it
// ships, delivered to the coordinator — builds no block record: it
// allocates at most once (a steal overflowing the members' reservation),
// however many writers landed in its file.
TEST(AllocGuard, SubCoordinatorIndexPhaseAllocatesAtMostOnce) {
  const LocalIndex blueprint = [] {
    LocalIndex local;
    for (int v = 0; v < 8; ++v) {
      BlockRecord b;
      b.var_id = static_cast<std::uint32_t>(v);
      b.length = 1000;
      b.global_dims = {64, 64, 64};
      b.offsets = {0, 0, 0};
      b.counts = {4, 4, 4};
      local.blocks.push_back(b);
    }
    return local;
  }();
  for (const std::size_t members : {1u, 2u, 8u, 64u, 1000u}) {
    for (const std::size_t stolen_in : {0u, 1u, 3u}) {
      const std::vector<double> member_bytes(members, 8000.0);
      SubCoordinatorFsm::Config c;
      c.group = 0;
      c.rank = 0;
      c.coordinator = 0;
      c.first_member = 0;
      c.n_members = members;
      c.member_bytes = member_bytes;
      c.keep_placements = true;
      SubCoordinatorFsm sc(c);
      (void)sc.start();

      // A one-group coordinator past its data phase, gathering sub-indices.
      CoordinatorFsm::Config cc;
      cc.n_groups = 1;
      cc.group_size_of = [members](GroupId) { return members; };
      cc.sc_of = sc_of;
      cc.stealing_enabled = false;
      cc.blueprint = [&blueprint](Rank) { return blueprint; };
      CoordinatorFsm coord(cc);
      WriteComplete group_done;
      group_done.kind = WriteComplete::Kind::GroupDone;
      group_done.origin_group = 0;
      group_done.file = 0;
      (void)coord.on_write_complete(group_done);

      const std::size_t arrivals = members + stolen_in;
      const auto body = [&blueprint](std::size_t i) {
        return IndexBody{static_cast<Rank>(i), 0, static_cast<std::uint64_t>(i) * 8000,
                         blueprint.serialized_size(), blueprint.blocks.size()};
      };
      for (std::size_t i = 0; i + 1 < arrivals; ++i) (void)sc.on_index_body(body(i));

      AllocGuard guard;
      guard.start();
      const Actions last = sc.on_index_body(body(arrivals - 1));
      const Actions write = sc.on_overall_write_complete(
          OverallWriteComplete{arrivals, 8000.0 * static_cast<double>(arrivals)});
      const Actions fin = sc.on_index_write_done();
      const SendAction& ship = std::get<SendAction>(fin[0]);
      const Actions gathered = coord.on_sub_index(std::get<SubIndex>(ship.msg.body));
      const std::size_t allocs = guard.stop();
      EXPECT_LE(allocs, 1u) << members << " members, " << stolen_in << " stolen in";
      EXPECT_TRUE(last.empty());
      EXPECT_EQ(write.size(), 1u);
      ASSERT_EQ(gathered.size(), 1u);
      EXPECT_TRUE(std::holds_alternative<WriteGlobalIndexAction>(gathered[0]));
      EXPECT_EQ(coord.kept_index().build().total_blocks(), arrivals * 8);
    }
  }
}

TEST(AllocGuard, StealGrantPathIsAllocationFree) {
  // Coordinator with two groups; group 1 finishes first and its file is
  // refilled from group 0 — the adaptive-write steal cycle of Algorithm 3.
  CoordinatorFsm::Config cc;
  cc.n_groups = 2;
  cc.group_size_of = [](GroupId) { return std::size_t{4}; };
  cc.sc_of = sc_of;
  CoordinatorFsm coord(cc);

  WriteComplete group_done;
  group_done.kind = WriteComplete::Kind::GroupDone;
  group_done.origin_group = 1;
  group_done.file = 1;
  group_done.final_offset = 4000.0;
  const Actions grant0 = coord.on_write_complete(group_done);
  ASSERT_EQ(grant0.size(), 1u);  // first steal grant issued

  // The SC side of a grant: redirect one waiting writer.
  static const double kMemberBytes[4] = {1000.0, 1000.0, 1000.0, 1000.0};
  SubCoordinatorFsm::Config scc;
  scc.group = 0;
  scc.rank = 0;
  scc.coordinator = 0;
  scc.first_member = 0;
  scc.n_members = 4;
  scc.member_bytes = kMemberBytes;
  SubCoordinatorFsm sc(scc);
  (void)sc.start();

  WriteComplete adaptive_done;
  adaptive_done.kind = WriteComplete::Kind::AdaptiveDone;
  adaptive_done.writer = 1;
  adaptive_done.origin_group = 0;
  adaptive_done.file = 1;
  adaptive_done.bytes = 1000.0;

  AllocGuard guard;
  guard.start();
  // Steady-state steal cycle: grant accepted by the SC, completion returns
  // to the coordinator, which immediately issues the next grant.
  const Actions redirect = sc.on_adaptive_write_start(AdaptiveWriteStart{1, 4000.0});
  const Actions regrant = coord.on_write_complete(adaptive_done);
  EXPECT_EQ(guard.stop(), 0u) << "steal grant cycle allocated";
  ASSERT_EQ(redirect.size(), 1u);
  ASSERT_EQ(regrant.size(), 1u);
  EXPECT_EQ(coord.total_steals(), 1u);

  // The decline path (WRITERS_BUSY) is equally hot under contention.
  ASSERT_TRUE(std::holds_alternative<SendAction>(regrant[0]));
  guard.start();
  const Actions decline = coord.on_writers_busy(WritersBusy{0, 1});
  EXPECT_EQ(guard.stop(), 0u) << "WRITERS_BUSY handling allocated";
  (void)decline;
}

// --- adaptive run setup ------------------------------------------------------

// Setup cost must scale like O(writers + groups) with a small per-writer
// constant: the pooled writer storage allocates each writer's blueprint (one
// block vector) plus amortized column growth, and nothing else.  The
// per-rank-actor layout this replaced paid several allocations per writer
// (FSM config copies, per-writer shared_ptr control blocks, resolver
// copies); a regression back to that shape trips the slope bound.
TEST(AllocGuard, AdaptiveRunSetupAllocsScaleLinearly) {
  const auto setup_allocs = [](std::size_t n_writers) {
    sim::Engine engine;
    fs::FsConfig fc;
    fc.n_osts = 16;
    fs::FileSystem filesystem(engine, fc);
    net::Network network(engine, net::NetConfig{}, n_writers);
    core::AdaptiveTransport::Config cfg;
    cfg.n_files = 16;
    core::AdaptiveTransport transport(filesystem, network, cfg);
    const core::IoJob job = core::IoJob::uniform(n_writers, 1e6);
    bool done = false;

    AllocGuard guard;
    guard.start();
    transport.run(job, [&done](core::IoResult) { done = true; });
    const std::size_t allocs = guard.stop();
    engine.run();  // drain so the run completes and tears down cleanly
    EXPECT_TRUE(done);
    return allocs;
  };

  const std::size_t n1 = 1024, n2 = 4096;
  const std::size_t a1 = setup_allocs(n1);
  const std::size_t a2 = setup_allocs(n2);
  ASSERT_GT(a2, a1);
  const std::size_t per_writer = (a2 - a1) / (n2 - n1);
  EXPECT_LE(per_writer, 4u) << "adaptive begin() allocates " << per_writer
                            << " times per writer (a1=" << a1 << ", a2=" << a2 << ")";
}

// Setup reads each writer's index size from its job and builds no index to
// learn it: Pixie3D declares its (rank-independent) size.  So setup calls no
// blueprint, and its allocation count does not grow with the writers,
// whether the run keeps the global index or not.  Sizing each writer from
// its blueprint costs one call and one block vector per writer.
TEST(AllocGuard, AdaptiveRunSetupBuildsNoBlueprint) {
  struct Setup {
    std::size_t allocs = 0;
    std::size_t blueprint_calls = 0;
  };
  const auto setup = [](core::IoJob job, bool keep_index) {
    auto calls = std::make_shared<std::size_t>(0);
    job.blueprint = [inner = job.blueprint, calls](Rank r) {
      ++*calls;
      return inner(r);
    };
    sim::Engine engine;
    fs::FsConfig fc;
    fc.n_osts = 16;
    fs::FileSystem filesystem(engine, fc);
    net::Network network(engine, net::NetConfig{}, job.n_writers());
    core::AdaptiveTransport::Config cfg;
    cfg.n_files = 16;
    cfg.retain_global_index = keep_index;
    core::AdaptiveTransport transport(filesystem, network, cfg);
    bool done = false;

    AllocGuard guard;
    guard.start();
    transport.run(job, [&done](core::IoResult) { done = true; });
    const Setup out{guard.stop(), *calls};
    engine.run();
    EXPECT_TRUE(done);
    return out;
  };

  const std::size_t n1 = 1024, n2 = 4096;
  const auto job = [](std::size_t n) {
    return workload::pixie3d_job(workload::Pixie3dConfig::small_model(), n);
  };
  for (const bool keep_index : {true, false}) {
    const Setup s1 = setup(job(n1), keep_index);
    const Setup s2 = setup(job(n2), keep_index);
    const char* what = keep_index ? "index kept" : "sizes only";
    EXPECT_EQ(s1.blueprint_calls, 0u) << what << " at " << n1 << " writers";
    EXPECT_EQ(s2.blueprint_calls, 0u) << what << " at " << n2 << " writers";
    ASSERT_GE(s2.allocs, s1.allocs) << what;
    EXPECT_EQ((s2.allocs - s1.allocs) / (n2 - n1), 0u)
        << what << ": setup allocates per writer (a1=" << s1.allocs << ", a2=" << s2.allocs
        << ")";
  }
}

// A transport hands its result to on_done by move.  A copy would be a
// second writer_times vector (16 bytes a writer, 1 MiB at 65,536 writers),
// live at the run's peak, so no allocation during the run may be that large.
TEST(AllocGuard, AdaptiveResultReachesOnDoneByMove) {
  const std::size_t n = 65536;
  sim::Engine engine;
  fs::FsConfig fc;
  fc.n_osts = 64;
  fs::FileSystem filesystem(engine, fc);
  net::Network network(engine, net::NetConfig{}, n);
  core::AdaptiveTransport::Config cfg;
  cfg.retain_global_index = false;
  core::AdaptiveTransport transport(filesystem, network, cfg);
  std::size_t timed = 0;
  transport.run(core::IoJob::uniform(n, 1e6),
                [&timed](core::IoResult r) { timed = r.writer_times.size(); });

  AllocGuard guard;
  guard.start();
  engine.run();
  guard.stop();
  ASSERT_EQ(timed, n);
  EXPECT_LT(guard.largest(), n * sizeof(core::WriterTiming))
      << "a run allocated a block the size of its writer_times";
}

// --- metadata tier -----------------------------------------------------------

// A journaled create storm through the metadata server.  The service events
// themselves are allocation-free (the in-service request is a member, so the
// event closure is a this-pointer), but the FIFO queue is a deque whose
// chunk churn amortizes to well under one allocation per queued request —
// budget it so a widened closure (SBO spill) or a per-op allocation shows up
// as a multiple, not a rounding error.
TEST(AllocGuard, MdsCreateStormStaysWithinQueueChunkBudget) {
  obs::Journal journal({/*path=*/"", /*max_records=*/1u << 16});
  journal.reserve(1u << 16);
  sim::Engine engine(&journal);
  fs::MetadataServer mds(engine, fs::MetadataServer::Config{});
  const auto burst = [&] {
    for (int i = 0; i < 256; ++i)
      mds.submit(fs::MetadataServer::OpKind::Create, [](sim::Time) {});
    engine.run();
  };
  burst();  // warm-up: engine slots, journal capacity, deque spine

  AllocGuard guard;
  guard.start();
  burst();
  const std::size_t allocs = guard.stop();
  EXPECT_LE(allocs, 96u) << "MDS storm allocated " << allocs
                         << " times for 256 creates (queue chunk churn only)";
}

// Batching shrinks the queue itself: the same 256 creates as 4-item batches
// must allocate several times less than the per-file storm above.
TEST(AllocGuard, BatchedMdsStormAllocatesLessThanPerFile) {
  sim::Engine engine;
  fs::MetadataServer mds(engine, fs::MetadataServer::Config{});
  const auto storm = [&](std::size_t items) {
    for (std::size_t i = 0; i < 256 / items; ++i)
      mds.submit_batch(fs::MetadataServer::OpKind::Create, items, [](sim::Time) {});
    engine.run();
  };
  storm(1);  // warm-up
  AllocGuard guard;
  guard.start();
  storm(1);
  const std::size_t perfile = guard.stop();
  guard.start();
  storm(4);
  const std::size_t batched = guard.stop();
  EXPECT_LE(batched * 2, perfile)
      << "batched storm allocated " << batched << " vs per-file " << perfile;
}

// --- index decoders ----------------------------------------------------------

/// Little-endian u32 appended to `out`.
void put_le32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

// A hostile header must not buy an allocation: the decoder of the index
// files the thread runtime reads back bounds every count by what the
// remaining bytes could hold before sizing anything.
TEST(AllocGuard, HostileIndexCountsAllocateNothingUpFront) {
  constexpr std::uint32_t kFileMagic = 0x41494F46u;  // "AIOF"
  std::vector<std::uint8_t> header;
  put_le32(header, kFileMagic);
  put_le32(header, 0);         // file
  put_le32(header, 1u << 24);  // claimed blocks, none present
  ASSERT_EQ(header.size(), FileIndex::kHeaderBytes);

  AllocGuard guard;
  guard.start();
  const bool decoded = FileIndex::deserialize(header).has_value();
  EXPECT_EQ(guard.stop(), 0u) << "12-byte file index allocated for its claimed blocks";
  EXPECT_FALSE(decoded);

  // One real block whose first dim list claims 2^20 entries: only the block
  // record itself may be allocated, never the claimed dims.
  LocalIndex one;
  one.blocks.emplace_back();
  FileIndex file(0);
  file.merge(one);
  std::vector<std::uint8_t> bytes = file.serialize();
  const std::size_t dims_at = FileIndex::kHeaderBytes + 4 + 4 + 8 + 8;
  for (int i = 0; i < 4; ++i) bytes[dims_at + i] = static_cast<std::uint8_t>((1u << 20) >> (8 * i));
  guard.start();
  const bool dims_decoded = FileIndex::deserialize(bytes).has_value();
  EXPECT_LE(guard.stop(), 1u) << "dim list allocated for its claimed length";
  EXPECT_FALSE(dims_decoded);
}

// --- analyzer over untrusted ids ---------------------------------------------

// A journal read from a file is untrusted (tools/aio_report, flight dumps):
// no id or count in it may size an allocation.  Twelve records, one run of
// every simulated kind, with every id and count 0xFFFFFFFF.  The writer and
// the steal chain are complete, so the report counts both.
TEST(AllocGuard, AnalyzerSizesNothingFromRecordIds) {
  constexpr std::uint32_t kMax = 0xFFFFFFFFu;
  obs::Journal journal({/*path=*/"", /*max_records=*/64});
  const auto add = [&journal](obs::Rec kind, double t, obs::Mark mark = obs::Mark::kOpenDone) {
    obs::Record r;
    r.kind = kind;
    r.t = t;
    r.id = r.u0 = r.u1 = r.u2 = kMax;
    r.a = static_cast<std::uint8_t>(mark);
    journal.append(r);
  };
  add(obs::Rec::kRunBegin, 0.0);
  add(obs::Rec::kFileMap, 0.0);
  add(obs::Rec::kMdsOp, 0.05);
  add(obs::Rec::kRunMark, 0.1, obs::Mark::kOpenDone);
  add(obs::Rec::kOstState, 0.2);
  add(obs::Rec::kWriterSignal, 0.3);
  add(obs::Rec::kWriterStart, 0.4);
  add(obs::Rec::kStealGrant, 0.5);
  add(obs::Rec::kWriterEnd, 0.6);
  add(obs::Rec::kStealComplete, 0.7);
  add(obs::Rec::kRunMark, 0.8, obs::Mark::kDataDone);
  add(obs::Rec::kRunMark, 0.9, obs::Mark::kComplete);
  ASSERT_EQ(journal.records().size(), 12u);

  AllocGuard guard;
  obs::Json report;
  guard.start();
  EXPECT_NO_THROW(report = obs::analyze(journal));
  (void)guard.stop();
  EXPECT_LT(guard.largest(), std::size_t{64} << 10) << "largest request " << guard.largest();
  const obs::Json* summary = report.find("summary");
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(summary->find("writers")->number(), 1.0);
  EXPECT_EQ(summary->find("steal_savings")->find("completed")->number(), 1.0);
}

// --- shard-runtime profiler --------------------------------------------------

// The profiler's worker-side surface — slot accumulation each barrier round,
// plus the aggregations its readers take — must be allocation-free once
// bind() has sized the slot array: armed profiling may read the host clock,
// but it must never touch the allocator from the round loop.
TEST(AllocGuard, ShardProfilerSteadyStateIsAllocationFree) {
  obs::prof::ShardProfiler prof;
  prof.bind(8);  // the one allocation, outside the guard

  AllocGuard guard;
  guard.start();
  for (std::uint64_t round = 0; round < 1024; ++round) {
    for (std::size_t s = 0; s < prof.n_shards(); ++s) {
      obs::prof::ShardProfiler::Slot& slot = prof.slot(s);
      slot.execute_s += 1e-6;
      slot.barrier_s += 2e-7;
      slot.merge_s += 1e-7;
      slot.skip_s += 5e-8;
      ++slot.rounds;
      slot.events += 3;
      slot.msgs_posted += 1;
      slot.msgs_drained += 1;
      if (slot.backlog_hw < round) slot.backlog_hw = round;
    }
    if ((round & 255u) == 0u) {
      // What macro_jaguar and the perf harness read after a run.
      const obs::prof::ShardProfiler::Slot t = prof.totals();
      const double imb = prof.imbalance();
      ASSERT_GE(t.rounds, 1u);
      // All slots accumulate identically here, so max/mean is 1 up to
      // summation rounding.
      ASSERT_GT(imb, 0.999);
    }
  }
  EXPECT_EQ(guard.stop(), 0u) << "profiler round loop allocated in steady state";
  EXPECT_EQ(prof.totals().rounds, 1024u);
}

}  // namespace
