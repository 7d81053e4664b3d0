// Unit tests for the three protocol state machines in isolation
// (paper Algorithms 1-3).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <span>

#include "core/protocol/coordinator_fsm.hpp"
#include "core/protocol/subcoordinator_fsm.hpp"
#include "core/protocol/writer_pool.hpp"

namespace {

using namespace aio::core;

Rank sc_of_identity(GroupId g) { return g * 10; }  // group g's SC is rank 10g

// --- helpers ----------------------------------------------------------------

template <typename T>
const T* find_action(const Actions& actions) {
  for (const auto& a : actions)
    if (const T* v = std::get_if<T>(&a)) return v;
  return nullptr;
}

template <typename T>
std::vector<const T*> find_all(const Actions& actions) {
  std::vector<const T*> out;
  for (const auto& a : actions)
    if (const T* v = std::get_if<T>(&a)) out.push_back(v);
  return out;
}

const SendAction* find_send_to(const Actions& actions, Rank to) {
  for (const auto& a : actions) {
    if (const auto* s = std::get_if<SendAction>(&a)) {
      if (s->to == to) return s;
    }
  }
  return nullptr;
}

/// A pool of one writer on `rank` in `group`, viewing `bytes` as its payload.
WriterPool::Layout writer_layout(Rank rank, GroupId group, const double& bytes) {
  WriterPool::Layout layout;
  layout.first_rank = rank;
  layout.group_of = [group](Rank) { return group; };
  layout.sc_of = sc_of_identity;
  layout.bytes = std::span<const double>(&bytes, 1);
  return layout;
}

/// The writer's blueprint: one block of its whole payload.
std::function<LocalIndex(Rank)> one_block(double bytes) {
  return [bytes](Rank rank) {
    LocalIndex blueprint;
    blueprint.writer = rank;
    BlockRecord b;
    b.writer = rank;
    b.var_id = 0;
    b.length = static_cast<std::uint64_t>(bytes);
    blueprint.blocks.push_back(b);
    return blueprint;
  };
}

// --- WriterPool --------------------------------------------------------------

TEST(WriterPool, LocalWriteEmitsWriteThenReports) {
  const double bytes = 1000.0;
  WriterPool w(writer_layout(11, 1, bytes), one_block(bytes));
  EXPECT_EQ(w.state(11), WriterPool::State::Idle);

  const Actions a1 = w.on_do_write(11, DoWrite{1, 5000.0});
  EXPECT_EQ(w.state(11), WriterPool::State::Writing);
  ASSERT_EQ(a1.size(), 1u);
  const auto* write = find_action<StartWriteAction>(a1);
  ASSERT_NE(write, nullptr);
  EXPECT_EQ(write->file, 1);
  EXPECT_DOUBLE_EQ(write->offset, 5000.0);
  EXPECT_DOUBLE_EQ(write->bytes, 1000.0);

  EXPECT_FALSE(w.wrote_adaptively(11));

  const Actions a2 = w.on_write_done(11);
  EXPECT_EQ(w.state(11), WriterPool::State::Done);
  // Local write: one WRITE_COMPLETE (to own SC), one INDEX_BODY, role done.
  const auto sends = find_all<SendAction>(a2);
  ASSERT_EQ(sends.size(), 2u);
  EXPECT_EQ(sends[0]->to, sc_of_identity(1));
  const auto* done = std::get_if<WriteComplete>(&sends[0]->msg.body);
  ASSERT_NE(done, nullptr);
  EXPECT_EQ(done->kind, WriteComplete::Kind::WriterDone);
  EXPECT_EQ(done->writer, 11);
  EXPECT_EQ(done->file, 1);
  EXPECT_GT(done->index_bytes, 0.0);
  // The INDEX_BODY names the writer and where its blocks start.
  const auto* idx = std::get_if<IndexBody>(&sends[1]->msg.body);
  ASSERT_NE(idx, nullptr);
  EXPECT_EQ(idx->writer, 11);
  EXPECT_EQ(idx->file, 1);
  EXPECT_EQ(idx->offset, 5000u);
  EXPECT_EQ(idx->serialized_bytes, one_block(bytes)(11).serialized_size());
  EXPECT_EQ(idx->blocks, 1u);
  EXPECT_NE(find_action<RoleDoneAction>(a2), nullptr);
}

TEST(WriterPool, AdaptiveWriteNotifiesBothScs) {
  const double bytes = 1000.0;
  WriterPool w(writer_layout(11, 1, bytes), one_block(bytes));
  w.on_do_write(11, DoWrite{3, 0.0});  // redirected to group 3's file
  EXPECT_TRUE(w.wrote_adaptively(11));
  const Actions a = w.on_write_done(11);
  const auto sends = find_all<SendAction>(a);
  ASSERT_EQ(sends.size(), 3u);
  EXPECT_EQ(sends[0]->to, sc_of_identity(1));  // triggering SC
  EXPECT_EQ(sends[1]->to, sc_of_identity(3));  // target SC
  EXPECT_EQ(sends[2]->to, sc_of_identity(3));  // index to target SC
  EXPECT_TRUE(std::holds_alternative<IndexBody>(sends[2]->msg.body));
  // Index is tagged with the *target* file.
  EXPECT_EQ(std::get<IndexBody>(sends[2]->msg.body).file, 3);
}

TEST(WriterPool, DoubleDoWriteThrows) {
  const double bytes = 10.0;
  WriterPool w(writer_layout(1, 0, bytes), one_block(bytes));
  w.on_do_write(1, DoWrite{0, 0.0});
  EXPECT_THROW(w.on_do_write(1, DoWrite{0, 0.0}), std::logic_error);
}

TEST(WriterPool, WriteDoneBeforeDoWriteThrows) {
  const double bytes = 10.0;
  WriterPool w(writer_layout(1, 0, bytes), one_block(bytes));
  EXPECT_THROW(w.on_write_done(1), std::logic_error);
}

TEST(WriterPool, InvalidConfigThrows) {
  const double zero = 0.0;
  EXPECT_THROW(WriterPool(writer_layout(1, 0, zero), one_block(10.0)), std::invalid_argument);
  const double bytes = 10.0;
  WriterPool::Layout no_sc = writer_layout(1, 0, bytes);
  no_sc.sc_of = nullptr;
  EXPECT_THROW(WriterPool(std::move(no_sc), one_block(bytes)), std::invalid_argument);
}

// --- SubCoordinatorFsm -------------------------------------------------------

SubCoordinatorFsm::Config sc_cfg(GroupId group, std::vector<Rank> members,
                                 std::vector<double> bytes, std::size_t k = 1) {
  // The config views member_bytes; park each test's vector in stable storage
  // so the span outlives the returned config.
  static std::vector<std::unique_ptr<std::vector<double>>> keep;
  keep.push_back(std::make_unique<std::vector<double>>(std::move(bytes)));
  SubCoordinatorFsm::Config c;
  c.group = group;
  c.rank = members.empty() ? 0 : members.front();
  c.coordinator = 0;
  c.first_member = c.rank;  // member lists in these tests are contiguous
  c.n_members = members.size();
  c.member_bytes = *keep.back();
  c.max_concurrent = k;
  return c;
}

WriteComplete writer_done(Rank writer, GroupId origin, GroupId file, double bytes,
                          double index_bytes = 64.0) {
  WriteComplete m;
  m.kind = WriteComplete::Kind::WriterDone;
  m.writer = writer;
  m.origin_group = origin;
  m.file = file;
  m.bytes = bytes;
  m.index_bytes = index_bytes;
  return m;
}

/// Blueprints of one block per writer, `lengths.at(rank)` bytes long.
Blueprint one_block_each(std::map<Rank, std::uint64_t> lengths) {
  return [lengths = std::move(lengths)](Rank rank) {
    return one_block(static_cast<double>(lengths.at(rank)))(rank);
  };
}

/// The INDEX_BODY `writer` sends after writing its blueprint at `offset` of
/// `file`, sized as the writer pool sizes it.
IndexBody index_for(const Blueprint& blueprint, Rank writer, GroupId file,
                    std::uint64_t offset) {
  const LocalIndex local = blueprint(writer);
  return IndexBody{writer, file, offset, local.serialized_size(), local.blocks.size()};
}

/// `writer`'s blueprint stamped for a write at `offset` of `file`: the
/// local index a build from the SC's placements must reproduce.
LocalIndex stamped(const Blueprint& blueprint, Rank writer, GroupId file,
                   std::uint64_t offset) {
  LocalIndex local = blueprint(writer);
  local.writer = writer;
  local.file = file;
  for (BlockRecord& block : local.blocks) {
    block.writer = writer;
    block.file_offset = offset;
    offset += block.length;
  }
  return local;
}

TEST(SubCoordinatorFsm, SerializesWritersOneAtATime) {
  SubCoordinatorFsm sc(sc_cfg(0, {10, 11, 12}, {100.0, 200.0, 300.0}));
  const Actions a0 = sc.start();
  // Exactly one writer signalled (max_concurrent = 1): the SC itself first.
  const auto sends = find_all<SendAction>(a0);
  ASSERT_EQ(sends.size(), 1u);
  EXPECT_EQ(sends[0]->to, 10);
  const auto* dw = std::get_if<DoWrite>(&sends[0]->msg.body);
  ASSERT_NE(dw, nullptr);
  EXPECT_EQ(dw->target_file, 0);
  EXPECT_DOUBLE_EQ(dw->offset, 0.0);
  EXPECT_EQ(sc.waiting(), 2u);

  // First completion triggers the next writer at the next offset.
  const Actions a1 = sc.on_write_complete(writer_done(10, 0, 0, 100.0));
  const auto* next = find_send_to(a1, 11);
  ASSERT_NE(next, nullptr);
  EXPECT_DOUBLE_EQ(std::get<DoWrite>(next->msg.body).offset, 100.0);
  EXPECT_EQ(sc.writers_remaining(), 2u);
  EXPECT_EQ(sc.completions_into_file(), 1u);
}

TEST(SubCoordinatorFsm, ConcurrencyWindowSignalsKWriters) {
  SubCoordinatorFsm sc(sc_cfg(0, {10, 11, 12, 13}, {100, 100, 100, 100}, /*k=*/2));
  const Actions a0 = sc.start();
  EXPECT_EQ(find_all<SendAction>(a0).size(), 2u);
  EXPECT_EQ(sc.waiting(), 2u);
  const Actions a1 = sc.on_write_complete(writer_done(10, 0, 0, 100.0));
  EXPECT_EQ(find_all<SendAction>(a1).size(), 1u);  // refill to 2 in flight
}

TEST(SubCoordinatorFsm, LastCompletionSendsGroupDoneWithFinalOffset) {
  SubCoordinatorFsm sc(sc_cfg(2, {20, 21}, {100.0, 50.0}));
  sc.start();
  sc.on_write_complete(writer_done(20, 2, 2, 100.0));
  const Actions a = sc.on_write_complete(writer_done(21, 2, 2, 50.0));
  const auto* to_c = find_send_to(a, 0);
  ASSERT_NE(to_c, nullptr);
  const auto* done = std::get_if<WriteComplete>(&to_c->msg.body);
  ASSERT_NE(done, nullptr);
  EXPECT_EQ(done->kind, WriteComplete::Kind::GroupDone);
  EXPECT_EQ(done->origin_group, 2);
  EXPECT_DOUBLE_EQ(done->final_offset, 150.0);
  EXPECT_EQ(sc.state(), SubCoordinatorFsm::State::Draining);
}

TEST(SubCoordinatorFsm, AdaptiveRedirectForwardsAdaptiveDoneToC) {
  SubCoordinatorFsm sc(sc_cfg(0, {10, 11, 12}, {100, 100, 100}));
  sc.start();
  // C asks this SC to send a writer to file 5 at offset 7000.
  const Actions grant = sc.on_adaptive_write_start(AdaptiveWriteStart{5, 7000.0});
  const auto sends = find_all<SendAction>(grant);
  ASSERT_EQ(sends.size(), 1u);
  EXPECT_EQ(sends[0]->to, 11);  // next waiting writer
  const auto& dw = std::get<DoWrite>(sends[0]->msg.body);
  EXPECT_EQ(dw.target_file, 5);
  EXPECT_DOUBLE_EQ(dw.offset, 7000.0);
  EXPECT_EQ(sc.waiting(), 1u);

  // That writer completes remotely: SC forwards an adaptive WRITE_COMPLETE.
  const Actions fwd = sc.on_write_complete(writer_done(11, 0, 5, 100.0));
  const auto* to_c = find_send_to(fwd, 0);
  ASSERT_NE(to_c, nullptr);
  EXPECT_EQ(std::get<WriteComplete>(to_c->msg.body).kind, WriteComplete::Kind::AdaptiveDone);
  EXPECT_EQ(std::get<WriteComplete>(to_c->msg.body).file, 5);
  EXPECT_EQ(sc.redirected_members(), 1u);
  // The redirected write does not count into this SC's own file.
  EXPECT_EQ(sc.completions_into_file(), 0u);
}

TEST(SubCoordinatorFsm, RepliesWritersBusyWhenQueueEmpty) {
  SubCoordinatorFsm sc(sc_cfg(1, {10}, {100.0}));
  sc.start();  // the only member is in flight; queue empty
  const Actions a = sc.on_adaptive_write_start(AdaptiveWriteStart{4, 0.0});
  const auto* to_c = find_send_to(a, 0);
  ASSERT_NE(to_c, nullptr);
  const auto* busy = std::get_if<WritersBusy>(&to_c->msg.body);
  ASSERT_NE(busy, nullptr);
  EXPECT_EQ(busy->group, 1);
  EXPECT_EQ(busy->target_file, 4);
}

TEST(SubCoordinatorFsm, IndexPhaseWaitsForExpectedIndices) {
  const Blueprint blueprint = one_block_each({{10, 100}, {11, 100}, {55, 40}});
  SubCoordinatorFsm::Config cfg = sc_cfg(0, {10, 11}, {100.0, 100.0});
  cfg.keep_placements = true;
  SubCoordinatorFsm sc(cfg);
  sc.start();
  sc.on_write_complete(writer_done(10, 0, 0, 100.0));
  sc.on_write_complete(writer_done(11, 0, 0, 100.0));
  // A remote adaptive writer also landed in this file.
  sc.on_write_complete(writer_done(55, 7, 0, 40.0));

  // OVERALL arrives expecting 3 indices; only after the third INDEX_BODY
  // does the index write begin.
  Actions a = sc.on_overall_write_complete(OverallWriteComplete{3, 240.0});
  EXPECT_EQ(find_action<WriteIndexAction>(a), nullptr);
  a = sc.on_index_body(index_for(blueprint, 10, 0, 0));
  EXPECT_EQ(find_action<WriteIndexAction>(a), nullptr);
  a = sc.on_index_body(index_for(blueprint, 11, 0, 100));
  EXPECT_EQ(find_action<WriteIndexAction>(a), nullptr);
  a = sc.on_index_body(index_for(blueprint, 55, 0, 200));
  const auto* widx = find_action<WriteIndexAction>(a);
  ASSERT_NE(widx, nullptr);
  EXPECT_EQ(widx->file, 0);
  EXPECT_DOUBLE_EQ(widx->offset, 240.0);  // index appended after all data
  EXPECT_GT(widx->bytes, 0.0);
  EXPECT_EQ(sc.state(), SubCoordinatorFsm::State::IndexWriting);

  // Index write completion ships the file's placements to C; the index
  // built from them is the one the write was sized for.
  const Actions fin = sc.on_index_write_done();
  const auto* to_c = find_send_to(fin, 0);
  ASSERT_NE(to_c, nullptr);
  const auto* sub = std::get_if<SubIndex>(&to_c->msg.body);
  ASSERT_NE(sub, nullptr);
  ASSERT_NE(sub->placements, nullptr);
  const FileIndex built = build_file_index(0, *sub->placements, sub->blocks, blueprint);
  EXPECT_EQ(built.blocks().size(), 3u);
  EXPECT_EQ(sub->blocks, 3u);
  EXPECT_EQ(sub->serialized_bytes, built.serialized_size());
  EXPECT_DOUBLE_EQ(widx->bytes, static_cast<double>(sub->serialized_bytes));
  EXPECT_TRUE(built.covers_contiguously(240));
  EXPECT_NE(find_action<RoleDoneAction>(fin), nullptr);
  EXPECT_EQ(sc.state(), SubCoordinatorFsm::State::Done);
}

TEST(SubCoordinatorFsm, IndicesMayArriveBeforeOverall) {
  SubCoordinatorFsm::Config cfg = sc_cfg(0, {10}, {100.0});
  cfg.keep_placements = true;
  SubCoordinatorFsm sc(cfg);
  sc.start();
  sc.on_write_complete(writer_done(10, 0, 0, 100.0));
  sc.on_index_body(index_for(one_block(100.0), 10, 0, 0));
  const Actions a = sc.on_overall_write_complete(OverallWriteComplete{1, 100.0});
  EXPECT_NE(find_action<WriteIndexAction>(a), nullptr);
}

// Without records the SC still writes and ships an index of the exact size.
TEST(SubCoordinatorFsm, SizeOnlyIndicesStreamTheFileIndexSize) {
  SubCoordinatorFsm sc(sc_cfg(0, {10, 11}, {100.0, 100.0}));
  sc.start();
  sc.on_write_complete(writer_done(10, 0, 0, 100.0));
  sc.on_write_complete(writer_done(11, 0, 0, 100.0));
  sc.on_overall_write_complete(OverallWriteComplete{2, 200.0});
  const Blueprint blueprint = one_block(100.0);
  FileIndex reference(0);
  Actions a;
  for (const Rank w : {10, 11}) {
    const auto offset = static_cast<std::uint64_t>(w - 10) * 100;
    reference.merge(stamped(blueprint, w, 0, offset));
    a = sc.on_index_body(index_for(blueprint, w, 0, offset));
  }
  EXPECT_TRUE(sc.placements().empty());
  const auto* widx = find_action<WriteIndexAction>(a);
  ASSERT_NE(widx, nullptr);
  EXPECT_DOUBLE_EQ(widx->bytes, static_cast<double>(reference.serialized_size()));
  const Actions fin = sc.on_index_write_done();
  const auto* to_c = find_send_to(fin, 0);
  ASSERT_NE(to_c, nullptr);
  const auto& sub = std::get<SubIndex>(to_c->msg.body);
  EXPECT_EQ(sub.placements, nullptr);
  EXPECT_EQ(sub.blocks, 2u);
  EXPECT_EQ(sub.serialized_bytes, reference.serialized_size());
  EXPECT_THROW(sc.on_index_body(IndexBody{}), std::invalid_argument);
}

TEST(SubCoordinatorFsm, RejectsForeignIndex) {
  const Blueprint blueprint = one_block(100.0);
  for (const bool kept : {false, true}) {
    SubCoordinatorFsm::Config cfg = sc_cfg(0, {10}, {100.0});
    cfg.keep_placements = kept;
    SubCoordinatorFsm sc(cfg);
    sc.start();
    EXPECT_THROW(sc.on_index_body(index_for(blueprint, 10, /*file=*/9, 0)), std::logic_error)
        << (kept ? "records kept" : "sizes only");
  }
}

// Records are built from the blueprint the pool sized them with; a
// blueprint that disagrees with its INDEX_BODY breaks the contract, and the
// build of the SC's shipped placements says so.
TEST(SubCoordinatorFsm, ImpureBlueprintThrowsAtIndexTime) {
  SubCoordinatorFsm::Config cfg = sc_cfg(0, {10}, {100.0});
  cfg.keep_placements = true;
  const Blueprint blueprint = one_block(100.0);
  SubCoordinatorFsm sc(cfg);
  sc.start();
  IndexBody body = index_for(blueprint, 10, 0, 0);
  body.blocks = 2;  // sized from a blueprint that produced two blocks
  sc.on_index_body(body);
  ASSERT_NE(find_action<WriteIndexAction>(
                sc.on_overall_write_complete(OverallWriteComplete{1, 100.0})),
            nullptr);
  const Actions fin = sc.on_index_write_done();
  const auto* to_c = find_send_to(fin, 0);
  ASSERT_NE(to_c, nullptr);
  const auto& sub = std::get<SubIndex>(to_c->msg.body);
  ASSERT_NE(sub.placements, nullptr);
  EXPECT_THROW((void)build_file_index(0, *sub.placements, sub.blocks, blueprint),
               std::logic_error);
}

// The SC ships its file's (writer, offset) pairs in arrival order; the index
// built from them must be exactly what merging the writers' stamped indices
// in arrival order and sorting would.  Zero-length blocks with repeated
// var_ids tie under the sort key, so a build that reorders its inputs shows
// up here.
TEST(SubCoordinatorFsm, BuildMatchesArrivalOrderMerge) {
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    std::mt19937_64 rng(seed);
    const auto draw = [&rng](std::uint64_t n) { return rng() % n; };
    const auto group = static_cast<GroupId>(draw(4));
    const std::size_t members = 1 + draw(8);
    const std::size_t stolen_away = draw(members);  // members that wrote elsewhere
    const std::size_t stolen_in = draw(5);          // other groups' writers landing here
    // A pure function of the rank: 1-4 two-dimensional blocks, about a third
    // of them empty, drawing var_ids from {0, 1, 2}.
    const Blueprint blueprint = [seed](Rank rank) {
      std::mt19937_64 r(seed * 7919 + static_cast<std::uint64_t>(rank));
      LocalIndex local;
      local.writer = rank;
      const std::size_t n_blocks = 1 + r() % 4;
      for (std::size_t b = 0; b < n_blocks; ++b) {
        BlockRecord block;
        block.var_id = static_cast<std::uint32_t>(r() % 3);
        block.length = r() % 3 == 0 ? 0 : 1 + r() % 1000;
        block.global_dims = {64, 64};
        block.offsets = {r() % 64, r() % 64};
        block.counts = {1 + r() % 8, 1 + r() % 8};
        block.ch.min = static_cast<double>(r() % 100);
        block.ch.sum = static_cast<double>(r() % 10000);
        block.ch.count = r() % 50;
        local.blocks.push_back(block);
      }
      return local;
    };
    const auto length_of = [&blueprint](Rank rank) {
      std::uint64_t n = 0;
      for (const BlockRecord& block : blueprint(rank).blocks) n += block.length;
      return n;
    };

    // Members that stayed write back to back from offset 0; stolen-in
    // writers append after them, in grant order.
    const Rank first = 100 * group + 10;
    std::vector<std::pair<Rank, std::uint64_t>> writes;
    std::uint64_t cursor = 0;
    for (std::size_t m = 0; m < members - stolen_away; ++m) {
      const Rank rank = first + static_cast<Rank>(m);
      writes.emplace_back(rank, cursor);
      cursor += length_of(rank);
    }
    for (std::size_t i = 0; i < stolen_in; ++i) {
      const auto rank = static_cast<Rank>(1000 + draw(1000));
      if (std::any_of(writes.begin(), writes.end(),
                      [rank](const auto& w) { return w.first == rank; }))
        continue;
      writes.emplace_back(rank, cursor);
      cursor += length_of(rank);
    }
    std::shuffle(writes.begin(), writes.end(), rng);

    std::vector<Rank> ranks(members);
    for (std::size_t m = 0; m < members; ++m) ranks[m] = first + static_cast<Rank>(m);
    SubCoordinatorFsm::Config cfg = sc_cfg(group, ranks, std::vector<double>(members, 1.0));
    cfg.keep_placements = true;
    SubCoordinatorFsm sc(cfg);
    sc.start();
    // OVERALL lands at a random point among the INDEX_BODYs.
    const std::size_t overall_at = draw(writes.size() + 1);
    const OverallWriteComplete overall{writes.size(), static_cast<double>(cursor)};
    std::optional<WriteIndexAction> widx;
    const auto take = [&widx](const Actions& a) {
      if (const auto* w = find_action<WriteIndexAction>(a)) widx = *w;
    };
    FileIndex reference(group);
    for (std::size_t i = 0; i < writes.size(); ++i) {
      if (i == overall_at) take(sc.on_overall_write_complete(overall));
      const auto [rank, offset] = writes[i];
      reference.merge(stamped(blueprint, rank, group, offset));
      take(sc.on_index_body(index_for(blueprint, rank, group, offset)));
    }
    if (overall_at == writes.size()) take(sc.on_overall_write_complete(overall));
    reference.finalize();
    ASSERT_TRUE(widx) << "seed " << seed;
    EXPECT_EQ(widx->bytes, static_cast<double>(reference.serialized_size())) << "seed " << seed;

    const Actions fin = sc.on_index_write_done();
    const auto* to_c = find_send_to(fin, 0);
    ASSERT_NE(to_c, nullptr) << "seed " << seed;
    const auto& sub = std::get<SubIndex>(to_c->msg.body);
    ASSERT_NE(sub.placements, nullptr) << "seed " << seed;
    EXPECT_EQ(sub.blocks, reference.blocks().size()) << "seed " << seed;
    EXPECT_EQ(sub.serialized_bytes, reference.serialized_size()) << "seed " << seed;
    ASSERT_EQ(build_file_index(group, *sub.placements, sub.blocks, blueprint).serialize(),
              reference.serialize())
        << "seed " << seed;
  }
}

TEST(SubCoordinatorFsm, InvalidConfigThrows) {
  EXPECT_THROW(SubCoordinatorFsm(sc_cfg(0, {}, {})), std::invalid_argument);
  EXPECT_THROW(SubCoordinatorFsm(sc_cfg(0, {10}, {1.0, 2.0})), std::invalid_argument);
  auto bad_first = sc_cfg(0, {10, 11}, {1.0, 1.0});
  bad_first.rank = 11;
  EXPECT_THROW(SubCoordinatorFsm{bad_first}, std::invalid_argument);
  auto zero_k = sc_cfg(0, {10}, {1.0});
  zero_k.max_concurrent = 0;
  EXPECT_THROW(SubCoordinatorFsm{zero_k}, std::invalid_argument);
}

// --- CoordinatorFsm ----------------------------------------------------------

/// The writers' blueprint in coordinator tests: one empty block each.
LocalIndex empty_block(Rank rank) {
  LocalIndex local;
  local.writer = rank;
  local.blocks.emplace_back();
  return local;
}

CoordinatorFsm::Config coord_cfg(std::vector<std::size_t> sizes, bool stealing = true) {
  CoordinatorFsm::Config c;
  c.n_groups = sizes.size();
  c.group_size_of = [sizes = std::move(sizes)](GroupId g) {
    return sizes.at(static_cast<std::size_t>(g));
  };
  c.sc_of = sc_of_identity;
  c.rank = 0;
  c.stealing_enabled = stealing;
  c.blueprint = empty_block;
  return c;
}

WriteComplete group_done(GroupId g, double final_offset) {
  WriteComplete m;
  m.kind = WriteComplete::Kind::GroupDone;
  m.origin_group = g;
  m.file = g;
  m.final_offset = final_offset;
  return m;
}

WriteComplete adaptive_done(Rank writer, GroupId origin, GroupId file, double bytes) {
  WriteComplete m;
  m.kind = WriteComplete::Kind::AdaptiveDone;
  m.writer = writer;
  m.origin_group = origin;
  m.file = file;
  m.bytes = bytes;
  return m;
}

/// A one-block file index for group `g`, stamped with its size and count.
SubIndex sub_index_for(GroupId g) {
  auto placements =
      std::make_shared<const std::vector<Placement>>(1, Placement{sc_of_identity(g), 0});
  const FileIndex fi = build_file_index(g, *placements, 1, empty_block);
  return SubIndex{g, std::move(placements), fi.serialized_size(), fi.blocks().size()};
}

TEST(CoordinatorFsm, FirstGroupDoneTriggersGrantToWritingSc) {
  CoordinatorFsm c(coord_cfg({4, 4, 4}));
  const Actions a = c.on_write_complete(group_done(1, 400.0));
  EXPECT_EQ(c.sc_state(1), CoordinatorFsm::ScState::Complete);
  const auto sends = find_all<SendAction>(a);
  ASSERT_EQ(sends.size(), 1u);
  const auto* grant = std::get_if<AdaptiveWriteStart>(&sends[0]->msg.body);
  ASSERT_NE(grant, nullptr);
  EXPECT_EQ(grant->target_file, 1);
  EXPECT_DOUBLE_EQ(grant->offset, 400.0);  // append after the file's data
  EXPECT_EQ(c.outstanding_grants(), 1u);
}

TEST(CoordinatorFsm, AdaptiveDoneAdvancesOffsetAndRegrants) {
  CoordinatorFsm c(coord_cfg({4, 4, 4}));
  c.on_write_complete(group_done(1, 400.0));
  const Actions a = c.on_write_complete(adaptive_done(7, 0, 1, 100.0));
  EXPECT_EQ(c.total_steals(), 1u);
  const auto sends = find_all<SendAction>(a);
  ASSERT_EQ(sends.size(), 1u);  // file 1 refilled with a new grant
  const auto& grant = std::get<AdaptiveWriteStart>(sends[0]->msg.body);
  EXPECT_EQ(grant.target_file, 1);
  EXPECT_DOUBLE_EQ(grant.offset, 500.0);  // 400 + the 100 just written
}

TEST(CoordinatorFsm, WritersBusyMarksScAndRetriesElsewhere) {
  CoordinatorFsm c(coord_cfg({4, 4, 4}));
  const Actions first = c.on_write_complete(group_done(2, 100.0));
  const Rank first_target = find_all<SendAction>(first)[0]->to;
  // That SC declines.
  const GroupId declining = first_target / 10;
  const Actions retry = c.on_writers_busy(WritersBusy{declining, 2});
  EXPECT_EQ(c.sc_state(declining), CoordinatorFsm::ScState::Busy);
  const auto sends = find_all<SendAction>(retry);
  ASSERT_EQ(sends.size(), 1u);
  EXPECT_NE(sends[0]->to, first_target);  // a different writing SC
  EXPECT_EQ(c.outstanding_grants(), 1u);
}

TEST(CoordinatorFsm, GrantsSpreadRoundRobinAcrossWritingScs) {
  CoordinatorFsm c(coord_cfg({4, 4, 4, 4}));
  const Actions a1 = c.on_write_complete(group_done(3, 100.0));
  const Actions a2 = c.on_write_complete(adaptive_done(1, 0, 3, 10.0));
  const Rank t1 = find_all<SendAction>(a1)[0]->to;
  const Rank t2 = find_all<SendAction>(a2)[0]->to;
  EXPECT_NE(t1, t2);  // round-robin rotation
}

TEST(CoordinatorFsm, StealingDisabledIssuesNoGrants) {
  CoordinatorFsm c(coord_cfg({4, 4}, /*stealing=*/false));
  const Actions a = c.on_write_complete(group_done(0, 100.0));
  EXPECT_EQ(find_all<SendAction>(a).size(), 0u);
  EXPECT_EQ(c.grants_issued(), 0u);
}

TEST(CoordinatorFsm, AllCompleteBroadcastsOverallWithExpectations) {
  CoordinatorFsm c(coord_cfg({2, 2}));
  // Group 1 finishes; its grant goes to group 0's SC, which declines
  // (simulating no waiting writers), then group 0 finishes.
  Actions a = c.on_write_complete(group_done(1, 200.0));
  ASSERT_EQ(find_all<SendAction>(a).size(), 1u);
  a = c.on_writers_busy(WritersBusy{0, 1});
  EXPECT_EQ(find_all<SendAction>(a).size(), 0u);  // no other writing SC
  a = c.on_write_complete(group_done(0, 200.0));
  // Both complete, nothing outstanding: OVERALL to both SCs.
  const auto sends = find_all<SendAction>(a);
  ASSERT_EQ(sends.size(), 2u);
  for (const auto* s : sends) {
    const auto* overall = std::get_if<OverallWriteComplete>(&s->msg.body);
    ASSERT_NE(overall, nullptr);
    EXPECT_EQ(overall->expected_indices, 2u);  // no steals happened
    EXPECT_DOUBLE_EQ(overall->final_data_offset, 200.0);
  }
  EXPECT_EQ(c.state(), CoordinatorFsm::State::IndexGathering);
}

TEST(CoordinatorFsm, ExpectationsAccountForSteals) {
  CoordinatorFsm c(coord_cfg({3, 1}));
  Actions a = c.on_write_complete(group_done(1, 50.0));  // grant -> SC 0
  ASSERT_EQ(find_all<SendAction>(a).size(), 1u);
  a = c.on_write_complete(adaptive_done(2, 0, 1, 25.0));  // writer 2 stolen
  ASSERT_EQ(find_all<SendAction>(a).size(), 1u);          // re-grant
  a = c.on_writers_busy(WritersBusy{0, 1});               // now empty
  a = c.on_write_complete(group_done(0, 75.0));
  const auto sends = find_all<SendAction>(a);
  ASSERT_EQ(sends.size(), 2u);
  const auto& overall0 = std::get<OverallWriteComplete>(sends[0]->msg.body);
  const auto& overall1 = std::get<OverallWriteComplete>(sends[1]->msg.body);
  EXPECT_EQ(overall0.expected_indices, 2u);  // 3 members - 1 stolen
  EXPECT_EQ(overall1.expected_indices, 2u);  // 1 member + 1 adaptive arrival
  EXPECT_DOUBLE_EQ(overall1.final_data_offset, 75.0);  // 50 + 25 stolen bytes
}

TEST(CoordinatorFsm, SubIndicesTriggerGlobalIndexWrite) {
  CoordinatorFsm c(coord_cfg({1, 1}));
  c.on_write_complete(group_done(0, 10.0));
  c.on_writers_busy(WritersBusy{1, 0});
  c.on_write_complete(group_done(1, 10.0));
  ASSERT_EQ(c.state(), CoordinatorFsm::State::IndexGathering);

  Actions a = c.on_sub_index(sub_index_for(0));
  EXPECT_EQ(find_action<WriteGlobalIndexAction>(a), nullptr);
  a = c.on_sub_index(sub_index_for(1));
  const auto* write = find_action<WriteGlobalIndexAction>(a);
  ASSERT_NE(write, nullptr);
  EXPECT_EQ(c.state(), CoordinatorFsm::State::IndexWriting);
  const GlobalIndex gi = c.kept_index().build();
  EXPECT_EQ(gi.n_files(), 2u);
  EXPECT_EQ(c.total_blocks(), 2u);
  EXPECT_DOUBLE_EQ(write->bytes, static_cast<double>(gi.serialized_size()));

  const Actions fin = c.on_global_index_write_done();
  EXPECT_NE(find_action<RoleDoneAction>(fin), nullptr);
  EXPECT_EQ(c.state(), CoordinatorFsm::State::Done);
}

TEST(CoordinatorFsm, ProtocolViolationsThrow) {
  CoordinatorFsm c(coord_cfg({2, 2}));
  EXPECT_THROW(c.on_write_complete(writer_done(1, 0, 0, 10.0)), std::logic_error);
  EXPECT_THROW(c.on_write_complete(adaptive_done(1, 0, 1, 10.0)), std::logic_error);
  EXPECT_THROW(c.on_writers_busy(WritersBusy{0, 1}), std::logic_error);
  c.on_write_complete(group_done(0, 1.0));
  EXPECT_THROW(c.on_write_complete(group_done(0, 1.0)), std::logic_error);
  EXPECT_THROW(c.on_sub_index(sub_index_for(0)), std::logic_error);
}

// Index messages always carry their size and block count; the placements
// are optional.  A coordinator that keeps the global index needs them, so a
// size-only SUB_INDEX is a protocol error there and routine when streaming.
TEST(CoordinatorFsm, SizeOnlySubIndexNeedsAStreamingCoordinator) {
  const auto gathering = [](bool retain) {
    CoordinatorFsm::Config cfg = coord_cfg({1}, /*stealing=*/false);
    if (!retain) cfg.blueprint = nullptr;
    auto c = std::make_unique<CoordinatorFsm>(cfg);
    c->on_write_complete(group_done(0, 10.0));
    return c;
  };
  SubIndex size_only = sub_index_for(0);
  size_only.placements = nullptr;

  EXPECT_THROW(gathering(true)->on_sub_index(size_only), std::logic_error);

  const auto streaming = gathering(false);
  const Actions a = streaming->on_sub_index(size_only);
  const auto* write = find_action<WriteGlobalIndexAction>(a);
  ASSERT_NE(write, nullptr);
  EXPECT_DOUBLE_EQ(write->bytes, static_cast<double>(GlobalIndex::kHeaderBytes +
                                                     GlobalIndex::kLengthBytes +
                                                     size_only.serialized_bytes));
  EXPECT_EQ(streaming->total_blocks(), 1u);
  EXPECT_EQ(streaming->kept_index().build().n_files(), 0u);
}

TEST(CoordinatorFsm, SingleGroupCompletesWithoutGrants) {
  CoordinatorFsm c(coord_cfg({8}));
  const Actions a = c.on_write_complete(group_done(0, 800.0));
  const auto sends = find_all<SendAction>(a);
  ASSERT_EQ(sends.size(), 1u);  // straight to OVERALL
  EXPECT_TRUE(std::holds_alternative<OverallWriteComplete>(sends[0]->msg.body));
  EXPECT_EQ(c.grants_issued(), 0u);
}

// --- Steal-source policies ----------------------------------------------------

TEST(CoordinatorFsm, MostRemainingPolicyPrefersLongestQueue) {
  CoordinatorFsm::Config cfg = coord_cfg({2, 6, 4});
  cfg.steal_source = CoordinatorFsm::StealSource::MostRemaining;
  CoordinatorFsm c(cfg);
  // Group 2 finishes: the grant must target group 1's SC (6 remaining),
  // not round-robin's group 0.
  Actions a = c.on_write_complete(group_done(2, 100.0));
  auto sends = find_all<SendAction>(a);
  ASSERT_EQ(sends.size(), 1u);
  EXPECT_EQ(sends[0]->to, sc_of_identity(1));

  // After stealing from group 1 four times, group 0 (2 left) still loses to
  // group 1 (2 left): ties keep the first maximal group; steal one more from
  // group 1 and group 0 becomes strictly larger.
  for (int i = 0; i < 4; ++i) {
    a = c.on_write_complete(adaptive_done(10 + i, 1, 2, 10.0));
    sends = find_all<SendAction>(a);
    ASSERT_EQ(sends.size(), 1u);
  }
  // stolen_from[1] == 4 -> remaining {g0: 2, g1: 2}; first maximal is g0.
  EXPECT_EQ(sends[0]->to, sc_of_identity(0));
}

TEST(CoordinatorFsm, MostRemainingSkipsBusyAndCompleteGroups) {
  CoordinatorFsm::Config cfg = coord_cfg({8, 2, 4});
  cfg.steal_source = CoordinatorFsm::StealSource::MostRemaining;
  CoordinatorFsm c(cfg);
  Actions a = c.on_write_complete(group_done(1, 50.0));
  auto sends = find_all<SendAction>(a);
  ASSERT_EQ(sends.size(), 1u);
  EXPECT_EQ(sends[0]->to, sc_of_identity(0));  // 8 remaining beats 4
  // Group 0 declines -> Busy; the retry must go to group 2.
  a = c.on_writers_busy(WritersBusy{0, 1});
  sends = find_all<SendAction>(a);
  ASSERT_EQ(sends.size(), 1u);
  EXPECT_EQ(sends[0]->to, sc_of_identity(2));
}

}  // namespace
