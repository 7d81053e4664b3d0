// Tests for characteristics, local/file/global indices, file and global
// index serialization, and queries.
#include "core/index/index.hpp"

#include <gtest/gtest.h>

#include <array>
#include <vector>

namespace {

using namespace aio::core;

BlockRecord make_block(Rank writer, std::uint32_t var, std::uint64_t offset, std::uint64_t len) {
  BlockRecord b;
  b.writer = writer;
  b.var_id = var;
  b.file_offset = offset;
  b.length = len;
  return b;
}

TEST(Characteristics, OfComputesMinMaxSumCount) {
  const std::array<double, 5> data{3.0, -1.0, 4.0, 1.0, 5.0};
  const Characteristics c = Characteristics::of(data);
  EXPECT_DOUBLE_EQ(c.min, -1.0);
  EXPECT_DOUBLE_EQ(c.max, 5.0);
  EXPECT_DOUBLE_EQ(c.sum, 12.0);
  EXPECT_EQ(c.count, 5u);
}

TEST(Characteristics, OfEmptyIsZero) {
  const Characteristics c = Characteristics::of({});
  EXPECT_EQ(c.count, 0u);
  EXPECT_DOUBLE_EQ(c.min, 0.0);
}

TEST(Characteristics, MergeCombines) {
  const std::array<double, 2> a{1.0, 2.0};
  const std::array<double, 2> b{-5.0, 10.0};
  Characteristics ca = Characteristics::of(a);
  ca.merge(Characteristics::of(b));
  EXPECT_DOUBLE_EQ(ca.min, -5.0);
  EXPECT_DOUBLE_EQ(ca.max, 10.0);
  EXPECT_DOUBLE_EQ(ca.sum, 8.0);
  EXPECT_EQ(ca.count, 4u);
}

TEST(Characteristics, MergeWithEmptyIsIdentity) {
  const std::array<double, 2> a{1.0, 2.0};
  Characteristics ca = Characteristics::of(a);
  const Characteristics before = ca;
  ca.merge(Characteristics{});
  EXPECT_EQ(ca, before);
  Characteristics empty;
  empty.merge(before);
  EXPECT_EQ(empty, before);
}

TEST(BlockRecord, IntersectsBoxes) {
  BlockRecord b = make_block(0, 0, 0, 64);
  b.offsets = {10, 10};
  b.counts = {10, 10};
  const std::array<std::uint64_t, 2> off1{15, 15}, cnt1{10, 10};
  EXPECT_TRUE(b.intersects(off1, cnt1));
  const std::array<std::uint64_t, 2> off2{20, 10}, cnt2{5, 5};
  EXPECT_FALSE(b.intersects(off2, cnt2));  // touching edge, half-open
  const std::array<std::uint64_t, 2> off3{0, 0}, cnt3{100, 100};
  EXPECT_TRUE(b.intersects(off3, cnt3));  // containment
  const std::array<std::uint64_t, 1> wrong_dims_off{0}, wrong_dims_cnt{5};
  EXPECT_FALSE(b.intersects(wrong_dims_off, wrong_dims_cnt));
}

// serialized_size() prices the INDEX_BODY message: a 16-byte header plus
// each block exactly as the file index it merges into lays it out.
TEST(LocalIndex, SerializedSizeIsHeaderPlusFileIndexBlocks) {
  LocalIndex idx;
  idx.writer = 42;
  idx.file = 7;
  EXPECT_EQ(idx.serialized_size(), LocalIndex::kHeaderBytes);
  BlockRecord b = make_block(42, 3, 1024, 8192);
  b.global_dims = {256, 256, 256};
  b.offsets = {0, 64, 128};
  b.counts = {32, 32, 32};
  b.ch = Characteristics{-1.5, 2.5, 100.0, 32768};
  idx.blocks.push_back(b);
  idx.blocks.push_back(make_block(42, 4, 9216, 100));
  // 68 fixed bytes per block, 8 per dim entry: (68 + 9 * 8) + 68.
  EXPECT_EQ(idx.serialized_size(), LocalIndex::kHeaderBytes + 140u + 68u);

  FileIndex fi(idx.file);
  fi.merge(idx);
  fi.finalize();
  EXPECT_EQ(idx.serialized_size() - LocalIndex::kHeaderBytes,
            fi.serialize().size() - FileIndex::kHeaderBytes);
}

TEST(FileIndex, MergeAndFinalizeSortsByOffset) {
  FileIndex fi(3);
  LocalIndex a;
  a.writer = 1;
  a.file = 3;
  a.blocks.push_back(make_block(1, 0, 100, 50));
  LocalIndex b;
  b.writer = 2;
  b.file = 3;
  b.blocks.push_back(make_block(2, 0, 0, 100));
  fi.merge(a);
  fi.merge(b);
  fi.finalize();
  ASSERT_EQ(fi.blocks().size(), 2u);
  EXPECT_EQ(fi.blocks()[0].file_offset, 0u);
  EXPECT_EQ(fi.blocks()[1].file_offset, 100u);
}

TEST(FileIndex, CoversContiguously) {
  FileIndex fi(0);
  LocalIndex a;
  a.file = 0;
  a.blocks.push_back(make_block(0, 0, 0, 100));
  a.blocks.push_back(make_block(0, 1, 100, 28));
  fi.merge(a);
  fi.finalize();
  EXPECT_TRUE(fi.covers_contiguously(128));
  EXPECT_FALSE(fi.covers_contiguously(129));   // short
  FileIndex gap(0);
  LocalIndex g;
  g.file = 0;
  g.blocks.push_back(make_block(0, 0, 0, 100));
  g.blocks.push_back(make_block(0, 1, 101, 27));
  gap.merge(g);
  gap.finalize();
  EXPECT_FALSE(gap.covers_contiguously(128));  // hole at 100
}

TEST(FileIndex, SerializeRoundTrips) {
  FileIndex fi(9);
  LocalIndex a;
  a.writer = 5;
  a.file = 9;
  a.blocks.push_back(make_block(5, 2, 0, 4096));
  fi.merge(a);
  fi.finalize();
  const auto bytes = fi.serialize();
  EXPECT_EQ(bytes.size(), fi.serialized_size());
  const auto back = FileIndex::deserialize(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->file(), 9);
  ASSERT_EQ(back->blocks().size(), 1u);
  EXPECT_EQ(back->blocks()[0], fi.blocks()[0]);
}

TEST(FileIndex, DeserializeRejectsGarbage) {
  std::vector<std::uint8_t> junk{1, 2, 3, 4, 5};
  EXPECT_FALSE(FileIndex::deserialize(junk).has_value());
  EXPECT_FALSE(FileIndex::deserialize({}).has_value());
  // Valid magic but truncated body.
  FileIndex fi(1);
  LocalIndex a;
  a.writer = 1;
  a.file = 1;
  a.blocks.push_back(make_block(1, 0, 0, 10));
  fi.merge(a);
  fi.finalize();
  auto bytes = fi.serialize();
  bytes.resize(bytes.size() / 2);
  EXPECT_FALSE(FileIndex::deserialize(bytes).has_value());
}

GlobalIndex two_file_index() {
  GlobalIndex gi;
  FileIndex f0(0);
  LocalIndex a;
  a.writer = 0;
  a.file = 0;
  BlockRecord b0 = make_block(0, 0, 0, 800);
  b0.offsets = {0};
  b0.counts = {100};
  b0.ch = Characteristics{0.0, 1.0, 50.0, 100};
  a.blocks.push_back(b0);
  f0.merge(a);
  f0.finalize();
  gi.add(f0);

  FileIndex f1(1);
  LocalIndex c;
  c.writer = 1;
  c.file = 1;
  BlockRecord b1 = make_block(1, 0, 0, 800);
  b1.offsets = {100};
  b1.counts = {100};
  b1.ch = Characteristics{5.0, 9.0, 700.0, 100};
  c.blocks.push_back(b1);
  BlockRecord b2 = make_block(1, 1, 800, 80);
  b2.offsets = {0};
  b2.counts = {10};
  c.blocks.push_back(b2);
  f1.merge(c);
  f1.finalize();
  gi.add(f1);
  return gi;
}

TEST(FileIndex, FileAndGlobalFormatsAreDistinct) {
  const GlobalIndex gi = two_file_index();
  EXPECT_FALSE(FileIndex::deserialize(gi.serialize()).has_value());
  EXPECT_FALSE(GlobalIndex::deserialize(gi.files()[0].serialize()).has_value());
}

TEST(GlobalIndex, QueryBySelectionBox) {
  const GlobalIndex gi = two_file_index();
  EXPECT_EQ(gi.n_files(), 2u);
  EXPECT_EQ(gi.total_blocks(), 3u);
  const std::array<std::uint64_t, 1> off{50}, cnt{100};
  const auto hits = gi.query(0, off, cnt);  // covers [50,150): both blocks
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].file, 0);
  EXPECT_EQ(hits[1].file, 1);
  const std::array<std::uint64_t, 1> off2{150}, cnt2{10};
  EXPECT_EQ(gi.query(0, off2, cnt2).size(), 1u);
  EXPECT_EQ(gi.query(99, off, cnt).size(), 0u);  // unknown var
}

TEST(GlobalIndex, QueryByValueUsesCharacteristics) {
  const GlobalIndex gi = two_file_index();
  // Var 0 blocks: ranges [0,1] and [5,9].
  EXPECT_EQ(gi.query_by_value(0, 0.5, 0.6).size(), 1u);
  EXPECT_EQ(gi.query_by_value(0, 2.0, 4.0).size(), 0u);
  EXPECT_EQ(gi.query_by_value(0, 0.0, 10.0).size(), 2u);
  EXPECT_EQ(gi.query_by_value(0, 8.0, 12.0).size(), 1u);
}

TEST(GlobalIndex, ScanForWriterFindsAllBlocks) {
  const GlobalIndex gi = two_file_index();
  EXPECT_EQ(gi.scan_for_writer(1).size(), 2u);
  EXPECT_EQ(gi.scan_for_writer(0).size(), 1u);
  EXPECT_EQ(gi.scan_for_writer(7).size(), 0u);
}

// A file-index length that wraps `cursor + len` past 2^64 must be rejected,
// not handed to subspan.
TEST(GlobalIndex, DeserializeRejectsWrappingLength) {
  GlobalIndex gi;
  gi.add(FileIndex(0));
  std::vector<std::uint8_t> bytes = gi.serialize();
  const std::uint64_t len = ~std::uint64_t{0} - 7;  // 16 + len wraps to 8
  for (int b = 0; b < 8; ++b)
    bytes[GlobalIndex::kHeaderBytes + b] = static_cast<std::uint8_t>(len >> (8 * b));
  EXPECT_FALSE(GlobalIndex::deserialize(bytes).has_value());
  EXPECT_TRUE(GlobalIndex::deserialize(gi.serialize()).has_value());
}

// Property: serialization round-trips for arbitrary block shapes.
class IndexRoundTrip : public ::testing::TestWithParam<int> {};

// A local index's blocks round-trip through the file index they merge into.
TEST_P(IndexRoundTrip, LocalIndexWithNBlocks) {
  const int n = GetParam();
  LocalIndex idx;
  idx.writer = n;
  idx.file = n % 5;
  std::uint64_t cursor = 0;
  for (int i = 0; i < n; ++i) {
    BlockRecord b = make_block(n, static_cast<std::uint32_t>(i), cursor, 100 + 7ull * i);
    const std::size_t dims = 1 + static_cast<std::size_t>(i % 3);
    for (std::size_t d = 0; d < dims; ++d) {
      b.global_dims.push_back(1000);
      b.offsets.push_back(static_cast<std::uint64_t>(i) * 10);
      b.counts.push_back(10);
    }
    b.ch = Characteristics{-static_cast<double>(i), static_cast<double>(i), 0.5 * i,
                           static_cast<std::uint64_t>(i)};
    cursor += b.length;
    idx.blocks.push_back(std::move(b));
  }
  FileIndex fi(idx.file);
  fi.merge(idx);
  fi.finalize();
  const auto back = FileIndex::deserialize(fi.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->file(), idx.file);
  EXPECT_EQ(back->blocks(), idx.blocks);
}

INSTANTIATE_TEST_SUITE_P(BlockCounts, IndexRoundTrip, ::testing::Values(0, 1, 2, 8, 64, 512));

TEST(VarTable, InternAssignsSequentialIdsAndDeduplicates) {
  VarTable vars;
  EXPECT_EQ(vars.intern("rho"), 0u);
  EXPECT_EQ(vars.intern("px"), 1u);
  EXPECT_EQ(vars.intern("temp"), 2u);
  EXPECT_EQ(vars.intern("px"), 1u);  // second sight: same id, no growth
  EXPECT_EQ(vars.size(), 3u);
  EXPECT_EQ(vars.name(0), "rho");
  EXPECT_EQ(vars.name(2), "temp");
}

TEST(VarTable, FindLooksUpByNameAndUnknownIdIsQuestionMark) {
  VarTable vars;
  vars.intern("bx");
  vars.intern("by");
  ASSERT_TRUE(vars.find("by").has_value());
  EXPECT_EQ(*vars.find("by"), 1u);
  EXPECT_FALSE(vars.find("bz").has_value());
  EXPECT_EQ(vars.name(99), "?");
}

TEST(VarTable, HandlesManyNamesWithBinarySearchOrdering) {
  VarTable vars;
  // Insert in non-sorted order so the by-name index actually has to work.
  const char* const names[] = {"zeta", "alpha", "mid", "beta", "omega"};
  for (std::uint32_t i = 0; i < 5; ++i) EXPECT_EQ(vars.intern(names[i]), i);
  for (std::uint32_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(vars.find(names[i]).has_value()) << names[i];
    EXPECT_EQ(*vars.find(names[i]), i);
  }
  EXPECT_EQ(vars.size(), 5u);
}

}  // namespace
