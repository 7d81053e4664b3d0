#include "core/index/index.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>

namespace aio::core {

// --- VarTable ----------------------------------------------------------------

std::uint32_t VarTable::intern(const std::string& name) {
  const auto pos = std::lower_bound(
      by_name_.begin(), by_name_.end(), name,
      [this](std::uint32_t id, const std::string& n) { return names_[id] < n; });
  if (pos != by_name_.end() && names_[*pos] == name) return *pos;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.push_back(name);
  by_name_.insert(pos, id);
  return id;
}

const std::string& VarTable::name(std::uint32_t id) const {
  static const std::string kUnknown = "?";
  return id < names_.size() ? names_[id] : kUnknown;
}

std::optional<std::uint32_t> VarTable::find(const std::string& name) const {
  const auto pos = std::lower_bound(
      by_name_.begin(), by_name_.end(), name,
      [this](std::uint32_t id, const std::string& n) { return names_[id] < n; });
  if (pos != by_name_.end() && names_[*pos] == name) return *pos;
  return std::nullopt;
}

namespace {

// --- flat byte serialization helpers ---------------------------------------

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}
void put_f64(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(out, bits);
}

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}
  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] bool exhausted() const { return pos_ == bytes_.size(); }
  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }

  std::uint32_t u32() {
    std::uint32_t v = 0;
    if (pos_ + 4 > bytes_.size()) {
      ok_ = false;
      return 0;
    }
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(bytes_[pos_ + i]) << (8 * i);
    pos_ += 4;
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    if (pos_ + 8 > bytes_.size()) {
      ok_ = false;
      return 0;
    }
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(bytes_[pos_ + i]) << (8 * i);
    pos_ += 8;
    return v;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

void put_dims(std::vector<std::uint8_t>& out, std::span<const std::uint64_t> dims) {
  put_u32(out, static_cast<std::uint32_t>(dims.size()));
  for (const auto d : dims) put_u64(out, d);
}

// Smallest encodings: a dim is one u64; a block is its fixed fields plus
// three empty dim lists.  Header counts are bounded by what the remaining
// bytes could hold before anything is allocated for them.
constexpr std::size_t kDimBytes = 8;
constexpr std::size_t kMinBlockBytes = 4 + 4 + 8 + 8 + 3 * 4 + 3 * 8 + 8;

bool get_dims(Reader& r, Dims& dims) {
  const std::uint32_t n = r.u32();
  if (!r.ok() || n > r.remaining() / kDimBytes) return false;
  dims.resize(n);
  for (auto& d : dims) d = r.u64();
  return r.ok();
}

void put_block(std::vector<std::uint8_t>& out, const BlockRecord& b) {
  put_u32(out, static_cast<std::uint32_t>(b.writer));
  put_u32(out, b.var_id);
  put_u64(out, b.file_offset);
  put_u64(out, b.length);
  put_dims(out, b.global_dims);
  put_dims(out, b.offsets);
  put_dims(out, b.counts);
  put_f64(out, b.ch.min);
  put_f64(out, b.ch.max);
  put_f64(out, b.ch.sum);
  put_u64(out, b.ch.count);
}

bool get_block(Reader& r, BlockRecord& b) {
  b.writer = static_cast<Rank>(r.u32());
  b.var_id = r.u32();
  b.file_offset = r.u64();
  b.length = r.u64();
  if (!get_dims(r, b.global_dims) || !get_dims(r, b.offsets) || !get_dims(r, b.counts))
    return false;
  b.ch.min = r.f64();
  b.ch.max = r.f64();
  b.ch.sum = r.f64();
  b.ch.count = r.u64();
  return r.ok();
}

constexpr std::uint32_t kFileMagic = 0x41494F46u;    // "AIOF"
constexpr std::uint32_t kGlobalMagic = 0x41494F47u;  // "AIOG"

}  // namespace

Characteristics Characteristics::of(std::span<const double> data) {
  Characteristics c;
  if (data.empty()) return c;
  c.min = std::numeric_limits<double>::infinity();
  c.max = -std::numeric_limits<double>::infinity();
  for (const double v : data) {
    c.min = std::min(c.min, v);
    c.max = std::max(c.max, v);
    c.sum += v;
  }
  c.count = data.size();
  return c;
}

void Characteristics::merge(const Characteristics& other) {
  if (other.count == 0) return;
  if (count == 0) {
    *this = other;
    return;
  }
  min = std::min(min, other.min);
  max = std::max(max, other.max);
  sum += other.sum;
  count += other.count;
}

std::size_t BlockRecord::serialized_size() const {
  return kMinBlockBytes + kDimBytes * (global_dims.size() + offsets.size() + counts.size());
}

bool BlockRecord::intersects(std::span<const std::uint64_t> sel_offsets,
                             std::span<const std::uint64_t> sel_counts) const {
  if (sel_offsets.size() != offsets.size() || sel_counts.size() != counts.size()) return false;
  for (std::size_t d = 0; d < offsets.size(); ++d) {
    const std::uint64_t a0 = offsets[d], a1 = offsets[d] + counts[d];
    const std::uint64_t b0 = sel_offsets[d], b1 = sel_offsets[d] + sel_counts[d];
    if (a1 <= b0 || b1 <= a0) return false;
  }
  return true;
}

std::size_t LocalIndex::serialized_size() const {
  std::size_t n = kHeaderBytes;
  for (const auto& b : blocks) n += b.serialized_size();
  return n;
}

void FileIndex::merge(const LocalIndex& local) {
  blocks_.insert(blocks_.end(), local.blocks.begin(), local.blocks.end());
}

void FileIndex::finalize() {
  std::sort(blocks_.begin(), blocks_.end(), [](const BlockRecord& a, const BlockRecord& b) {
    if (a.file_offset != b.file_offset) return a.file_offset < b.file_offset;
    return a.var_id < b.var_id;
  });
}

std::size_t FileIndex::serialized_size() const {
  std::size_t n = kHeaderBytes;
  for (const auto& b : blocks_) n += b.serialized_size();
  return n;
}

std::vector<std::uint8_t> FileIndex::serialize() const {
  std::vector<std::uint8_t> out;
  serialize_into(out);
  return out;
}

void FileIndex::serialize_into(std::vector<std::uint8_t>& out) const {
  out.reserve(out.size() + serialized_size());
  put_u32(out, kFileMagic);
  put_u32(out, static_cast<std::uint32_t>(file_));
  put_u32(out, static_cast<std::uint32_t>(blocks_.size()));
  for (const auto& b : blocks_) put_block(out, b);
}

std::optional<FileIndex> FileIndex::deserialize(std::span<const std::uint8_t> bytes) {
  Reader r(bytes);
  if (r.u32() != kFileMagic) return std::nullopt;
  FileIndex idx(0);
  idx.file_ = static_cast<GroupId>(r.u32());
  const std::uint32_t n = r.u32();
  if (!r.ok() || n > r.remaining() / kMinBlockBytes) return std::nullopt;
  idx.blocks_.resize(n);
  for (auto& b : idx.blocks_)
    if (!get_block(r, b)) return std::nullopt;
  return idx;
}

bool FileIndex::covers_contiguously(std::uint64_t data_bytes) const {
  std::uint64_t cursor = 0;
  for (const auto& b : blocks_) {
    if (b.file_offset != cursor) return false;
    cursor += b.length;
  }
  return cursor == data_bytes;
}

void GlobalIndex::add(FileIndex index) { files_.push_back(std::move(index)); }

std::size_t GlobalIndex::total_blocks() const {
  std::size_t n = 0;
  for (const auto& f : files_) n += f.blocks().size();
  return n;
}

std::vector<BlockLocation> GlobalIndex::query(std::uint32_t var_id,
                                              std::span<const std::uint64_t> sel_offsets,
                                              std::span<const std::uint64_t> sel_counts) const {
  std::vector<BlockLocation> out;
  for (const auto& f : files_) {
    for (const auto& b : f.blocks()) {
      if (b.var_id == var_id && b.intersects(sel_offsets, sel_counts))
        out.push_back({f.file(), &b});
    }
  }
  return out;
}

std::vector<BlockLocation> GlobalIndex::query_by_value(std::uint32_t var_id, double lo,
                                                       double hi) const {
  std::vector<BlockLocation> out;
  for (const auto& f : files_) {
    for (const auto& b : f.blocks()) {
      if (b.var_id == var_id && b.ch.count > 0 && b.ch.min <= hi && b.ch.max >= lo)
        out.push_back({f.file(), &b});
    }
  }
  return out;
}

std::vector<BlockLocation> GlobalIndex::scan_for_writer(Rank writer) const {
  std::vector<BlockLocation> out;
  for (const auto& f : files_) {
    for (const auto& b : f.blocks()) {
      if (b.writer == writer) out.push_back({f.file(), &b});
    }
  }
  return out;
}

std::size_t GlobalIndex::serialized_size() const {
  std::size_t n = kHeaderBytes;
  for (const auto& f : files_) n += kLengthBytes + f.serialized_size();
  return n;
}

std::vector<std::uint8_t> GlobalIndex::serialize() const {
  std::vector<std::uint8_t> out;
  out.reserve(serialized_size());
  put_u32(out, kGlobalMagic);
  put_u32(out, static_cast<std::uint32_t>(files_.size()));
  for (const auto& f : files_) {
    // Same bytes as serializing into a temporary and copying it over, minus
    // the temporary: serialize_into appends exactly serialized_size() bytes.
    put_u64(out, f.serialized_size());
    f.serialize_into(out);
  }
  return out;
}

std::optional<GlobalIndex> GlobalIndex::deserialize(std::span<const std::uint8_t> bytes) {
  Reader r(bytes);
  if (r.u32() != kGlobalMagic) return std::nullopt;
  const std::uint32_t n = r.u32();
  if (!r.ok() || n > (1u << 20)) return std::nullopt;
  GlobalIndex gi;
  std::size_t cursor = 8;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (cursor + 8 > bytes.size()) return std::nullopt;
    std::uint64_t len = 0;
    for (int b = 0; b < 8; ++b)
      len |= static_cast<std::uint64_t>(bytes[cursor + b]) << (8 * b);
    cursor += 8;
    if (len > bytes.size() - cursor) return std::nullopt;  // cursor + len may wrap
    auto fi = FileIndex::deserialize(bytes.subspan(cursor, len));
    if (!fi) return std::nullopt;
    gi.add(std::move(*fi));
    cursor += len;
  }
  return gi;
}

FileIndex build_file_index(GroupId file, std::span<const Placement> placements,
                           IndexSize streamed, const Blueprint& blueprint) {
  // Each writer's records are built here, stamped as its local index
  // (writer, then consecutive offsets from its start), and appended in
  // arrival order: the sort sees what an arrival-order merge would give it.
  FileIndex index(file);
  index.reserve_blocks(streamed.blocks);
  for (const Placement& p : placements) {
    LocalIndex local = blueprint(p.writer);
    std::uint64_t cursor = p.offset;
    for (BlockRecord& block : local.blocks) {
      block.writer = p.writer;
      block.file_offset = cursor;
      cursor += block.length;
    }
    index.merge(local);
  }
  if (index.blocks().size() != streamed.blocks)
    throw std::logic_error("build_file_index: blueprint is not a pure function of the rank");
  if (index.serialized_size() != streamed.bytes)
    throw std::logic_error("build_file_index: declared index sizes disagree with the blueprint");
  index.finalize();
  return index;
}

void KeptIndex::add(GroupId file, std::shared_ptr<const std::vector<Placement>> placements,
                    IndexSize streamed) {
  files_.push_back({file, streamed, std::move(placements)});
}

GlobalIndex KeptIndex::build() const {
  GlobalIndex global;
  global.reserve(files_.size());
  for (const File& f : files_)
    global.add(build_file_index(f.file, *f.placements, f.streamed, blueprint_));
  return global;
}

}  // namespace aio::core
