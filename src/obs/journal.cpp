#include "obs/journal.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "obs/env.hpp"

namespace aio::obs {

namespace {

// Header: magic, layout version, record size (layout check on load), record
// count, dropped count, run count + pad to 8-byte alignment.
constexpr char kMagic[8] = {'a', 'i', 'o', 'j', 'r', 'n', 'l', '1'};

struct Header {
  char magic[8];
  std::uint32_t version;
  std::uint32_t record_size;
  std::uint64_t count;
  std::uint64_t dropped;
  std::uint32_t runs;
  std::uint32_t pad;
};
static_assert(sizeof(Header) == 40);

}  // namespace

Journal::Journal(Config config) : config_(std::move(config)) {
  // First growth steps of a cold vector are where per-append allocations
  // would hide; one modest up-front reservation keeps appends POD-cheap
  // from the first record (callers expecting big runs reserve() larger).
  records_.reserve(std::min<std::size_t>(config_.max_records, 4096));
}

std::unique_ptr<Journal> Journal::from_env(int slot) {
  const EnvSink journal = env_sink("AIO_JOURNAL");
  if (!journal.on && !env_sink("AIO_REPORT").on) return nullptr;
  Config cfg;
  if (!journal.path.empty()) cfg.path = numbered_path(journal.path, slot);
  return std::make_unique<Journal>(std::move(cfg));
}

bool Journal::write() const { return config_.path.empty() ? true : write(config_.path); }

bool Journal::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return false;
  Header h{};
  std::memcpy(h.magic, kMagic, sizeof(kMagic));
  h.version = 1;
  h.record_size = sizeof(Record);
  h.count = records_.size();
  h.dropped = dropped_;
  h.runs = runs_;
  bool ok = std::fwrite(&h, sizeof(h), 1, f) == 1;
  if (ok && !records_.empty())
    ok = std::fwrite(records_.data(), sizeof(Record), records_.size(), f) == records_.size();
  ok = std::fclose(f) == 0 && ok;
  return ok;
}

std::optional<Journal> Journal::load(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return std::nullopt;
  Header h{};
  bool ok = std::fread(&h, sizeof(h), 1, f) == 1 &&
            std::memcmp(h.magic, kMagic, sizeof(kMagic)) == 0 && h.version == 1 &&
            h.record_size == sizeof(Record);
  // Trust the header's count only as far as the file backs it: a corrupt count
  // must not size the allocation, and a crash dump cut mid-record loads its prefix.
  const long end = ok && std::fseek(f, 0, SEEK_END) == 0 ? std::ftell(f) : -1;
  ok = end >= static_cast<long>(sizeof(h)) && std::fseek(f, sizeof(h), SEEK_SET) == 0;
  Journal j(Config{path, std::numeric_limits<std::size_t>::max()});
  if (ok) {
    const std::size_t held = (static_cast<std::size_t>(end) - sizeof(h)) / sizeof(Record);
    if (h.count > held)
      std::fprintf(stderr, "obs: journal %s truncated: header claims %llu records, loading %zu\n",
                   path.c_str(), static_cast<unsigned long long>(h.count), held);
    const std::size_t n = std::min<std::uint64_t>(h.count, held);
    j.records_.resize(n);
    if (n != 0) ok = std::fread(j.records_.data(), sizeof(Record), n, f) == n;
    j.dropped_ = h.dropped;
    j.runs_ = h.runs;
  }
  std::fclose(f);
  if (!ok) return std::nullopt;
  return j;
}

std::vector<Record> merge_records(const std::vector<const Journal*>& parts) {
  std::vector<Record> out;
  std::size_t total = 0;
  for (const Journal* p : parts)
    if (p) total += p->records().size();
  out.reserve(total);
  for (const Journal* p : parts) {
    if (!p) continue;
    const auto& r = p->records();
    out.insert(out.end(), r.begin(), r.end());
  }
  std::sort(out.begin(), out.end(), [](const Record& a, const Record& b) {
    if (a.t != b.t) return a.t < b.t;
    // Kind before content at equal time: the analyzer attaches run-scoped
    // records to the preceding kRunBegin, so prologue marks emitted at the
    // same timestamp must not sort ahead of it.
    if (a.kind != b.kind) return a.kind < b.kind;
    // Bytewise tie-break: Record is a fully-initialized POD (explicit
    // padding field), so memcmp is a total order on content.
    return std::memcmp(&a, &b, sizeof(Record)) < 0;
  });
  return out;
}

}  // namespace aio::obs
