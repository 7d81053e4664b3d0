#include "obs/fold.hpp"

#include <algorithm>
#include <array>
#include <string>
#include <utility>

namespace aio::obs {

Json attribution_json(const WaitSplit& w) {
  Json attrib = Json::object();
  attrib.set("total_wait_s", w.total_s);
  attrib.set("internal_s", w.internal_s);
  attrib.set("external_s", w.external_s);
  attrib.set("mds_s", w.mds_s);
  attrib.set("network_s", w.network_s);
  const double denom = w.total_s > 0.0 ? w.total_s : 1.0;
  attrib.set("internal_share", w.internal_s / denom);
  attrib.set("external_share", w.external_s / denom);
  attrib.set("mds_share", w.mds_s / denom);
  attrib.set("network_share", w.network_s / denom);
  attrib.set("attributed_frac",
             w.total_s > 0.0 ? (w.internal_s + w.external_s + w.mds_s + w.network_s) / w.total_s
                             : 1.0);
  return attrib;
}

std::size_t Fold::dense_slot(Space space, std::uint32_t id) const {
  const std::vector<std::uint32_t>& ids = index_[space];
  // The engine's ids count up from 0, so an id is most often its own rank.
  if (id < ids.size() && ids[id] == id) return id;
  const auto it = std::lower_bound(ids.begin(), ids.end(), id);
  return it != ids.end() && *it == id ? static_cast<std::size_t>(it - ids.begin()) : ids.size();
}

std::optional<WaitSplit> Fold::wait(const Writer& w) const {
  // The wait (run begin -> first data byte) splits exactly: MDS = the shared
  // open phase; queue = [t_open, signal] on the writer's home OST, split into
  // external interference (the OST's background load, integrated over the
  // interval) and internal queueing (the remainder: waiting behind earlier
  // writers); network = signal -> start, the write signal's transfer time.
  if (run_.t_open < 0.0 || w.signal_t < 0.0) return std::nullopt;
  WaitSplit s;
  s.total_s = w.start_t - run_.t_begin;
  s.mds_s = std::max(0.0, run_.t_open - run_.t_begin);
  s.network_s = std::max(0.0, w.start_t - w.signal_t);
  const double q = std::max(0.0, w.signal_t - run_.t_open);
  s.external_s = std::min(q, w.queue_ext_s);
  s.internal_s = q - s.external_s;
  return s;
}

double Fold::load_integral(std::uint32_t ost, double a, double b) const {
  const std::size_t i = slot(kOsts, ost);
  if (i >= run_osts_.size()) return 0.0;  // no step anywhere in the stream
  Ost o = run_osts_[i];
  o.integral = 0.0;
  for (const Record& r : run_records_)
    if (r.kind == Rec::kOstState && r.id == ost) {
      if (r.t >= b) break;
      o.step(r, a);
    }
  return o.at(b, a);
}

Json Fold::mds_json() const {
  Json tier = Json::object();
  for (std::size_t i = 0; i < mds_.size(); ++i) {
    const Mds& m = mds_[i];
    Json mj = Json::object();
    mj.set("ops", static_cast<double>(m.ops));
    mj.set("items", static_cast<double>(m.items));
    mj.set("service_s", m.service_s);
    mj.set("peak_queue", static_cast<double>(m.peak_queue));
    tier.set("mds" + std::to_string(id_of(kMds, i)), std::move(mj));
  }
  return tier;
}

std::pair<Fold::Space, std::uint32_t> Fold::key(const Record& r) {
  // A slot the analyzer reads has its opening record: a writer counts once
  // started, a steal chain once granted.
  switch (r.kind) {
    case Rec::kWriterStart: return {kWriters, r.id};
    case Rec::kStealGrant: return {kGrants, r.id};
    case Rec::kFileMap: return {kFiles, r.u0};
    case Rec::kOstState: return {kOsts, r.id};
    case Rec::kMdsOp: return {kMds, r.id};
    default: return {kSpaces, 0};
  }
}

void Fold::index(std::span<const Record> stream, Space first, Space last) {
  for (std::size_t s = first; s < last; ++s) index_[s].clear();
  // A direct-mapped filter drops most repeats (an OST's or an MDS's id
  // recurs with each of its records) before the sort.
  std::array<std::uint64_t, 1024> recent;
  recent.fill(~std::uint64_t{0});
  for (const Record& r : stream) {
    const auto [space, id] = key(r);
    if (space < first || space >= last) continue;
    const std::uint64_t tag = std::uint64_t{space} << 32 | id;
    if (std::exchange(recent[id % recent.size()], tag) != tag) index_[space].push_back(id);
  }
  for (std::size_t s = first; s < last; ++s) {
    std::ranges::sort(index_[s]);
    index_[s].erase(std::ranges::unique(index_[s]).begin(), index_[s].end());
  }
}

void Fold::replay(std::span<const Record> stream, const std::function<void()>& on_close) {
  dense_ = true;
  index(stream, kOsts, kSpaces);
  osts_.assign(index_[kOsts].size(), Ost{});
  mds_.assign(index_[kMds].size(), Mds{});
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (stream[i].kind == Rec::kRunBegin) {
      if (in_run_) on_close();
      std::size_t end = i + 1;  // the run's records reach the next kRunBegin
      while (end < stream.size() && stream[end].kind != Rec::kRunBegin) ++end;
      run_records_ = stream.subspan(i, end - i);
      index(run_records_, kWriters, kOsts);
      writers_.assign(index_[kWriters].size(), Writer{});
      details_.assign(index_[kWriters].size(), WriterDetail{});
      grants_.assign(index_[kGrants].size(), Grant{});
      files_.assign(index_[kFiles].size(), 0);
      run_osts_ = osts_;
    }
    ingest(stream[i]);
  }
  if (in_run_) on_close();
  run_records_ = {};  // the caller's stream outlives only this call
}

}  // namespace aio::obs
