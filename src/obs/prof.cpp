#include "obs/prof.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace aio::obs::prof {

void ShardProfiler::bind(std::size_t n_shards) { slots_.assign(n_shards, Slot{}); }

ShardProfiler::Slot ShardProfiler::totals() const {
  Slot t;
  for (const Slot& s : slots_) {
    t.execute_s += s.execute_s;
    t.barrier_s += s.barrier_s;
    t.merge_s += s.merge_s;
    t.skip_s += s.skip_s;
    t.rounds = std::max(t.rounds, s.rounds);
    t.events += s.events;
    t.msgs_posted += s.msgs_posted;
    t.msgs_drained += s.msgs_drained;
    t.backlog_hw = std::max(t.backlog_hw, s.backlog_hw);
  }
  return t;
}

double ShardProfiler::imbalance() const {
  if (slots_.empty()) return 1.0;
  double max = 0.0, sum = 0.0;
  for (const Slot& s : slots_) {
    max = std::max(max, s.execute_s);
    sum += s.execute_s;
  }
  const double mean = sum / static_cast<double>(slots_.size());
  return mean > 0.0 ? max / mean : 1.0;
}

void ShardProfiler::print_summary(const char* label) const {
  const Slot t = totals();
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "aio-prof[%s]: shards=%zu rounds=%llu exec=%.3fs barrier=%.3fs "
                "merge=%.3fs skip=%.3fs events=%llu msgs=%llu backlog_hw=%llu "
                "imbalance=%.2f\n",
                label, slots_.size(), static_cast<unsigned long long>(t.rounds),
                t.execute_s, t.barrier_s, t.merge_s, t.skip_s,
                static_cast<unsigned long long>(t.events),
                static_cast<unsigned long long>(t.msgs_drained),
                static_cast<unsigned long long>(t.backlog_hw), imbalance());
  std::fputs(buf, stderr);
}

Json ShardProfiler::to_json() const {
  Json doc = Json::object();
  doc.set("schema", "aio-prof-v1");
  doc.set("n_shards", static_cast<double>(slots_.size()));
  const auto slot_json = [](const Slot& s) {
    Json j = Json::object();
    j.set("execute_s", s.execute_s);
    j.set("barrier_s", s.barrier_s);
    j.set("merge_s", s.merge_s);
    j.set("skip_s", s.skip_s);
    j.set("rounds", static_cast<double>(s.rounds));
    j.set("events", static_cast<double>(s.events));
    j.set("msgs_posted", static_cast<double>(s.msgs_posted));
    j.set("msgs_drained", static_cast<double>(s.msgs_drained));
    j.set("backlog_hw", static_cast<double>(s.backlog_hw));
    return j;
  };
  Json shards = Json::array();
  for (const Slot& s : slots_) shards.push(slot_json(s));
  doc.set("shards", std::move(shards));
  doc.set("totals", slot_json(totals()));
  doc.set("imbalance", imbalance());
  return doc;
}

}  // namespace aio::obs::prof
