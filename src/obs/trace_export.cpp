#include "obs/trace_export.hpp"

#include <algorithm>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"  // kPid* track ids, kLayerNames, kCatAll

namespace aio::obs {

namespace {

// An unbounded document would let a pathological journal exhaust memory; match
// the live sink's default cap instead (drops are silent here — the journal
// itself is the lossless artifact).  Metadata is exempt from the cap.
constexpr std::size_t kMaxEvents = 4'000'000;

Json args(std::initializer_list<std::pair<const char*, Json>> kv) {
  Json a = Json::object(kv.size());
  for (const auto& [k, v] : kv) a.set(k, v);
  return a;
}

/// trace_event objects appended straight to one reserved array, in the key
/// order a live TraceSink writes (ph, pid, tid, ts, name, cat, s, args), so
/// both routes produce the same bytes.
struct Trace {
  Json events;
  std::size_t n = 0;  // events, metadata excluded
  std::size_t dropped = 0;

  /// One event at `t_s` simulated seconds.  Metadata ('M') is exempt from the
  /// cap and has no category, 'E' has no name, and an empty `a` is left out.
  void add(char ph, const char* cat, std::uint32_t pid, std::uint32_t tid, double t_s,
           std::string name = {}, Json a = {}) {
    if (ph != 'M' && n == kMaxEvents) {
      ++dropped;
      return;
    }
    n += ph != 'M';
    Json e = Json::object(4 + (ph != 'E') + (ph != 'M') + (ph == 'i') + (a.size() > 0));
    e.set("ph", std::string(1, ph));
    e.set("pid", pid);
    e.set("tid", tid);
    e.set("ts", t_s * 1e6);
    if (ph != 'E') e.set("name", std::move(name));
    if (ph != 'M') e.set("cat", cat);
    if (ph == 'i') e.set("s", "t");  // instant scope: thread
    if (a.size() > 0) e.set("args", std::move(a));
    events.push(std::move(e));
  }
  void meta(const char* what, std::uint32_t pid, std::uint32_t tid, std::string name) {
    add('M', nullptr, pid, tid, 0.0, what, args({{"name", std::move(name)}}));
  }
};

void journal_events(Trace& t, const std::vector<Record>& records) {
  // Writer spans pair kWriterStart with kWriterEnd on the writer's own
  // thread; a start without an end (crash dump) leaves an open span, which
  // the viewers render to the end of the trace — exactly right for a hang.
  for (const Record& r : records) {
    switch (r.kind) {
      case Rec::kRunBegin:
        t.add('i', "protocol", kPidProtocol, 0, r.t, "run " + std::to_string(r.id),
              args({{"writers", r.u0}, {"files", r.u1}, {"osts", r.u2}}));
        break;
      case Rec::kRunMark:
        t.add('i', "protocol", kPidProtocol, 0, r.t,
              r.a == 0 ? "open-done" : r.a == 1 ? "data-done" : "complete");
        break;
      case Rec::kFileMap: break;  // placement is static context, not a timeline event
      case Rec::kWriterSignal:
        t.add('i', "protocol", kPidProtocol, r.id + 1, r.t,
              r.a != 0 ? "signal (adaptive)" : "signal",
              args({{"target", r.u0}, {"origin", r.u1}}));
        break;
      case Rec::kWriterStart:
        t.add('B', "protocol", kPidProtocol, r.id + 1, r.t, "write",
              args({{"file", r.u0}, {"bytes", r.v0}}));
        break;
      case Rec::kWriterEnd: t.add('E', "protocol", kPidProtocol, r.id + 1, r.t); break;
      case Rec::kOstState:
        t.add('C', "storage", kPidStorage, 0, r.t, "ost" + std::to_string(r.id) + " ext",
              args({{"value", std::max(r.v1, r.v2)}}));
        break;
      case Rec::kMdsOp:
        t.add('i', "mds", kPidMds, r.id, r.t, "op",
              args({{"service_s", r.v0}, {"backlog", r.u0}, {"batched", r.u1}}));
        break;
      case Rec::kStealGrant:
        t.add('i', "protocol", kPidProtocol, 0, r.t, "steal-grant " + std::to_string(r.id),
              args({{"source", r.u0}, {"file", r.u1}, {"queue_depth", r.v1}}));
        break;
      case Rec::kStealComplete:
        t.add('i', "protocol", kPidProtocol, 0, r.t, "steal-complete " + std::to_string(r.id),
              args({{"writer", r.u2}, {"bytes", r.v0}}));
        break;
      case Rec::kProfShard:
        t.add('i', "runtime", kPidRuntime, r.id, r.t, "prof shard " + std::to_string(r.id),
              args({{"execute_s", r.v0}, {"barrier_s", r.v1}, {"merge_s", r.v2},
                    {"events", r.u0}, {"msgs_posted", r.u1}, {"msgs_drained", r.u2}}));
        break;
    }
  }
}

/// Metadata first (layer names, then one thread per path track), then the
/// journal's events, then the path segments.
Json build(const Journal* journal, const Json* report) {
  // Runs with a critical_path block: (1-based run ordinal, segments or null).
  std::vector<std::pair<std::uint32_t, const Json*>> runs;
  std::size_t capacity = journal ? journal->records().size() : 0;
  const Json* all_runs = report ? report->find("runs") : nullptr;
  for (std::uint32_t i = 0; all_runs && all_runs->is_array() && i < all_runs->size(); ++i) {
    const Json* cp = all_runs->at(i).find("critical_path");
    const Json* segs = cp ? cp->find("segments") : nullptr;
    if (segs && !segs->is_array()) segs = nullptr;
    if (cp) runs.emplace_back(i + 1, segs);
    capacity += segs ? 2 * segs->size() : 0;
  }
  Trace t{Json::array(std::min(capacity, kMaxEvents) + 10 + runs.size())};
  for (std::uint32_t pid = kPidEngine; pid <= kPidRuntime; ++pid)
    t.meta("process_name", pid, 0, kLayerNames[pid - kPidEngine]);
  const char* const tracks[] = {"protocol", "storage", "mds", "runtime"};
  for (std::uint32_t pid = kPidProtocol; journal && pid <= kPidRuntime; ++pid)
    t.meta("process_name", pid, 0, tracks[pid - kPidProtocol]);
  if (report) t.meta("process_name", kPidPath, 0, "critical path");
  for (const auto& [tid, segs] : runs)
    t.meta("thread_name", kPidPath, tid, "run " + std::to_string(tid));

  if (journal) journal_events(t, journal->records());
  for (const auto& [tid, segs] : runs) {
    for (std::size_t i = 0; segs && i < segs->size(); ++i) {
      const Json& seg = segs->at(i);
      const Json* type = seg.find("type");
      const Json* t0 = seg.find("t0");
      const Json* t1 = seg.find("t1");
      if (!type || !t0 || !t1) continue;
      t.add('B', "protocol", kPidPath, tid, t0->number(), type->str(),
            args({{"dur_s", t1->number() - t0->number()}}));
      t.add('E', "protocol", kPidPath, tid, t1->number());
    }
  }

  Json doc = Json::object(3);
  doc.set("traceEvents", std::move(t.events));
  doc.set("displayTimeUnit", "ms");
  doc.set("otherData", args({{"dropped", t.dropped}, {"events", t.n},
                             {"categories", static_cast<unsigned>(kCatAll)}}));
  return doc;
}

}  // namespace

Json journal_trace(const Journal& journal) { return build(&journal, nullptr); }

Json critical_path_trace(const Json& report) { return build(nullptr, &report); }

Json report_trace(const Journal& journal, const Json& report) { return build(&journal, &report); }

}  // namespace aio::obs
