#include "obs/trace_export.hpp"

#include <algorithm>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace aio::obs {

namespace {

// Fixed Chrome-trace process ids, one "process" per layer, so the viewer
// groups tracks by layer.
constexpr std::uint32_t kPidEngine = 1;
constexpr std::uint32_t kPidProtocol = 2;
constexpr std::uint32_t kPidStorage = 3;
constexpr std::uint32_t kPidMds = 4;
constexpr std::uint32_t kPidRuntime = 5;
/// Process names of kPidEngine..kPidRuntime, in pid order.
constexpr const char* kLayerNames[] = {"des engine", "adaptive protocol", "storage targets",
                                       "metadata server", "thread runtime"};
/// `otherData.categories`: a category bitmask with every bit set, kept so the
/// document's bytes stay stable.
constexpr unsigned kCategories = 0xFFFFFFFFu;

// An unbounded document would let a pathological journal exhaust memory, so
// events past the cap are counted as dropped (silently: the journal itself is
// the lossless artifact).  Metadata is exempt from the cap.
constexpr std::size_t kMaxEvents = 4'000'000;

/// Bytes reserved per event.  Events average 107 bytes in the 65,536-writer
/// trace, and reserved pages that are never written cost no memory.
constexpr std::size_t kBytesPerEvent = 128;

/// One numeric `args` member.
using Arg = std::pair<const char*, double>;

/// trace_event objects written as JSON text straight into one reserved
/// string, in a fixed key order (ph, pid, tid, ts, name, cat, s, args).
struct Trace {
  std::string text;  // the elements of `traceEvents`, comma-separated
  std::size_t elements = 0;  // metadata included
  std::size_t n = 0;  // events, metadata excluded
  std::size_t dropped = 0;

  /// One event at `t_s` simulated seconds.  'E' has no name, and an empty
  /// `a` is left out.
  void add(char ph, const char* cat, std::uint32_t pid, std::uint32_t tid, double t_s,
           std::string_view name = {}, std::initializer_list<Arg> a = {}) {
    if (n == kMaxEvents) {
      ++dropped;
      return;
    }
    ++n;
    open(ph, pid, tid, t_s);
    if (ph != 'E') {
      text += R"(,"name":)";
      Json::append_quoted(text, name);
    }
    text += R"(,"cat":)";
    Json::append_quoted(text, cat);
    if (ph == 'i') text += R"(,"s":"t")";  // instant scope: thread
    if (a.size() > 0) {
      text += R"(,"args":)";
      char sep = '{';
      for (const auto& [k, v] : a) {
        text += sep;
        sep = ',';
        Json::append_quoted(text, k);
        text += ':';
        Json::append_number(text, v);
      }
      text += '}';
    }
    text += '}';
  }
  /// Metadata: exempt from the cap, no category.
  void meta(const char* what, std::uint32_t pid, std::uint32_t tid, std::string_view name) {
    open('M', pid, tid, 0.0);
    text += R"(,"name":)";
    Json::append_quoted(text, what);
    text += R"(,"args":{"name":)";
    Json::append_quoted(text, name);
    text += "}}";
  }
  /// The members every event has; the caller closes the object.
  void open(char ph, std::uint32_t pid, std::uint32_t tid, double t_s) {
    if (elements++ > 0) text += ',';
    text += R"({"ph":")";
    text += ph;
    text += R"(","pid":)";
    Json::append_number(text, pid);
    text += R"(,"tid":)";
    Json::append_number(text, tid);
    text += R"(,"ts":)";
    Json::append_number(text, t_s * 1e6);
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
              {{"writers", r.u0}, {"files", r.u1}, {"osts", r.u2}});
        break;
      case Rec::kRunMark:
        t.add('i', "protocol", kPidProtocol, 0, r.t,
              r.a == 0 ? "open-done" : r.a == 1 ? "data-done" : "complete");
        break;
      case Rec::kFileMap: break;  // placement is static context, not a timeline event
      case Rec::kWriterSignal:
        t.add('i', "protocol", kPidProtocol, r.id + 1, r.t,
              r.a != 0 ? "signal (adaptive)" : "signal", {{"target", r.u0}, {"origin", r.u1}});
        break;
      case Rec::kWriterStart:
        t.add('B', "protocol", kPidProtocol, r.id + 1, r.t, "write",
              {{"file", r.u0}, {"bytes", r.v0}});
        break;
      case Rec::kWriterEnd: t.add('E', "protocol", kPidProtocol, r.id + 1, r.t); break;
      case Rec::kOstState:
        t.add('C', "storage", kPidStorage, 0, r.t, "ost" + std::to_string(r.id) + " ext",
              {{"value", std::max(r.v1, r.v2)}});
        break;
      case Rec::kMdsOp:
        t.add('i', "mds", kPidMds, r.id, r.t, "op",
              {{"service_s", r.v0}, {"backlog", r.u0}, {"batched", r.u1}});
        break;
      case Rec::kStealGrant:
        t.add('i', "protocol", kPidProtocol, 0, r.t, "steal-grant " + std::to_string(r.id),
              {{"source", r.u0}, {"file", r.u1}, {"queue_depth", r.v1}});
        break;
      case Rec::kStealComplete:
        t.add('i', "protocol", kPidProtocol, 0, r.t, "steal-complete " + std::to_string(r.id),
              {{"writer", r.u2}, {"bytes", r.v0}});
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
  Trace t;
  t.text.reserve((std::min(capacity, kMaxEvents) + 10 + runs.size()) * kBytesPerEvent);
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
            {{"dur_s", t1->number() - t0->number()}});
      t.add('E', "protocol", kPidPath, tid, t1->number());
    }
  }

  Json other = Json::object();
  other.set("dropped", t.dropped);
  other.set("events", t.n);
  other.set("categories", kCategories);
  Json doc = Json::object();
  doc.set("traceEvents", Json::rendered_array(std::move(t.text), t.elements));
  doc.set("displayTimeUnit", "ms");
  doc.set("otherData", std::move(other));
  return doc;
}

}  // namespace

Json journal_trace(const Journal& journal) { return build(&journal, nullptr); }

Json critical_path_trace(const Json& report) { return build(nullptr, &report); }

Json report_trace(const Journal& journal, const Json& report) { return build(&journal, &report); }

}  // namespace aio::obs
