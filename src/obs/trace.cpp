#include "obs/trace.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <ostream>

#include "obs/metrics.hpp"

namespace aio::obs {

namespace {

const char* cat_name(std::uint32_t cat) {
  switch (cat) {
    case kCatEngine: return "engine";
    case kCatProtocol: return "protocol";
    case kCatStorage: return "storage";
    case kCatMds: return "mds";
    case kCatRuntime: return "runtime";
    case kCatSampler: return "sampler";
    default: return "misc";
  }
}

constexpr double kUsPerSecond = 1e6;

}  // namespace

TraceSink::TraceSink(Config config) : config_(std::move(config)) {
  // Pre-name the fixed per-layer tracks so every trace groups the same way.
  for (std::uint32_t pid = kPidEngine; pid <= kPidRuntime; ++pid)
    meta_.push_back(Event{'M', 0, pid, 0, 0.0, "process_name",
                          Args{{"name", Json(kLayerNames[pid - kPidEngine])}}, 0.0});
}

std::unique_ptr<TraceSink> TraceSink::from_env(int slot) {
  const char* path = std::getenv("AIO_TRACE");
  if (!path || !*path) return nullptr;
  Config cfg;
  // One trace file per sink within a process: <path>, <path>.2, <path>.3...
  // Callers that know their machine's index pass it as `slot` for a
  // deterministic path; the fallback counter is atomic so concurrent sinks
  // at least never collide on one file.
  static std::atomic<int> instances{0};
  const int ordinal = slot >= 0 ? slot + 1 : ++instances;
  cfg.path =
      ordinal == 1 ? std::string(path) : std::string(path) + "." + std::to_string(ordinal);
  if (const char* cats = std::getenv("AIO_TRACE_CATS")) {
    if (std::strcmp(cats, "all") == 0 || std::strcmp(cats, "engine") == 0) {
      cfg.categories = kCatAll;
    } else if (const long mask = std::atol(cats); mask > 0) {
      cfg.categories = static_cast<std::uint32_t>(mask);
    }
  }
  return std::make_unique<TraceSink>(std::move(cfg));
}

void TraceSink::name_thread(std::uint32_t pid, std::uint32_t tid, std::string name) {
  std::lock_guard<std::mutex> lock(mu_);
  meta_.push_back(Event{'M', 0, pid, tid, 0.0, "thread_name",
                        Args{{"name", Json(std::move(name))}}, 0.0});
}

bool TraceSink::admit(std::uint32_t cat) {
  if (!wants(cat)) return false;
  if (events_.size() >= config_.max_events) {
    ++dropped_;
    return false;
  }
  return true;
}

void TraceSink::begin(std::uint32_t cat, std::uint32_t pid, std::uint32_t tid, double t_s,
                      std::string name, Args args) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!admit(cat)) return;
  events_.push_back(
      Event{'B', cat, pid, tid, t_s * kUsPerSecond, std::move(name), std::move(args), 0.0});
}

void TraceSink::end(std::uint32_t cat, std::uint32_t pid, std::uint32_t tid, double t_s) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!admit(cat)) return;
  events_.push_back(Event{'E', cat, pid, tid, t_s * kUsPerSecond, {}, {}, 0.0});
}

void TraceSink::instant(std::uint32_t cat, std::uint32_t pid, std::uint32_t tid, double t_s,
                        std::string name, Args args) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!admit(cat)) return;
  events_.push_back(
      Event{'i', cat, pid, tid, t_s * kUsPerSecond, std::move(name), std::move(args), 0.0});
}

void TraceSink::counter(std::uint32_t cat, std::uint32_t pid, double t_s, std::string name,
                        double value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!admit(cat)) return;
  events_.push_back(Event{'C', cat, pid, 0, t_s * kUsPerSecond, std::move(name), {}, value});
}

std::size_t TraceSink::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::size_t TraceSink::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::size_t TraceSink::count(char ph, std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const Event& e : events_)
    if (e.ph == ph && (name.empty() || e.name == name)) ++n;
  return n;
}

void TraceSink::append_event(std::string& out, const Event& e) {
  out += "{\"ph\":\"";
  out += e.ph;
  out += "\",\"pid\":";
  Json::append_number(out, e.pid);
  out += ",\"tid\":";
  Json::append_number(out, e.tid);
  out += ",\"ts\":";
  Json::append_number(out, e.ts_us);
  if (e.ph != 'E') {
    out += ",\"name\":";
    Json::append_quoted(out, e.name);
  }
  if (e.ph != 'M') {
    out += ",\"cat\":\"";
    out += cat_name(e.cat);
    out += '"';
  }
  if (e.ph == 'i') out += ",\"s\":\"t\"";  // instant scope: thread
  if (e.ph == 'C') {
    out += ",\"args\":{\"value\":";
    Json::append_number(out, e.value);
    out += '}';
  } else if (!e.args.empty()) {
    out += ",\"args\":{";
    bool first = true;
    for (const auto& [k, v] : e.args) {
      if (!first) out += ',';
      first = false;
      Json::append_quoted(out, k);
      out += ':';
      out += v.dump();
    }
    out += '}';
  }
  out += '}';
}

void TraceSink::write(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\"traceEvents\":[";
  std::string buf;
  bool first = true;
  auto one = [&](const Event& e) {
    buf.clear();
    append_event(buf, e);
    if (!first) out << ',';
    first = false;
    out << buf << '\n';
  };
  for (const Event& e : meta_) one(e);
  for (const Event& e : events_) one(e);
  out << "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped\":" << dropped_
      << ",\"events\":" << events_.size() << ",\"categories\":" << config_.categories
      << "}}\n";
}

bool TraceSink::write() const {
  if (config_.path.empty()) return true;
  std::size_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    dropped = dropped_;
  }
  if (dropped > 0) {
    // Bounded-buffer drops used to be silent; one line at flush makes a
    // truncated trace impossible to mistake for a complete one.
    std::fprintf(stderr,
                 "obs: trace %s dropped %zu events past the %zu-event cap "
                 "(categories mask 0x%x)\n",
                 config_.path.c_str(), dropped, config_.max_events, config_.categories);
  }
  std::ofstream out(config_.path);
  if (!out) return false;
  write(out);
  return static_cast<bool>(out);
}

void TraceSink::publish_drops(Registry& reg) const {
  std::size_t delta = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (dropped_ <= drops_published_) return;
    delta = dropped_ - drops_published_;
    drops_published_ = dropped_;
  }
  reg.counter("obs.trace.dropped").add(delta);
}

}  // namespace aio::obs
