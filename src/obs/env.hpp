// The one reader of `AIO_*` environment variables, shared by the library's
// observability sinks and the bench binaries.  DESIGN.md §8 lists every
// variable; each goes through exactly one of four readers:
//
//   env_count    a whole number >= a minimum (AIO_BENCH_SAMPLES, AIO_MDS_COUNT)
//   env_seconds  a positive number (AIO_SIM_WINDOW_BATCH)
//   env_counts   a comma list of positive counts (AIO_SIM_SHARDS=1,2,4,8)
//   env_sink     an output switch with one grammar (AIO_TRACE, AIO_LIVE, ...)
//
// Strict by design: a value that fails to parse (trailing junk, overflow,
// below the minimum) is *rejected with a one-line stderr warning* and the
// caller falls back to its default, instead of silently running a different
// experiment than the one the user thought they configured
// (`AIO_BENCH_SAMPLES=4O` — a typo'd letter O — used to atol() to 4).  Each
// variable warns at most once per process, and only on stderr, so stdout
// stays byte-comparable across runs.
//
// Sink paths are numbered per simulated machine: slot 0 writes `<path>`,
// slot k writes `<path>.k+1`.  A machine resolves its slot once
// (`machine_slot`) and passes it to every sink it arms, so its trace,
// journal, report, live stream and metrics always share one number.
#pragma once

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace aio::obs {

namespace detail {

/// The value of `name`, or nullptr when unset or empty.
inline const char* env_value(const char* name) {
  const char* v = std::getenv(name);
  return v && *v ? v : nullptr;
}

/// Prints `aio: ignoring NAME="value" (want ...)` the first time `name` is
/// rejected in this process; later rejections of the same variable are quiet.
inline void reject(const char* name, const char* value, const std::string& want) {
  static std::mutex mu;
  static std::set<std::string> warned;
  {
    const std::lock_guard<std::mutex> lock(mu);
    if (!warned.insert(name).second) return;
  }
  std::fprintf(stderr, "aio: ignoring %s=\"%s\" (want %s)\n", name, value, want.c_str());
}

/// Parses the decimal digits at `s` (no sign, no blanks) into `out`; `end`
/// is left on the first character after them.  False on no digits or
/// overflow.
inline bool parse_count(const char* s, const char*& end, std::size_t& out) {
  if (*s < '0' || *s > '9') return false;
  char* e = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &e, 10);
  end = e;
  if (errno != 0 || v > static_cast<unsigned long long>(static_cast<std::size_t>(-1)))
    return false;
  out = static_cast<std::size_t>(v);
  return true;
}

}  // namespace detail

/// Whole number >= `min` from the environment; `fallback` when unset,
/// empty or rejected.
inline std::size_t env_count(const char* name, std::size_t fallback, std::size_t min = 1) {
  const char* v = detail::env_value(name);
  if (!v) return fallback;
  const char* end = nullptr;
  std::size_t parsed = 0;
  if (detail::parse_count(v, end, parsed) && *end == '\0' && parsed >= min) return parsed;
  detail::reject(name, v, "an integer >= " + std::to_string(min));
  return fallback;
}

/// Positive number from the environment, at least `min` when `min` > 0
/// (AIO_SIM_WINDOW_BATCH passes 1); `fallback` when unset, empty or
/// rejected.
inline double env_seconds(const char* name, double fallback, double min = 0.0) {
  const char* v = detail::env_value(name);
  if (!v) return fallback;
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(v, &end);
  if (errno == 0 && end != v && *end == '\0' && std::isfinite(parsed) && parsed > 0.0 &&
      parsed >= min)
    return parsed;
  char want[48] = "a positive number of seconds";
  if (min > 0.0) std::snprintf(want, sizeof(want), "a number >= %g", min);
  detail::reject(name, v, want);
  return fallback;
}

/// Comma list of positive counts (`1,2,4,8`); empty when unset, empty or
/// rejected.  One malformed entry rejects the whole list rather than
/// running a partial sweep.
inline std::vector<std::size_t> env_counts(const char* name) {
  const char* v = detail::env_value(name);
  if (!v) return {};
  std::vector<std::size_t> out;
  for (const char* p = v;;) {
    const char* end = nullptr;
    std::size_t parsed = 0;
    if (!detail::parse_count(p, end, parsed) || parsed == 0 || (*end != '\0' && *end != ',')) {
      detail::reject(name, v, "a comma-separated list of positive integers, e.g. 1,2,4,8");
      return {};
    }
    out.push_back(parsed);
    if (*end == '\0') return out;
    p = end + 1;
  }
}

/// An output switch: off, on without a file, or on writing to `path`.
struct EnvSink {
  bool on = false;
  std::string path;  ///< empty when on without a file
};

/// Reads an output switch with the one sink grammar: unset, empty or `0`
/// is off; `1` or `-` is on without a file; any other digit-only value is
/// rejected as a mistyped switch; anything else is a path.  With
/// `needs_path` (AIO_TRACE, AIO_BENCH_JSON, AIO_METRICS, AIO_FLIGHT) `1` and
/// `-` are rejected too.
inline EnvSink env_sink(const char* name, bool needs_path = false) {
  EnvSink sink;
  const char* v = detail::env_value(name);
  if (!v || std::strcmp(v, "0") == 0) return sink;
  const bool bare = std::strcmp(v, "1") == 0 || std::strcmp(v, "-") == 0;
  bool digits_only = true;
  for (const char* p = v; *p; ++p) digits_only = digits_only && *p >= '0' && *p <= '9';
  if ((digits_only && !bare) || (bare && needs_path)) {
    detail::reject(name, v, needs_path ? "0 or a file path" : "0, 1, -, or a file path");
    return sink;
  }
  sink.on = true;
  if (!bare) sink.path = v;
  return sink;
}

/// A machine's output slot: an explicit `slot` >= 0 is kept (benches that
/// build machines in parallel pass their unit index); -1 takes the next
/// number from the one per-process ordinal, in construction order.
inline int machine_slot(int slot = -1) {
  static std::atomic<int> next{0};
  return slot >= 0 ? slot : next.fetch_add(1, std::memory_order_relaxed);
}

/// `path` for slot 0, `path.k+1` for slot k; -1 resolves through
/// machine_slot first.
inline std::string numbered_path(const std::string& path, int slot) {
  const int ordinal = machine_slot(slot) + 1;
  return ordinal == 1 ? path : path + "." + std::to_string(ordinal);
}

}  // namespace aio::obs
