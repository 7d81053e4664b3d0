// Structured trace sink: Chrome trace_event JSON keyed by simulated time.
//
// Instrumented layers (engine, protocol runtime, OSTs, MDS, thread runtime)
// hold an `obs::TraceSink*` that is null by default, so tracing costs one
// pointer test when disabled and nothing is recorded.  When a sink is
// installed, layers record spans (ph B/E), instants (ph i) and counter
// samples (ph C) onto fixed pid/tid "tracks"; `write()` emits the standard
// `{"traceEvents": [...]}` document that chrome://tracing and Perfetto load
// directly.  Timestamps are simulated seconds converted to microseconds (the
// trace_event unit); the thread runtime feeds wall-clock seconds instead and
// gets the same treatment.
//
// The sink is bounded: past `max_events` new events are counted as dropped
// rather than recorded, so a runaway protocol cannot exhaust memory.  All
// recording methods are mutex-guarded — the thread runtime traces from many
// OS threads at once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace aio::obs {

class Registry;

/// Event categories, a bitmask.  A sink records only the categories it was
/// configured with; `kCatEngine` (one instant per DES event dispatch) is
/// excluded from the default because it multiplies trace volume by the total
/// event count.
enum Cat : std::uint32_t {
  kCatEngine = 1u << 0,    ///< DES engine event dispatch
  kCatProtocol = 1u << 1,  ///< adaptive protocol messages, writes, steals
  kCatStorage = 1u << 2,   ///< OST fluid model transitions
  kCatMds = 1u << 3,       ///< metadata server service + backlog
  kCatRuntime = 1u << 4,   ///< thread runtime (wall-clock timestamps)
  kCatSampler = 1u << 5,   ///< periodic per-OST counter tracks
  kCatAll = 0xFFFFFFFFu,
  kCatDefault = kCatAll & ~kCatEngine,
};

/// Fixed Chrome-trace process ids: one "process" per instrumented layer, so
/// the viewer groups tracks by layer.
inline constexpr std::uint32_t kPidEngine = 1;
inline constexpr std::uint32_t kPidProtocol = 2;
inline constexpr std::uint32_t kPidStorage = 3;
inline constexpr std::uint32_t kPidMds = 4;
inline constexpr std::uint32_t kPidRuntime = 5;
/// Process names of kPidEngine..kPidRuntime, in pid order.
inline constexpr const char* kLayerNames[] = {"des engine", "adaptive protocol", "storage targets",
                                              "metadata server", "thread runtime"};

class TraceSink {
 public:
  struct Config {
    std::string path;         ///< write() destination; empty = in-memory only
    std::uint32_t categories = kCatDefault;
    std::size_t max_events = 4'000'000;  ///< drop (and count) beyond this
  };

  /// Argument list attached to an event, in insertion order.
  using Args = std::vector<std::pair<std::string, Json>>;

  explicit TraceSink(Config config);

  /// Builds a sink from `AIO_TRACE` (nullptr when unset).  A process
  /// hosting several machines writes one trace per machine, with numbered
  /// paths (`<path>`, `<path>.2`, ...).  `slot >= 0` selects the path
  /// deterministically (slot k writes `<path>.k+1`); the default -1 numbers
  /// sinks in creation order via an atomic counter — stable serially,
  /// arbitrary when sinks are created from several threads.
  /// `AIO_TRACE_CATS` ("all", "engine", or a decimal bitmask) widens or
  /// narrows the recorded categories.
  [[nodiscard]] static std::unique_ptr<TraceSink> from_env(int slot = -1);

  /// True when `cat` is recorded; callers use this to skip building args.
  [[nodiscard]] bool wants(std::uint32_t cat) const {
    return (config_.categories & cat) != 0;
  }

  /// Thread-track naming (trace_event metadata; never dropped by the event cap).
  void name_thread(std::uint32_t pid, std::uint32_t tid, std::string name);

  /// Span begin / end on track (pid, tid).  Ends pair with the most recent
  /// unclosed begin on the same track (trace_event stack semantics).
  void begin(std::uint32_t cat, std::uint32_t pid, std::uint32_t tid, double t_s,
             std::string name, Args args = {});
  void end(std::uint32_t cat, std::uint32_t pid, std::uint32_t tid, double t_s);
  /// Point event.
  void instant(std::uint32_t cat, std::uint32_t pid, std::uint32_t tid, double t_s,
               std::string name, Args args = {});
  /// Counter sample: renders as a value track named `name` under `pid`.
  void counter(std::uint32_t cat, std::uint32_t pid, double t_s, std::string name,
               double value);

  [[nodiscard]] std::size_t events() const;
  [[nodiscard]] std::size_t dropped() const;
  [[nodiscard]] const Config& config() const { return config_; }

  /// Mirrors the drop count into `obs.trace.dropped` in `reg`.  Tracks what
  /// was already published, so repeated flushes (destructor after a watchdog
  /// abort) never double-count.
  void publish_drops(Registry& reg) const;

  /// Counts recorded events with phase `ph` ('B', 'E', 'i', 'C') whose name
  /// matches (empty = any).  Test/diagnostic helper.
  [[nodiscard]] std::size_t count(char ph, std::string_view name = {}) const;

  /// Streams the trace document (`{"traceEvents": [...], ...}`) to `out`.
  void write(std::ostream& out) const;
  /// Writes to `config().path`; no-op when the path is empty.  Returns false
  /// when the file could not be opened.
  bool write() const;

 private:
  struct Event {
    char ph;            // 'B', 'E', 'i', 'C'
    std::uint32_t cat;  // single Cat bit
    std::uint32_t pid;
    std::uint32_t tid;
    double ts_us;
    std::string name;
    Args args;
    double value;  // counter payload
  };

  [[nodiscard]] bool admit(std::uint32_t cat);  // caller holds mu_
  static void append_event(std::string& out, const Event& e);

  mutable std::mutex mu_;
  Config config_;
  std::vector<Event> events_;
  std::vector<Event> meta_;  // process/thread names; exempt from the cap
  std::size_t dropped_ = 0;
  mutable std::size_t drops_published_ = 0;  // publish_drops high-water mark
};

}  // namespace aio::obs
