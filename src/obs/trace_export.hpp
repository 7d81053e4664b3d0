// Offline journal -> Chrome trace_event converter.
//
// Renders any binary run journal — a flight-recorder dump from a crashed run
// included — as a Chrome trace for chrome://tracing or Perfetto, after the
// fact.  The events are written straight from the records as JSON text, with
// fixed per-layer pids, a fixed key order and a 4M-event cap, and the
// document holds them as one rendered array (Json::rendered_array): no Json
// value is built per event.  It is the only trace the stack writes:
// `tools/aio_report --trace out.json` and the end-of-run `AIO_TRACE` flush
// (obs::flush_report) both dump `report_trace`, so the two files are
// byte-identical.
//
// Tracks:
//   * protocol (pid 2): one thread per writer with a span from kWriterStart
//     to kWriterEnd (args: file, bytes) and an instant at kWriterSignal;
//     run-phase instants and steal grant/complete instants on thread 0;
//   * storage (pid 3): per-OST "ext load" counter tracks rebuilt from
//     kOstState (the same max(net, disk) step function the analyzer
//     integrates);
//   * mds (pid 4): one thread per metadata server, an instant per kMdsOp
//     (args: service_s, backlog, batched);
//   * runtime (pid 5): named for the thread runtime's layer, which emits no
//     records yet, so the process holds no events;
//   * critical path (pid 6, report_trace only): one thread per run, tiled
//     with the typed segments of `runs[i].critical_path` — the path renders
//     directly under the writer spans that produced it.
#pragma once

#include "obs/journal.hpp"
#include "obs/json.hpp"

namespace aio::obs {

/// Pid of the critical-path track group; pids 1-5 are the layers (engine,
/// protocol, storage, mds, runtime).
inline constexpr std::uint32_t kPidPath = 6;

/// Trace document for the journal's record stream alone.  Its `traceEvents`
/// is a rendered array: size() counts the events (metadata included) and
/// dump() writes them, but they have no element access.
[[nodiscard]] Json journal_trace(const Journal& journal);

/// Trace document for the `critical_path` blocks of an aio-report-v1
/// document (one thread per run).  Runs without a path contribute nothing.
[[nodiscard]] Json critical_path_trace(const Json& report);

/// Combined document: the journal's tracks plus the report's critical-path
/// tracks in one file, so cause (writer/OST activity) and effect (the path)
/// line up on a shared timeline.
[[nodiscard]] Json report_trace(const Journal& journal, const Json& report);

}  // namespace aio::obs
