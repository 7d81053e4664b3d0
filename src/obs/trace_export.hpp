// Offline journal -> Chrome trace_event converter.
//
// Renders any binary run journal — a flight-recorder dump from a crashed run
// included — as a Chrome trace for chrome://tracing or Perfetto, after the
// fact.  The document is built straight from the records, one Json object per
// event with no TraceSink in between, in the live sink's layout (layer names,
// key order, 4M-event cap).  `tools/aio_report --trace out.json` consumes it.
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
//   * runtime (pid 5): one instant per kProfShard record with the shard's
//     host-time split (only present when the run was profiled);
//   * critical path (pid 6, report_trace only): one thread per run, tiled
//     with the typed segments of `runs[i].critical_path` — the path renders
//     directly under the writer spans that produced it.
#pragma once

#include "obs/journal.hpp"
#include "obs/json.hpp"

namespace aio::obs {

/// Pid of the critical-path track group (extends the kPid* set in trace.hpp).
inline constexpr std::uint32_t kPidPath = 6;

/// Trace document for the journal's record stream alone.
[[nodiscard]] Json journal_trace(const Journal& journal);

/// Trace document for the `critical_path` blocks of an aio-report-v1
/// document (one thread per run).  Runs without a path contribute nothing.
[[nodiscard]] Json critical_path_trace(const Json& report);

/// Combined document: the journal's tracks plus the report's critical-path
/// tracks in one file, so cause (writer/OST activity) and effect (the path)
/// line up on a shared timeline.
[[nodiscard]] Json report_trace(const Journal& journal, const Json& report);

}  // namespace aio::obs
