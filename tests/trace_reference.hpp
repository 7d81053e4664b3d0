// The object-per-event Chrome-trace builder, kept as the byte-for-byte oracle
// for obs::journal_trace / critical_path_trace / report_trace.
//
// This is the exporter as it was before it wrote JSON text directly: every
// event becomes a Json object (plus an `args` object), appended to one Json
// array that dump() serializes.  It is slow and memory-hungry, which is why
// the shipped exporter no longer works this way, but each key and value is
// spelled out through the Json value type, so any drift in the text writer
// shows as a byte difference.  Do not "optimize" this file; its value is that
// it stays the old, obviously-JSON path.
#pragma once

#include "obs/journal.hpp"
#include "obs/json.hpp"

namespace aio::obs::testing {

/// The trace document for `journal` and `report`, either of which may be
/// null: (journal, null) is journal_trace, (null, report) is
/// critical_path_trace and both is report_trace.
[[nodiscard]] Json trace_reference(const Journal* journal, const Json* report);

}  // namespace aio::obs::testing
