// Post-run variability analytics over the run journal (obs/journal.hpp).
//
// `analyze` reduces a journal's record stream to the self-contained
// `aio-report-v1` JSON document:
//
//  * stall attribution — every simulated second a writer spends between run
//    begin and its first data byte is split into MDS service (open phase),
//    internal queueing (waiting behind its group's earlier writers), external
//    interference (the home OST's background net/disk load, integrated over
//    the writer's queue interval from the OST state timeline) and network
//    transfer of the write signal.  The four components partition the wait
//    exactly, so `attributed_frac` is 1.0 by construction.
//  * variability statistics — per-run completion time (t_complete −
//    t_open_done, the paper's reported io_seconds) and per-writer write time,
//    as mean/stddev/CoV (exact, Welford) plus quartiles/p90/p99 from the
//    `obs::Histogram` log-bucket sketch, overall and per OST.
//  * steal provenance — each grant→migration→completion chain is priced
//    against the no-steal counterfactual (the stolen writer draining behind
//    its source queue at the source OST's observed mean service time), giving
//    simulated seconds saved per steal and a policy-effectiveness table.
//
// `diff_reports` compares two reports leaf-by-leaf under configurable
// tolerances — the CI regression gate (tools/aio_diff).  `report_summary`
// and `report_html` render the document for terminals and browsers;
// `flush_report` is the AIO_REPORT / AIO_TRACE env hook the benches and the
// API call at teardown.
#pragma once

#include <string>
#include <vector>

#include "obs/json.hpp"

namespace aio::obs {

class Journal;

/// Reduces `journal` to an aio-report-v1 document.  Total: parses every
/// record stream the instrumented stack can produce, including an empty one.
[[nodiscard]] Json analyze(const Journal& journal);

/// Terse end-of-run summary: writers, steals, run/writer CoV and p99, wait
/// attribution shares, top-3 straggler OSTs, steal savings.  Multi-line,
/// newline-terminated; empty string for a report with no runs.
[[nodiscard]] std::string report_summary(const Json& report);

/// Self-contained static HTML page (inline CSS, no external assets)
/// rendering the report's tables, with the raw JSON embedded for tooling.
[[nodiscard]] std::string report_html(const Json& report);

struct DiffOptions {
  /// A numeric leaf fails when |cur - base| > max(abs, rel * |base|).
  double rel = 0.25;
  double abs = 1e-9;
  /// Object keys skipped (with their whole subtree) at any depth.  The
  /// defaults drop the per-OST/per-steal detail tables and journal byte
  /// counts, which legitimately shift run to run.
  std::vector<std::string> ignore = {"osts", "stragglers", "per_source", "journal"};
};

/// Leaf-by-leaf comparison of two reports.  Returns one human-readable line
/// per violation (tolerance breach, type/shape mismatch, missing key);
/// empty means the reports agree within tolerance.
[[nodiscard]] std::vector<std::string> diff_reports(const Json& base, const Json& current,
                                                    const DiffOptions& opts = {});

/// End-of-run AIO_REPORT / AIO_TRACE hook; analyzes `journal` once when
/// either switch is on.  AIO_REPORT prints the terse summary to stdout and —
/// unless the value is "-" or "1" (summary only) — writes the JSON document
/// to the value as a path.  AIO_TRACE (a path) receives
/// `report_trace(journal, report)`, the same bytes `aio_report --trace`
/// writes.  Paths are numbered by the machine's `slot` (obs/env.hpp).
/// Returns false only when a file write failed; with both off, a no-op
/// returning true.
bool flush_report(const Journal& journal, int slot);

}  // namespace aio::obs
