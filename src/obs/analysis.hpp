// Post-run variability analytics over the run journal (obs/journal.hpp).
//
// `analyze` replays a journal's record stream through `obs::Fold`
// (obs/fold.hpp), the fold the live plane ingests, and reads each run at
// its close, writers in rank order, into the self-contained `aio-report-v1`
// JSON document:
//
//  * stall attribution — each writer's wait, run begin to its first data
//    byte, split by the fold's partition into MDS service, internal
//    queueing, external interference and network transfer.  The four
//    components partition the wait exactly, so `attributed_frac` is 1.0 by
//    construction.
//  * variability statistics — per-run completion time (t_complete −
//    t_open_done, the paper's reported io_seconds) and per-writer write time,
//    as mean/stddev/CoV (exact, Welford) plus quartiles/p90/p99 from the
//    `obs::Histogram` log-bucket sketch, overall and per OST.
//  * steal provenance — each grant→migration→completion chain is priced
//    against the no-steal counterfactual (the stolen writer draining behind
//    its source queue at the source OST's observed mean service time), giving
//    simulated seconds saved per steal and a policy-effectiveness table.
//  * stream counts — steals, grants, MDS dispatches and OST cache-full
//    crossings (an OST's kOstState cache-full flag rising), counted from the
//    records rather than at the emission sites.
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

/// While alive, this thread's `flush_report` summaries are appended to
/// `sink` instead of going to stdout.  Nests: the destructor restores the
/// previous target.  `bench::run_samples` holds one per threaded unit and
/// prints the captured text in index order on the calling thread.
class SummaryCapture {
 public:
  explicit SummaryCapture(std::string& sink);
  ~SummaryCapture();
  SummaryCapture(const SummaryCapture&) = delete;
  SummaryCapture& operator=(const SummaryCapture&) = delete;

 private:
  std::string* prev_;
};

/// End-of-run AIO_REPORT / AIO_TRACE hook; analyzes `journal` once when
/// either switch is on.  AIO_REPORT prints the terse summary to stdout (or
/// to this thread's SummaryCapture) and — unless the value is "-" or "1"
/// (summary only) — writes the JSON document to the value as a path.
/// AIO_TRACE (a path) receives `report_trace(journal, report)`, the same
/// bytes `aio_report --trace` writes.  Paths are numbered by the machine's
/// `slot` (obs/env.hpp).  Returns false only when a file write failed; with
/// both off, a no-op returning true.
bool flush_report(const Journal& journal, int slot);

}  // namespace aio::obs
