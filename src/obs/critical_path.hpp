// Causal critical-path extraction over one run's journal records.
//
// The attribution block (analysis.cpp) partitions *aggregate* writer wait —
// it says where all writers' seconds went, but not which waits actually
// bounded end-to-end time.  The critical path answers that: starting from
// the run's reported interval [t_open_done, t_complete] (IoResult::
// io_seconds, the paper's number), it walks the causal chain through the
// *anchor* writer — the last writer to finish its data write, the one every
// later phase waited on — and tiles the interval with typed segments:
//
//   external  — the anchor's wait while its OST served background load
//               (the load integral over the queue / service interval);
//   internal  — the anchor's wait behind its own group's earlier writers,
//               and the internal share of its OST service time;
//   network   — write-signal transfer (signal -> first byte) and the
//               coordinator's close/merge phase;
//   mds       — metadata service observed inside the close phase (per-MDS
//               queue wait during the open phase is reported alongside,
//               outside the path, since io_seconds starts after opens);
//   residual  — anchor end -> all-data-done slack (steal drains and
//               bookkeeping between the anchor and the data-done mark).
//
// Segments are contiguous — each starts where the previous ended — so their
// durations sum to io_seconds by construction (CI gates the identity at
// 1e-9).  Where a segment's type splits an interval (external vs internal),
// the boundary is synthetic: the external share is integrated, clamped to
// the interval, and laid down first.  Runs whose anchor chain is incomplete
// (no writers, missing marks) degrade to a single residual segment.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/json.hpp"

namespace aio::obs {

/// One typed interval of the path.  `type` is a static string, one of
/// "mds" / "internal" / "external" / "network" / "residual".
struct PathSeg {
  const char* type;
  double t0;
  double t1;
};

/// Everything the extraction needs from one run, distilled by analyze()'s
/// record fold.  Times < 0 mean "not observed".
struct PathInputs {
  double t_open = -1.0;      ///< kOpenDone mark (the interval's left edge)
  double t_data_done = -1.0; ///< kDataDone mark
  double t_complete = -1.0;  ///< kComplete mark (right edge)
  bool have_anchor = false;  ///< a writer with signal/start/end was found
  std::uint32_t anchor_writer = 0;
  std::uint32_t anchor_target = 0;  ///< file the anchor wrote
  std::uint32_t anchor_ost = 0;     ///< OST that file lives on
  bool anchor_adaptive = false;     ///< the anchor was a steal redirect
  double signal_t = -1.0;    ///< anchor's write signal left its SC
  double start_t = -1.0;     ///< anchor's first byte hit the storage layer
  double end_t = -1.0;       ///< anchor's write completed
  double queue_ext_s = 0.0;  ///< home-OST load integral over [t_open, signal_t]
  double service_ext_s = 0.0;///< target-OST load integral over [start_t, end_t]
  double close_mds_s = 0.0;  ///< MDS service observed in [t_data_done, t_complete]
  double grant_t = -1.0;     ///< anchor's steal grant time (adaptive only)
  double steal_saved_s = 0.0;///< anchor chain vs the no-steal counterfactual
  /// Open-phase context, reported alongside the path (outside io_seconds).
  double t_begin = 0.0;
  double open_mds_service_s = 0.0;  ///< MDS service before the kOpenDone mark
};

/// Per-type duration totals of a segment list.
struct PathTotals {
  double mds_s = 0.0;
  double internal_s = 0.0;
  double external_s = 0.0;
  double network_s = 0.0;
  double residual_s = 0.0;
  double span_s = 0.0;  ///< sum of all segment durations
};

/// Ordered, contiguous segments tiling [t_open, t_complete].  Empty when the
/// run has no complete [t_open, t_complete] interval.
[[nodiscard]] std::vector<PathSeg> critical_path_segments(const PathInputs& in);

[[nodiscard]] PathTotals path_totals(const std::vector<PathSeg>& segs);

/// The per-run `critical_path` report block: t0/t1/span, the anchor chain,
/// the segment array, and per-type totals, which are also stored in
/// `*out_totals` when given.  Json null (and `*out_totals` untouched) when
/// the run has no complete interval.
[[nodiscard]] Json critical_path_json(const PathInputs& in, PathTotals* out_totals = nullptr);

}  // namespace aio::obs
