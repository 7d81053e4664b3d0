#include "obs/critical_path.hpp"

#include <algorithm>

namespace aio::obs {

std::vector<PathSeg> critical_path_segments(const PathInputs& in) {
  std::vector<PathSeg> out;
  if (in.t_open < 0.0 || in.t_complete < in.t_open) return out;
  const double t1 = in.t_complete;
  double c = in.t_open;  // cursor: every segment starts where the last ended
  const auto push = [&](const char* type, double to) {
    to = std::min(std::max(to, c), t1);
    if (to > c) {
      out.push_back(PathSeg{type, c, to});
      c = to;
    }
  };

  const bool chain_ok = in.have_anchor && in.signal_t >= 0.0 && in.start_t >= 0.0 &&
                        in.end_t >= 0.0;
  if (!chain_ok) {
    // Incomplete chain (no writers, or the anchor never reached the storage
    // layer): the whole interval is one residual segment so the identity
    // sum(segments) == io_seconds still holds.
    push("residual", t1);
    return out;
  }

  // Queue wait [t_open, signal]: the anchor sat behind its group's earlier
  // writers while its home OST also served background load.  External share
  // first (integrated, clamped to the interval), internal remainder after.
  {
    const double sig = std::min(std::max(in.signal_t, c), t1);
    const double ext = std::min(std::max(in.queue_ext_s, 0.0), sig - c);
    push("external", c + ext);
    push("internal", sig);
  }
  // Signal transfer: the write signal travelling SC -> writer -> first byte.
  push("network", in.start_t);
  // OST service [start, end]: same external/internal split on the target.
  {
    const double en = std::min(std::max(in.end_t, c), t1);
    const double ext = std::min(std::max(in.service_ext_s, 0.0), en - c);
    push("external", c + ext);
    push("internal", en);
  }
  // Anchor end -> data-done: steal drains and role bookkeeping the run still
  // waited on after its slowest writer.
  push("residual", in.t_data_done >= 0.0 ? in.t_data_done : c);
  // Close phase [data_done, complete]: index merge + close traffic, with any
  // metadata service observed inside the phase credited to the MDS first.
  {
    const double mds = std::min(std::max(in.close_mds_s, 0.0), t1 - c);
    push("mds", c + mds);
    push("network", t1);
  }
  return out;
}

PathTotals path_totals(const std::vector<PathSeg>& segs) {
  PathTotals t;
  for (const PathSeg& s : segs) {
    const double d = s.t1 - s.t0;
    t.span_s += d;
    if (s.type[0] == 'm') t.mds_s += d;
    else if (s.type[0] == 'i') t.internal_s += d;
    else if (s.type[0] == 'e') t.external_s += d;
    else if (s.type[0] == 'n') t.network_s += d;
    else t.residual_s += d;
  }
  return t;
}

Json critical_path_json(const PathInputs& in, PathTotals* out_totals) {
  const std::vector<PathSeg> segs = critical_path_segments(in);
  if (segs.empty()) return Json();
  const PathTotals t = path_totals(segs);
  if (out_totals) *out_totals = t;

  Json doc = Json::object();
  doc.set("t0", in.t_open);
  doc.set("t1", in.t_complete);
  doc.set("span_s", in.t_complete - in.t_open);

  Json anchor = Json::object();
  anchor.set("found", in.have_anchor);
  if (in.have_anchor) {
    anchor.set("writer", in.anchor_writer);
    anchor.set("target", in.anchor_target);
    anchor.set("ost", in.anchor_ost);
    anchor.set("adaptive", in.anchor_adaptive);
    anchor.set("signal_t", in.signal_t);
    anchor.set("start_t", in.start_t);
    anchor.set("end_t", in.end_t);
    if (in.anchor_adaptive && in.grant_t >= 0.0) {
      anchor.set("grant_t", in.grant_t);
      anchor.set("steal_saved_s", in.steal_saved_s);
    }
  }
  doc.set("anchor", std::move(anchor));

  Json arr = Json::array();
  for (const PathSeg& s : segs) {
    Json sj = Json::object();
    sj.set("type", s.type);
    sj.set("t0", s.t0);
    sj.set("t1", s.t1);
    sj.set("dur_s", s.t1 - s.t0);
    arr.push(std::move(sj));
  }
  doc.set("segments", std::move(arr));

  Json totals = Json::object();
  totals.set("mds_s", t.mds_s);
  totals.set("internal_s", t.internal_s);
  totals.set("external_s", t.external_s);
  totals.set("network_s", t.network_s);
  totals.set("residual_s", t.residual_s);
  totals.set("sum_s", t.span_s);
  doc.set("totals", std::move(totals));

  // Open-phase context: the metadata cost paid *before* io_seconds starts.
  // Outside the path on purpose — the paper's number excludes opens — but a
  // stagger/createstorm investigation needs it next to the path.
  Json open = Json::object();
  open.set("wait_s", in.t_open - in.t_begin);
  open.set("mds_service_s", in.open_mds_service_s);
  doc.set("open_phase", std::move(open));
  return doc;
}

}  // namespace aio::obs
