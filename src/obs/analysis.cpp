#include "obs/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/critical_path.hpp"
#include "obs/env.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_export.hpp"
#include "stats/summary.hpp"

namespace aio::obs {

namespace {

struct WriterInfo {
  double signal_t = -1.0;
  double start_t = -1.0;
  double end_t = -1.0;
  double bytes = 0.0;
  std::uint32_t target = 0;
  std::uint32_t origin = 0;
  std::uint32_t grant_seq = 0;
  bool adaptive = false;
};

struct StealInfo {
  double grant_t = -1.0;
  double complete_t = -1.0;
  double queue_depth = 0.0;
  double bytes = 0.0;
  std::uint32_t source = 0;
  std::uint32_t target = 0;
  std::uint32_t writer = 0;
};

struct RunData {
  std::uint32_t run = 0;
  std::uint32_t n_writers = 0, n_files = 0, n_osts = 0;
  double t_begin = 0.0, t_open = -1.0, t_data_done = -1.0, t_complete = -1.0;
  double steals = 0.0, grants = 0.0;
  std::uint64_t mds_ops = 0;
  double mds_service_s = 0.0;
  // Phase-scoped MDS service: before the kOpenDone mark (the open storm) and
  // after the kDataDone mark (close traffic inside the reported interval) —
  // the two ends the critical path cares about.
  double mds_open_s = 0.0;
  double mds_close_s = 0.0;
  std::map<std::uint32_t, std::uint32_t> file_ost;
  std::map<std::uint32_t, WriterInfo> writers;       // by rank
  std::map<std::uint32_t, StealInfo> steal_chains;   // by grant_seq
};

/// Piecewise-constant external-load fraction of one OST: `ext` holds from
/// `t` until the next segment.
struct OstSeg {
  double t;
  double ext;  // max(net_load, disk_load) at t
};

double integrate_ext(const std::vector<OstSeg>& segs, double a, double b) {
  if (b <= a || segs.empty()) return 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < segs.size(); ++i) {
    if (segs[i].t >= b) break;
    const double hi = std::min(b, i + 1 < segs.size() ? segs[i + 1].t : b);
    const double lo = std::max(a, segs[i].t);
    if (hi > lo) total += (hi - lo) * segs[i].ext;
  }
  return total;
}

/// Mean/stddev/CoV/extrema exact (Welford), interior quantiles from the
/// log-bucket sketch.
Json stat_block(const stats::Summary& s, const Histogram& h) {
  Json b = Json::object();
  b.set("count", static_cast<double>(s.count()));
  b.set("mean", s.mean());
  b.set("stddev", s.stddev());
  b.set("cov", s.cv());
  b.set("min", s.min());
  b.set("p25", h.quantile(0.25));
  b.set("p50", h.quantile(0.50));
  b.set("p75", h.quantile(0.75));
  b.set("p90", h.quantile(0.90));
  b.set("p99", h.quantile(0.99));
  b.set("max", s.max());
  return b;
}

std::string fmt(double v) {
  std::string s;
  Json::append_number(s, v);
  return s;
}

std::string fmt3(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

std::string pct(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.1f%%", v * 100.0);
  return buf;
}

double get_num(const Json& doc, std::initializer_list<const char*> path) {
  const Json* node = &doc;
  for (const char* key : path) {
    node = node->find(key);
    if (!node) return 0.0;
  }
  return node->number();
}

}  // namespace

Json analyze(const Journal& journal) {
  // --- pass 1: fold the record stream into per-run state --------------------
  std::vector<RunData> runs;
  RunData* cur = nullptr;  // run-scoped records attach to the last kRunBegin
  std::map<std::uint32_t, std::vector<OstSeg>> ost_timeline;

  // Global, not run-scoped (like the OST timeline): every metadata dispatch
  // attributes to its server, whether or not a run is in flight — a bench
  // driving the tier directly still gets a per-MDS table.
  struct MdsAgg {
    std::uint64_t ops = 0;    // requests dispatched (a batch counts once)
    std::uint64_t items = 0;  // operations carried (a batch counts its size)
    double service_s = 0.0;
    std::uint32_t peak_queue = 0;  // deepest backlog behind a dispatch
  };
  std::map<std::uint32_t, MdsAgg> mds_servers;
  std::vector<Record> prof_shards;  // kProfShard records, stream order

  for (const Record& r : journal.records()) {
    switch (r.kind) {
      case Rec::kRunBegin: {
        runs.emplace_back();
        cur = &runs.back();
        cur->run = r.id;
        cur->t_begin = r.t;
        cur->n_writers = r.u0;
        cur->n_files = r.u1;
        cur->n_osts = r.u2;
        break;
      }
      case Rec::kRunMark:
        if (!cur) break;
        switch (static_cast<Mark>(r.a)) {
          case Mark::kOpenDone: cur->t_open = r.t; break;
          case Mark::kDataDone: cur->t_data_done = r.t; break;
          case Mark::kComplete:
            cur->t_complete = r.t;
            cur->steals = r.v0;
            cur->grants = r.v1;
            break;
        }
        break;
      case Rec::kFileMap:
        if (cur) cur->file_ost[r.u0] = r.u1;
        break;
      case Rec::kWriterSignal:
        if (cur) {
          WriterInfo& w = cur->writers[r.id];
          w.signal_t = r.t;
          w.target = r.u0;
          w.origin = r.u1;
          w.grant_seq = r.u2;
          w.adaptive = r.a != 0;
        }
        break;
      case Rec::kWriterStart:
        if (cur) {
          WriterInfo& w = cur->writers[r.id];
          w.start_t = r.t;
          w.bytes = r.v0;
        }
        break;
      case Rec::kWriterEnd:
        if (cur) cur->writers[r.id].end_t = r.t;
        break;
      case Rec::kOstState:
        // Global, not run-scoped: the fluid state persists across runs.
        ost_timeline[r.id].push_back(OstSeg{r.t, std::max(r.v1, r.v2)});
        break;
      case Rec::kMdsOp: {
        if (cur) {
          ++cur->mds_ops;
          cur->mds_service_s += r.v0;
          if (cur->t_open < 0.0)
            cur->mds_open_s += r.v0;
          else if (cur->t_data_done >= 0.0 && r.t >= cur->t_data_done)
            cur->mds_close_s += r.v0;
        }
        MdsAgg& m = mds_servers[r.id];
        ++m.ops;
        m.items += 1 + static_cast<std::uint64_t>(r.u1);
        m.service_s += r.v0;
        m.peak_queue = std::max(m.peak_queue, r.u0);
        break;
      }
      case Rec::kStealGrant:
        if (cur) {
          StealInfo& s = cur->steal_chains[r.id];
          s.grant_t = r.t;
          s.source = r.u0;
          s.target = r.u1;
          s.queue_depth = r.v1;
        }
        break;
      case Rec::kStealComplete:
        if (cur) {
          StealInfo& s = cur->steal_chains[r.id];
          s.complete_t = r.t;
          s.source = r.u0;
          s.target = r.u1;
          s.writer = r.u2;
          s.bytes = r.v0;
        }
        break;
      case Rec::kProfShard:
        // Host-runtime artifact (obs/prof.hpp): surfaced verbatim under
        // summary.prof, never folded into simulated-time accounting.
        prof_shards.push_back(r);
        break;
    }
  }

  // --- pass 2: aggregate ----------------------------------------------------
  stats::Summary run_time;
  Histogram run_hist;
  stats::Summary writer_time;
  Histogram writer_hist;
  double mds_s = 0.0, net_s = 0.0, int_s = 0.0, ext_s = 0.0, wait_s = 0.0;
  std::uint64_t writes_total = 0;
  double steals_total = 0.0, grants_total = 0.0;
  std::uint64_t mds_ops_total = 0;
  double mds_service_total = 0.0;

  struct OstAgg {
    stats::Summary time;   // write durations landing on this OST
    Histogram hist;
    double bytes = 0.0;
    std::uint64_t writes = 0;
    double wait_int = 0.0;  // internal queueing of writers homed here
    double wait_ext = 0.0;  // external interference of writers homed here
  };
  std::map<std::uint32_t, OstAgg> osts;

  std::uint64_t cp_runs = 0;
  PathTotals cp_agg;

  std::uint64_t steals_completed = 0;
  double saved_total = 0.0;
  struct SourceAgg {
    std::uint32_t ost = 0;
    std::uint64_t steals = 0;
    double saved_s = 0.0;
  };
  std::map<std::uint32_t, SourceAgg> per_source;  // by source group

  Json runs_json = Json::array();
  for (RunData& run : runs) {
    if (run.t_complete >= 0.0 && run.t_open >= 0.0) {
      const double rt = run.t_complete - run.t_open;  // IoResult::io_seconds
      run_time.add(rt);
      run_hist.add(rt);
    }
    steals_total += run.steals;
    grants_total += run.grants;
    mds_ops_total += run.mds_ops;
    mds_service_total += run.mds_service_s;

    std::map<std::uint32_t, stats::Summary> file_service;  // write time per file
    for (auto& [rank, w] : run.writers) {
      if (w.start_t < 0.0 || w.end_t < 0.0) continue;
      const double dur = w.end_t - w.start_t;
      writer_time.add(dur);
      writer_hist.add(dur);
      ++writes_total;
      file_service[w.target].add(dur);
      const auto target_it = run.file_ost.find(w.target);
      const std::uint32_t target_ost = target_it != run.file_ost.end() ? target_it->second : 0;
      OstAgg& ta = osts[target_ost];
      ta.time.add(dur);
      ta.hist.add(dur);
      ta.bytes += w.bytes;
      ++ta.writes;

      // Stall attribution.  The wait (run begin -> first data byte) splits
      // exactly: MDS = the shared open phase; queue = [t_open, signal] on
      // the writer's home OST, decomposed into external interference (the
      // OST's background-load fraction, integrated over the interval) and
      // internal queueing (the remainder: waiting behind earlier writers);
      // network = signal -> start, the write signal's transfer time.
      if (run.t_open >= 0.0 && w.signal_t >= 0.0) {
        const double wait = w.start_t - run.t_begin;
        const double mds = std::max(0.0, run.t_open - run.t_begin);
        const double net = std::max(0.0, w.start_t - w.signal_t);
        const double q = std::max(0.0, w.signal_t - run.t_open);
        const auto home_it = run.file_ost.find(w.origin);
        const std::uint32_t home_ost = home_it != run.file_ost.end() ? home_it->second : 0;
        double ext = 0.0;
        if (const auto tl = ost_timeline.find(home_ost); tl != ost_timeline.end())
          ext = std::min(q, integrate_ext(tl->second, run.t_open, w.signal_t));
        const double internal = q - ext;
        mds_s += mds;
        net_s += net;
        int_s += internal;
        ext_s += ext;
        wait_s += wait;
        OstAgg& ha = osts[home_ost];
        ha.wait_int += internal;
        ha.wait_ext += ext;
      }
    }

    // Steal provenance: price each completed chain against the no-steal
    // counterfactual — the stolen writer draining behind `queue_depth`
    // writers at the source file's observed mean service time.
    for (auto& [seq, st] : run.steal_chains) {
      if (st.grant_t < 0.0 || st.complete_t < 0.0) continue;
      double svc = 0.0;
      if (const auto it = file_service.find(st.source);
          it != file_service.end() && it->second.count() > 0)
        svc = it->second.mean();
      const double saved = (st.grant_t + st.queue_depth * svc) - st.complete_t;
      ++steals_completed;
      saved_total += saved;
      SourceAgg& sa = per_source[st.source];
      const auto src_it = run.file_ost.find(st.source);
      sa.ost = src_it != run.file_ost.end() ? src_it->second : 0;
      ++sa.steals;
      sa.saved_s += saved;
    }

    // Critical path: walk the causal chain through the anchor writer — the
    // last to finish its data write, the one the close phase waited on.
    PathInputs pin;
    pin.t_open = run.t_open;
    pin.t_data_done = run.t_data_done;
    pin.t_complete = run.t_complete;
    pin.t_begin = run.t_begin;
    pin.open_mds_service_s = run.mds_open_s;
    pin.close_mds_s = run.mds_close_s;
    const WriterInfo* anchor = nullptr;
    std::uint32_t anchor_rank = 0;
    for (const auto& [rank, w] : run.writers) {
      if (w.signal_t < 0.0 || w.start_t < 0.0 || w.end_t < 0.0) continue;
      if (!anchor || w.end_t > anchor->end_t) {
        anchor = &w;
        anchor_rank = rank;
      }
    }
    if (anchor) {
      pin.have_anchor = true;
      pin.anchor_writer = anchor_rank;
      pin.anchor_target = anchor->target;
      pin.anchor_adaptive = anchor->adaptive;
      pin.signal_t = anchor->signal_t;
      pin.start_t = anchor->start_t;
      pin.end_t = anchor->end_t;
      const auto home_it = run.file_ost.find(anchor->origin);
      const std::uint32_t home_ost = home_it != run.file_ost.end() ? home_it->second : 0;
      const auto tgt_it = run.file_ost.find(anchor->target);
      pin.anchor_ost = tgt_it != run.file_ost.end() ? tgt_it->second : 0;
      if (run.t_open >= 0.0)
        if (const auto tl = ost_timeline.find(home_ost); tl != ost_timeline.end())
          pin.queue_ext_s = integrate_ext(tl->second, run.t_open, anchor->signal_t);
      if (const auto tl = ost_timeline.find(pin.anchor_ost); tl != ost_timeline.end())
        pin.service_ext_s = integrate_ext(tl->second, anchor->start_t, anchor->end_t);
      if (anchor->adaptive) {
        const auto st = run.steal_chains.find(anchor->grant_seq);
        if (st != run.steal_chains.end() && st->second.grant_t >= 0.0) {
          pin.grant_t = st->second.grant_t;
          if (st->second.complete_t >= 0.0) {
            double svc = 0.0;
            if (const auto fi = file_service.find(st->second.source);
                fi != file_service.end() && fi->second.count() > 0)
              svc = fi->second.mean();
            pin.steal_saved_s =
                (st->second.grant_t + st->second.queue_depth * svc) - st->second.complete_t;
          }
        }
      }
    }
    Json cp = critical_path_json(pin);
    if (!cp.is_null()) {
      const PathTotals pt = path_totals(critical_path_segments(pin));
      ++cp_runs;
      cp_agg.mds_s += pt.mds_s;
      cp_agg.internal_s += pt.internal_s;
      cp_agg.external_s += pt.external_s;
      cp_agg.network_s += pt.network_s;
      cp_agg.residual_s += pt.residual_s;
      cp_agg.span_s += pt.span_s;
    }

    Json rj = Json::object();
    rj.set("run", run.run);
    rj.set("n_writers", run.n_writers);
    rj.set("n_files", run.n_files);
    rj.set("n_osts", run.n_osts);
    rj.set("t_begin", run.t_begin);
    rj.set("t_open", run.t_open);
    rj.set("t_data_done", run.t_data_done);
    rj.set("t_complete", run.t_complete);
    rj.set("run_time_s",
           run.t_complete >= 0.0 && run.t_open >= 0.0 ? run.t_complete - run.t_open : -1.0);
    rj.set("steals", run.steals);
    rj.set("grants", run.grants);
    rj.set("mds_ops", static_cast<double>(run.mds_ops));
    if (!cp.is_null()) rj.set("critical_path", std::move(cp));
    runs_json.push(std::move(rj));
  }

  // --- assemble the document ------------------------------------------------
  Json doc = Json::object();
  doc.set("schema", "aio-report-v1");
  Json jj = Json::object();
  jj.set("records", static_cast<double>(journal.records().size()));
  jj.set("dropped", static_cast<double>(journal.dropped()));
  jj.set("runs", static_cast<double>(journal.runs()));
  doc.set("journal", std::move(jj));
  doc.set("runs", std::move(runs_json));

  Json summary = Json::object();
  summary.set("writers", static_cast<double>(writes_total));
  summary.set("steals", steals_total);
  summary.set("grants", grants_total);
  summary.set("mds_ops", static_cast<double>(mds_ops_total));
  summary.set("mds_service_s", mds_service_total);
  if (!mds_servers.empty()) {
    Json tier = Json::object();
    for (const auto& [idx, m] : mds_servers) {
      Json mj = Json::object();
      mj.set("ops", static_cast<double>(m.ops));
      mj.set("items", static_cast<double>(m.items));
      mj.set("service_s", m.service_s);
      mj.set("peak_queue", static_cast<double>(m.peak_queue));
      tier.set("mds" + std::to_string(idx), std::move(mj));
    }
    summary.set("mds_servers", std::move(tier));
  }
  summary.set("run_time", stat_block(run_time, run_hist));
  summary.set("writer_time", stat_block(writer_time, writer_hist));

  Json attrib = Json::object();
  attrib.set("total_wait_s", wait_s);
  attrib.set("internal_s", int_s);
  attrib.set("external_s", ext_s);
  attrib.set("mds_s", mds_s);
  attrib.set("network_s", net_s);
  const double denom = wait_s > 0.0 ? wait_s : 1.0;
  attrib.set("internal_share", int_s / denom);
  attrib.set("external_share", ext_s / denom);
  attrib.set("mds_share", mds_s / denom);
  attrib.set("network_share", net_s / denom);
  attrib.set("attributed_frac",
             wait_s > 0.0 ? (int_s + ext_s + mds_s + net_s) / wait_s : 1.0);
  summary.set("attribution", std::move(attrib));

  if (cp_runs > 0) {
    // Aggregate critical path: the bounded seconds by type, summed over
    // runs.  Unlike attribution (all writers' waits) this is only the time
    // that actually gated end-to-end completion.
    Json cpj = Json::object();
    cpj.set("runs", static_cast<double>(cp_runs));
    cpj.set("span_s", cp_agg.span_s);
    cpj.set("mds_s", cp_agg.mds_s);
    cpj.set("internal_s", cp_agg.internal_s);
    cpj.set("external_s", cp_agg.external_s);
    cpj.set("network_s", cp_agg.network_s);
    cpj.set("residual_s", cp_agg.residual_s);
    const double cp_denom = cp_agg.span_s > 0.0 ? cp_agg.span_s : 1.0;
    cpj.set("mds_share", cp_agg.mds_s / cp_denom);
    cpj.set("internal_share", cp_agg.internal_s / cp_denom);
    cpj.set("external_share", cp_agg.external_s / cp_denom);
    cpj.set("network_share", cp_agg.network_s / cp_denom);
    cpj.set("residual_share", cp_agg.residual_s / cp_denom);
    summary.set("critical_path", std::move(cpj));
  }

  if (!prof_shards.empty()) {
    Json prof = Json::array();
    for (const Record& r : prof_shards) {
      Json pj = Json::object();
      pj.set("shard", r.id);
      pj.set("n_shards", static_cast<double>(r.a));
      pj.set("t", r.t);
      pj.set("execute_s", r.v0);
      pj.set("barrier_s", r.v1);
      pj.set("merge_s", r.v2);
      pj.set("events", static_cast<double>(r.u0));
      pj.set("msgs_posted", static_cast<double>(r.u1));
      pj.set("msgs_drained", static_cast<double>(r.u2));
      prof.push(std::move(pj));
    }
    summary.set("prof", std::move(prof));
  }

  Json steals_doc = Json::object();
  steals_doc.set("completed", static_cast<double>(steals_completed));
  steals_doc.set("saved_s", saved_total);
  steals_doc.set("mean_saved_s",
                 steals_completed > 0 ? saved_total / static_cast<double>(steals_completed)
                                      : 0.0);
  Json sources = Json::object();
  for (const auto& [group, sa] : per_source) {
    Json sj = Json::object();
    sj.set("ost", sa.ost);
    sj.set("steals", static_cast<double>(sa.steals));
    sj.set("saved_s", sa.saved_s);
    sources.set("group" + std::to_string(group), std::move(sj));
  }
  steals_doc.set("per_source", std::move(sources));
  summary.set("steal_savings", std::move(steals_doc));

  Json osts_doc = Json::object();
  std::vector<std::pair<std::uint32_t, double>> by_mean;
  for (const auto& [ost, agg] : osts) {
    Json oj = Json::object();
    oj.set("writes", static_cast<double>(agg.writes));
    oj.set("bytes", agg.bytes);
    oj.set("mean_s", agg.time.mean());
    oj.set("cov", agg.time.cv());
    oj.set("p99_s", agg.hist.quantile(0.99));
    oj.set("max_s", agg.time.max());
    oj.set("wait_internal_s", agg.wait_int);
    oj.set("wait_external_s", agg.wait_ext);
    osts_doc.set("ost" + std::to_string(ost), std::move(oj));
    if (agg.writes > 0) by_mean.emplace_back(ost, agg.time.mean());
  }
  summary.set("osts", std::move(osts_doc));
  std::sort(by_mean.begin(), by_mean.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  Json stragglers = Json::array();
  for (std::size_t i = 0; i < by_mean.size() && i < 3; ++i) {
    Json sj = Json::object();
    sj.set("ost", by_mean[i].first);
    sj.set("mean_s", by_mean[i].second);
    stragglers.push(std::move(sj));
  }
  summary.set("stragglers", std::move(stragglers));
  doc.set("summary", std::move(summary));
  return doc;
}

std::string report_summary(const Json& report) {
  const Json* runs = report.find("runs");
  if (!runs || runs->size() == 0) return {};
  std::string out;
  out += "aio-report: ";
  out += fmt(static_cast<double>(runs->size()));
  out += " run(s), ";
  out += fmt(get_num(report, {"summary", "writers"}));
  out += " writer-writes, ";
  out += fmt(get_num(report, {"summary", "steals"}));
  out += " steals / ";
  out += fmt(get_num(report, {"summary", "grants"}));
  out += " grants\n";
  out += "  run_time     mean=" + fmt3(get_num(report, {"summary", "run_time", "mean"}));
  out += "s cov=" + pct(get_num(report, {"summary", "run_time", "cov"}));
  out += " p99=" + fmt3(get_num(report, {"summary", "run_time", "p99"})) + "s\n";
  out += "  writer_time  mean=" + fmt3(get_num(report, {"summary", "writer_time", "mean"}));
  out += "s cov=" + pct(get_num(report, {"summary", "writer_time", "cov"}));
  out += " p99=" + fmt3(get_num(report, {"summary", "writer_time", "p99"})) + "s\n";
  out += "  wait: internal " + pct(get_num(report, {"summary", "attribution", "internal_share"}));
  out += ", external " + pct(get_num(report, {"summary", "attribution", "external_share"}));
  out += ", mds " + pct(get_num(report, {"summary", "attribution", "mds_share"}));
  out += ", network " + pct(get_num(report, {"summary", "attribution", "network_share"}));
  out += " (attributed " + pct(get_num(report, {"summary", "attribution", "attributed_frac"}));
  out += ")\n";
  if (get_num(report, {"summary", "critical_path", "runs"}) > 0) {
    out += "  critical path: external " +
           pct(get_num(report, {"summary", "critical_path", "external_share"}));
    out += ", internal " + pct(get_num(report, {"summary", "critical_path", "internal_share"}));
    out += ", network " + pct(get_num(report, {"summary", "critical_path", "network_share"}));
    out += ", mds " + pct(get_num(report, {"summary", "critical_path", "mds_share"}));
    out += ", residual " + pct(get_num(report, {"summary", "critical_path", "residual_share"}));
    out += " of " + fmt3(get_num(report, {"summary", "critical_path", "span_s"})) +
           "s bounded\n";
  }
  if (const Json* stragglers = report.find("summary");
      stragglers && (stragglers = stragglers->find("stragglers")) && stragglers->size() > 0) {
    out += "  stragglers:";
    for (std::size_t i = 0; i < stragglers->size(); ++i) {
      const Json& s = stragglers->at(i);
      out += i == 0 ? " " : ", ";
      out += "ost" + fmt(get_num(s, {"ost"})) + " mean=" + fmt3(get_num(s, {"mean_s"})) + "s";
    }
    out += '\n';
  }
  if (get_num(report, {"summary", "steal_savings", "completed"}) > 0) {
    out += "  steals: saved " + fmt3(get_num(report, {"summary", "steal_savings", "saved_s"}));
    out += " sim-s total, " +
           fmt3(get_num(report, {"summary", "steal_savings", "mean_saved_s"})) + " s/steal\n";
  }
  return out;
}

namespace {

void html_stat_row(std::string& out, const char* name, const Json& report,
                   const char* block) {
  const double mean = get_num(report, {"summary", block, "mean"});
  const double cov = get_num(report, {"summary", block, "cov"});
  const double p50 = get_num(report, {"summary", block, "p50"});
  const double p99 = get_num(report, {"summary", block, "p99"});
  const double max = get_num(report, {"summary", block, "max"});
  out += "<tr><td>" + std::string(name) + "</td><td>" +
         fmt(get_num(report, {"summary", block, "count"})) + "</td><td>" + fmt3(mean) +
         "</td><td>" + pct(cov) + "</td><td>" + fmt3(p50) + "</td><td>" + fmt3(p99) +
         "</td><td>" + fmt3(max) + "</td></tr>\n";
}

}  // namespace

std::string report_html(const Json& report) {
  std::string out;
  out +=
      "<!doctype html>\n<html><head><meta charset=\"utf-8\">\n"
      "<title>aio report</title>\n<style>\n"
      "body{font:14px/1.5 system-ui,sans-serif;margin:2em;max-width:60em}\n"
      "table{border-collapse:collapse;margin:1em 0}\n"
      "td,th{border:1px solid #ccc;padding:.3em .7em;text-align:right}\n"
      "th{background:#f2f2f2}td:first-child,th:first-child{text-align:left}\n"
      ".bar{display:inline-block;height:.8em;background:#4a90d9}\n"
      "</style></head><body>\n<h1>aio report</h1>\n";

  // Run-summary navigation: the deep-dive sections live below the fold.
  {
    std::string nav = "<p>";
    if (get_num(report, {"summary", "critical_path", "runs"}) > 0)
      nav += "<a href=\"#critical-path\">Critical path</a> &middot; ";
    if (const Json* s = report.find("summary"); s && s->find("mds_servers"))
      nav += "<a href=\"#mds\">Metadata tier</a> &middot; ";
    if (nav.size() > 3) {
      nav.resize(nav.size() - 10);  // drop the trailing " &middot; "
      out += nav + "</p>\n";
    }
  }

  out += "<h2>Variability</h2>\n<table><tr><th>metric</th><th>n</th><th>mean (s)</th>"
         "<th>CoV</th><th>p50 (s)</th><th>p99 (s)</th><th>max (s)</th></tr>\n";
  html_stat_row(out, "run_time", report, "run_time");
  html_stat_row(out, "writer_time", report, "writer_time");
  out += "</table>\n";

  out += "<h2>Wait attribution</h2>\n<table><tr><th>component</th><th>seconds</th>"
         "<th>share</th><th></th></tr>\n";
  for (const char* comp : {"internal", "external", "mds", "network"}) {
    const double s = get_num(report, {"summary", "attribution",
                                      (std::string(comp) + "_s").c_str()});
    const double share = get_num(report, {"summary", "attribution",
                                          (std::string(comp) + "_share").c_str()});
    out += "<tr><td>" + std::string(comp) + "</td><td>" + fmt3(s) + "</td><td>" +
           pct(share) + "</td><td><span class=\"bar\" style=\"width:" +
           fmt(std::max(1.0, share * 300.0)) + "px\"></span></td></tr>\n";
  }
  out += "</table>\n";

  if (get_num(report, {"summary", "critical_path", "runs"}) > 0) {
    out += "<h2 id=\"critical-path\">Critical path</h2>\n"
           "<p>Seconds that actually bounded end-to-end completion, summed over " +
           fmt(get_num(report, {"summary", "critical_path", "runs"})) +
           " run(s) (segments per run under <code>runs[i].critical_path</code>).</p>\n"
           "<table><tr><th>segment type</th><th>seconds</th><th>share</th><th></th></tr>\n";
    for (const char* comp : {"external", "internal", "network", "mds", "residual"}) {
      const double s = get_num(report, {"summary", "critical_path",
                                        (std::string(comp) + "_s").c_str()});
      const double share = get_num(report, {"summary", "critical_path",
                                            (std::string(comp) + "_share").c_str()});
      out += "<tr><td>" + std::string(comp) + "</td><td>" + fmt3(s) + "</td><td>" +
             pct(share) + "</td><td><span class=\"bar\" style=\"width:" +
             fmt(std::max(1.0, share * 300.0)) + "px\"></span></td></tr>\n";
    }
    out += "</table>\n";
  }

  if (const Json* summary = report.find("summary")) {
    if (const Json* tier = summary->find("mds_servers"); tier && tier->is_object()) {
      out += "<h2 id=\"mds\">Metadata tier</h2>\n<table><tr><th>server</th><th>requests</th>"
             "<th>items</th><th>service (s)</th><th>peak queue</th></tr>\n";
      for (const auto& [name, mj] : tier->entries()) {
        out += "<tr><td>" + name + "</td><td>" + fmt(get_num(mj, {"ops"})) + "</td><td>" +
               fmt(get_num(mj, {"items"})) + "</td><td>" + fmt3(get_num(mj, {"service_s"})) +
               "</td><td>" + fmt(get_num(mj, {"peak_queue"})) + "</td></tr>\n";
      }
      out += "</table>\n";
    }
  }

  if (const Json* summary = report.find("summary")) {
    if (const Json* osts = summary->find("osts"); osts && osts->is_object()) {
      out += "<h2>Storage targets</h2>\n<table><tr><th>OST</th><th>writes</th>"
             "<th>mean (s)</th><th>CoV</th><th>p99 (s)</th><th>wait int (s)</th>"
             "<th>wait ext (s)</th></tr>\n";
      for (const auto& [name, oj] : osts->entries()) {
        out += "<tr><td>" + name + "</td><td>" + fmt(get_num(oj, {"writes"})) + "</td><td>" +
               fmt3(get_num(oj, {"mean_s"})) + "</td><td>" + pct(get_num(oj, {"cov"})) +
               "</td><td>" + fmt3(get_num(oj, {"p99_s"})) + "</td><td>" +
               fmt3(get_num(oj, {"wait_internal_s"})) + "</td><td>" +
               fmt3(get_num(oj, {"wait_external_s"})) + "</td></tr>\n";
      }
      out += "</table>\n";
    }
    if (const Json* st = summary->find("steal_savings")) {
      out += "<h2>Steal provenance</h2>\n<p>" + fmt(get_num(*st, {"completed"})) +
             " completed steals saved " + fmt3(get_num(*st, {"saved_s"})) +
             " simulated seconds (" + fmt3(get_num(*st, {"mean_saved_s"})) +
             " s/steal vs the no-steal counterfactual).</p>\n";
      if (const Json* sources = st->find("per_source"); sources && sources->size() > 0) {
        out += "<table><tr><th>source</th><th>OST</th><th>steals</th>"
               "<th>saved (s)</th></tr>\n";
        for (const auto& [name, sj] : sources->entries()) {
          out += "<tr><td>" + name + "</td><td>ost" + fmt(get_num(sj, {"ost"})) +
                 "</td><td>" + fmt(get_num(sj, {"steals"})) + "</td><td>" +
                 fmt3(get_num(sj, {"saved_s"})) + "</td></tr>\n";
        }
        out += "</table>\n";
      }
    }
  }

  out += "<h2>Raw report</h2>\n<script type=\"application/json\" id=\"aio-report\">\n";
  out += report.dump();
  out += "\n</script>\n<pre id=\"raw\"></pre>\n<script>\n"
         "document.getElementById('raw').textContent=JSON.stringify(JSON.parse("
         "document.getElementById('aio-report').textContent),null,2);\n"
         "</script>\n</body></html>\n";
  return out;
}

namespace {

void diff_walk(const Json& base, const Json& cur, const DiffOptions& opts,
               const std::string& path, std::vector<std::string>& out) {
  if (base.is_object()) {
    if (!cur.is_object()) {
      out.push_back(path + ": object in base, " + cur.dump() + " in current");
      return;
    }
    for (const auto& [key, value] : base.entries()) {
      if (std::find(opts.ignore.begin(), opts.ignore.end(), key) != opts.ignore.end())
        continue;
      const std::string sub = path.empty() ? key : path + "." + key;
      const Json* c = cur.find(key);
      if (!c) {
        out.push_back(sub + ": missing in current");
        continue;
      }
      diff_walk(value, *c, opts, sub, out);
    }
    return;
  }
  if (base.is_array()) {
    if (!cur.is_array()) {
      out.push_back(path + ": array in base, " + cur.dump() + " in current");
      return;
    }
    if (base.size() != cur.size()) {
      out.push_back(path + ": size " + fmt(static_cast<double>(base.size())) + " -> " +
                    fmt(static_cast<double>(cur.size())));
      return;
    }
    for (std::size_t i = 0; i < base.size(); ++i)
      diff_walk(base.at(i), cur.at(i), opts, path + "[" + std::to_string(i) + "]", out);
    return;
  }
  if (base.is_number()) {
    if (!cur.is_number()) {
      out.push_back(path + ": number in base, " + cur.dump() + " in current");
      return;
    }
    const double b = base.number();
    const double c = cur.number();
    const double tol = std::max(opts.abs, opts.rel * std::abs(b));
    if (std::abs(c - b) > tol)
      out.push_back(path + ": " + fmt(b) + " -> " + fmt(c) + " (tolerance " + fmt(tol) + ")");
    return;
  }
  if (base.dump() != cur.dump())
    out.push_back(path + ": " + base.dump() + " -> " + cur.dump());
}

}  // namespace

std::vector<std::string> diff_reports(const Json& base, const Json& current,
                                      const DiffOptions& opts) {
  std::vector<std::string> violations;
  diff_walk(base, current, opts, {}, violations);
  return violations;
}

bool flush_report(const Journal& journal, int slot) {
  const EnvSink rep = env_sink("AIO_REPORT");
  const EnvSink trace = env_sink("AIO_TRACE", /*needs_path=*/true);
  if (!rep.on && !trace.on) return true;
  const Json report = analyze(journal);
  bool ok = true;
  if (rep.on) {
    const std::string summary = report_summary(report);
    if (!summary.empty()) std::fputs(summary.c_str(), stdout);
    if (!rep.path.empty()) {
      std::ofstream out(numbered_path(rep.path, slot));
      ok = static_cast<bool>(out << report.dump() << '\n');
    }
  }
  if (trace.on) {
    std::ofstream out(numbered_path(trace.path, slot));
    ok = static_cast<bool>(out << report_trace(journal, report).dump() << '\n') && ok;
  }
  return ok;
}

}  // namespace aio::obs
