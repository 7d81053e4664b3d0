#include "obs/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/critical_path.hpp"
#include "obs/env.hpp"
#include "obs/fold.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_export.hpp"
#include "stats/summary.hpp"

namespace aio::obs {

namespace {

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
  stats::Summary run_time;
  Histogram run_hist;
  stats::Summary writer_time;
  Histogram writer_hist;
  WaitSplit wait;
  double steals_total = 0.0, grants_total = 0.0;
  std::uint64_t mds_ops_total = 0;
  double mds_service_total = 0.0;

  struct OstAgg {
    stats::Summary time;   // write durations landing on this OST
    Histogram hist;
    double bytes = 0.0;
    WaitSplit wait;  // waits of the writers homed here
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
  Fold fold;
  // Each run is read at its close, writers in rank order.
  fold.replay(journal.records(), [&] {
    const Fold::Run& run = fold.run();
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
    // Critical-path anchor: the last writer to finish its data write, the
    // one the close phase waited on.
    const std::vector<Fold::Writer>& writers = fold.writers();
    std::size_t anchor = writers.size();
    for (std::size_t slot = 0; slot < writers.size(); ++slot) {
      const Fold::Writer& w = writers[slot];
      const Fold::WriterDetail& d = fold.detail(slot);
      if (w.start_t < 0.0 || d.end_t < 0.0) continue;
      const double dur = d.end_t - w.start_t;
      writer_time.add(dur);
      writer_hist.add(dur);
      file_service[d.target].add(dur);
      OstAgg& ta = osts[fold.ost_of(d.target)];
      ta.time.add(dur);
      ta.hist.add(dur);
      ta.bytes += d.bytes;
      if (const std::optional<WaitSplit> split = fold.wait(w)) {
        wait += *split;
        osts[fold.ost_of(d.origin)].wait += *split;
      }
      if (w.signal_t >= 0.0 &&
          (anchor == writers.size() || d.end_t > fold.detail(anchor).end_t))
        anchor = slot;
    }

    // Steal provenance: price a completed chain against the no-steal
    // counterfactual — the stolen writer draining behind `queue_depth`
    // writers at the source file's observed mean service time.
    const auto saved_by = [&file_service](const Fold::Grant& g) {
      const auto it = file_service.find(g.source);
      const double svc = it != file_service.end() ? it->second.mean() : 0.0;
      return (g.grant_t + g.queue_depth * svc) - g.complete_t;
    };
    for (const Fold::Grant& g : fold.grants()) {
      if (g.grant_t < 0.0 || g.complete_t < 0.0) continue;
      const double saved = saved_by(g);
      ++steals_completed;
      saved_total += saved;
      SourceAgg& sa = per_source[g.source];
      sa.ost = fold.ost_of(g.source);
      ++sa.steals;
      sa.saved_s += saved;
    }

    // Critical path: walk the causal chain through the anchor writer.
    PathInputs pin;
    pin.t_open = run.t_open;
    pin.t_data_done = run.t_data_done;
    pin.t_complete = run.t_complete;
    pin.t_begin = run.t_begin;
    pin.open_mds_service_s = run.mds_open_s;
    pin.close_mds_s = run.mds_close_s;
    if (anchor < writers.size()) {
      const Fold::Writer& w = writers[anchor];
      const Fold::WriterDetail& d = fold.detail(anchor);
      pin.have_anchor = true;
      pin.anchor_writer = fold.writer_id(anchor);
      pin.anchor_target = d.target;
      pin.anchor_adaptive = d.adaptive;
      pin.signal_t = w.signal_t;
      pin.start_t = w.start_t;
      pin.end_t = d.end_t;
      pin.anchor_ost = fold.ost_of(d.target);
      pin.queue_ext_s = w.queue_ext_s;
      pin.service_ext_s = fold.load_integral(pin.anchor_ost, w.start_t, d.end_t);
      if (const Fold::Grant* g = d.adaptive ? fold.grant(d.grant_seq) : nullptr;
          g && g->grant_t >= 0.0) {
        pin.grant_t = g->grant_t;
        if (g->complete_t >= 0.0) pin.steal_saved_s = saved_by(*g);
      }
    }
    PathTotals pt;
    Json cp = critical_path_json(pin, &pt);
    if (!cp.is_null()) {
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
  });

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
  summary.set("writers", static_cast<double>(writer_time.count()));
  summary.set("steals", steals_total);
  summary.set("grants", grants_total);
  summary.set("mds_ops", static_cast<double>(mds_ops_total));
  summary.set("mds_service_s", mds_service_total);
  // Every metadata dispatch attributes to its server, in a run or not.
  if (fold.n_mds() > 0) summary.set("mds_servers", fold.mds_json());
  summary.set("cache_full_crossings", static_cast<double>(fold.cache_full_crossings()));
  summary.set("run_time", stat_block(run_time, run_hist));
  summary.set("writer_time", stat_block(writer_time, writer_hist));

  summary.set("attribution", attribution_json(wait));

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
    oj.set("writes", static_cast<double>(agg.time.count()));
    oj.set("bytes", agg.bytes);
    oj.set("mean_s", agg.time.mean());
    oj.set("cov", agg.time.cv());
    oj.set("p99_s", agg.hist.quantile(0.99));
    oj.set("max_s", agg.time.max());
    oj.set("wait_internal_s", agg.wait.internal_s);
    oj.set("wait_external_s", agg.wait.external_s);
    osts_doc.set("ost" + std::to_string(ost), std::move(oj));
    if (agg.time.count() > 0) by_mean.emplace_back(ost, agg.time.mean());
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

namespace {
thread_local std::string* tls_summary_sink = nullptr;

/// Writes `doc` and a newline to `path`.  Checks after the close, which
/// writes whatever is still buffered (all of a small document).
bool write_line(const std::string& path, const std::string& doc) {
  std::ofstream out(path);
  out << doc << '\n';
  out.close();
  return static_cast<bool>(out);
}
}  // namespace

SummaryCapture::SummaryCapture(std::string& sink)
    : prev_(std::exchange(tls_summary_sink, &sink)) {}

SummaryCapture::~SummaryCapture() { tls_summary_sink = prev_; }

bool flush_report(const Journal& journal, int slot) {
  const EnvSink rep = env_sink("AIO_REPORT");
  const EnvSink trace = env_sink("AIO_TRACE", /*needs_path=*/true);
  if (!rep.on && !trace.on) return true;
  const Json report = analyze(journal);
  bool ok = true;
  if (rep.on) {
    const std::string summary = report_summary(report);
    if (tls_summary_sink) {
      tls_summary_sink->append(summary);
    } else if (!summary.empty()) {
      std::fputs(summary.c_str(), stdout);
    }
    if (!rep.path.empty()) ok = write_line(numbered_path(rep.path, slot), report.dump());
  }
  if (trace.on)
    ok = write_line(numbered_path(trace.path, slot), report_trace(journal, report).dump()) && ok;
  return ok;
}

}  // namespace aio::obs
