// Machine-readable bench telemetry (schema "aio-bench-v1").
//
// Every bench binary builds one `bench::Report`, tags it with the run
// configuration, and appends one Row per printed table row.  When
// `AIO_BENCH_JSON=<path>` is set the report writes a JSON results file on
// destruction (or via write()), giving CI and future PRs a stable perf
// trajectory to diff against.  With the variable unset the report costs a
// few vector appends and writes nothing.
//
//   {
//     "schema": "aio-bench-v1",
//     "bench":  "fig5_pixie3d",
//     "seed":   100,
//     "config": {"samples": 2, "max_procs": 1024},
//     "peak_rss_bytes": 123456789,          // getrusage high-water mark
//     "peak_rss_bytes_per_proc": 120563.2,  // present when config has "max_procs"
//     "rows": [
//       {"tags":   {"model": "default", "condition": "clean"},
//        "values": {"procs": 512},
//        "stats":  {"bw": {"n": 2, "mean": ..., "stddev": ..., "cv": ...,
//                          "min": ..., "max": ...}}},
//       ...
//     ]
//   }
#pragma once

#include <cstdint>
#include <cstdio>
#include <deque>
#include <fstream>
#include <string>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "obs/drops.hpp"
#include "obs/env.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "stats/summary.hpp"

namespace aio::bench {

/// Peak resident set size of this process so far, in bytes (0 where the
/// platform offers no getrusage).  A high-water mark, not a current reading:
/// it captures the worst moment of the whole run, which is exactly the
/// number a memory ceiling cares about.  Linux reports ru_maxrss in KiB,
/// macOS in bytes.
inline std::uint64_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage u{};
  if (getrusage(RUSAGE_SELF, &u) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(u.ru_maxrss);
#else
  return static_cast<std::uint64_t>(u.ru_maxrss) * 1024u;
#endif
#else
  return 0;
#endif
}

class Report {
 public:
  class Row {
   public:
    Row& tag(std::string key, std::string value) {
      tags_.set(std::move(key), obs::Json(std::move(value)));
      return *this;
    }
    Row& value(std::string key, double v) {
      values_.set(std::move(key), obs::Json(v));
      return *this;
    }
    Row& stat(std::string key, const stats::Summary& s) {
      stats_.set(std::move(key), stat_json(s));
      return *this;
    }
    /// Quantile-augmented stat: exact moments from the summary plus
    /// p50/p90/p99 from a log-bucket sketch fed the same samples.
    Row& stat(std::string key, const stats::Summary& s, const obs::Histogram& h) {
      obs::Json j = stat_json(s);
      j.set("p50", obs::Json(h.quantile(0.50)));
      j.set("p90", obs::Json(h.quantile(0.90)));
      j.set("p99", obs::Json(h.quantile(0.99)));
      stats_.set(std::move(key), std::move(j));
      return *this;
    }

   private:
    friend class Report;
    static obs::Json stat_json(const stats::Summary& s) {
      obs::Json j = obs::Json::object();
      j.set("n", obs::Json(static_cast<double>(s.count())));
      j.set("mean", obs::Json(s.mean()));
      j.set("stddev", obs::Json(s.stddev()));
      j.set("cv", obs::Json(s.cv()));
      j.set("min", obs::Json(s.min()));
      j.set("max", obs::Json(s.max()));
      return j;
    }
    obs::Json tags_ = obs::Json::object();
    obs::Json values_ = obs::Json::object();
    obs::Json stats_ = obs::Json::object();
  };

  Report(std::string bench, std::uint64_t seed) : bench_(std::move(bench)), seed_(seed) {}
  Report(const Report&) = delete;
  Report& operator=(const Report&) = delete;
  ~Report() { write(); }

  Report& config(std::string key, double v) {
    config_.set(std::move(key), obs::Json(v));
    return *this;
  }
  Report& config(std::string key, std::string v) {
    config_.set(std::move(key), obs::Json(std::move(v)));
    return *this;
  }

  /// Appends a row; the reference stays valid (rows live in a deque).
  Row& row() { return rows_.emplace_back(); }

  [[nodiscard]] obs::Json to_json() const {
    obs::Json doc = obs::Json::object();
    doc.set("schema", "aio-bench-v1");
    doc.set("bench", bench_);
    doc.set("seed", obs::Json(static_cast<double>(seed_)));
    doc.set("config", config_);
    // Memory telemetry: reports are serialized at the end of a run, so the
    // getrusage high-water mark is the run's peak.  The per-proc figure is
    // only meaningful when the config declares the scale it ran at.
    const auto rss = static_cast<double>(peak_rss_bytes());
    doc.set("peak_rss_bytes", obs::Json(rss));
    if (const obs::Json* procs = config_.find("max_procs"); procs && procs->number() > 0.0)
      doc.set("peak_rss_bytes_per_proc", obs::Json(rss / procs->number()));
    if (const obs::DropTotals& drops = obs::drop_totals();
        drops.published.load(std::memory_order_relaxed)) {
      obs::Json d = obs::Json::object();
      d.set("journal",
            obs::Json(static_cast<double>(drops.journal.load(std::memory_order_relaxed))));
      d.set("live_rows",
            obs::Json(static_cast<double>(drops.live_rows.load(std::memory_order_relaxed))));
      doc.set("obs_drops", std::move(d));
    }
    obs::Json rows = obs::Json::array();
    for (const Row& r : rows_) {
      obs::Json row = obs::Json::object();
      row.set("tags", r.tags_);
      row.set("values", r.values_);
      row.set("stats", r.stats_);
      rows.push(std::move(row));
    }
    doc.set("rows", std::move(rows));
    return doc;
  }

  /// Writes to AIO_BENCH_JSON if set; idempotent (first call wins).
  void write() {
    if (written_) return;
    const obs::EnvSink json = obs::env_sink("AIO_BENCH_JSON", /*needs_path=*/true);
    if (!json.on) return;
    written_ = true;
    std::ofstream out(json.path);
    if (!out) {
      std::fprintf(stderr, "bench: cannot write AIO_BENCH_JSON=%s\n", json.path.c_str());
      return;
    }
    out << to_json().dump() << '\n';
  }

 private:
  std::string bench_;
  std::uint64_t seed_;
  obs::Json config_ = obs::Json::object();
  std::deque<Row> rows_;
  bool written_ = false;
};

}  // namespace aio::bench
