// Metrics registry: counters, gauges, and bounded time-series.
//
// Counters and gauges are plain accumulators the instrumented layers bump
// through an `obs::Registry*` (null by default).  Series hold (time, value)
// samples fed by the `obs::Sampler` daemon; they self-decimate — once a
// series reaches its point budget it drops every other retained sample and
// doubles its acceptance stride — so arbitrarily long runs keep a bounded,
// uniformly spaced sketch of the full timeline.
//
// The registry exports as JSON (all three kinds), as CSV (the series, long
// format: `series,t,value`), and as aligned text for end-of-run summaries.
// Name lookups insert on first use; references returned by `counter()` /
// `gauge()` / `series()` stay valid for the registry's lifetime.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace aio::obs {

class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double v) { value_ = v; }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_ = 0.0;
};

class Series {
 public:
  explicit Series(std::size_t max_points = 4096) : max_points_(max_points) {}

  /// Offers a sample; recorded when the offer index hits the current stride.
  void add(double t, double v);

  [[nodiscard]] const std::vector<std::pair<double, double>>& samples() const {
    return samples_;
  }
  /// Total samples ever offered (recorded or skipped).
  [[nodiscard]] std::size_t offered() const { return offered_; }
  /// Current acceptance stride (1 until the first decimation).
  [[nodiscard]] std::size_t stride() const { return stride_; }
  [[nodiscard]] double last() const {
    return samples_.empty() ? 0.0 : samples_.back().second;
  }

 private:
  std::vector<std::pair<double, double>> samples_;
  std::size_t max_points_;
  std::size_t stride_ = 1;
  std::size_t offered_ = 0;
};

/// Fixed log-bucket quantile sketch (DDSketch-style).  Values land in bucket
/// floor(log(v)/log(gamma)); with the default gamma every quantile estimate
/// is within ~1% relative error of the true value regardless of how many
/// samples were added.  Bucket storage is a dense array over the observed
/// index range, so adding is O(1) amortized and memory is O(dynamic range).
/// Exact count/sum/min/max/mean ride along (Welford-free: sum suffices).
class Histogram {
 public:
  /// `rel_err` is the target relative quantile error; gamma = (1+e)/(1-e).
  explicit Histogram(double rel_err = 0.01);

  /// Adds `n` samples of `v`; a non-finite `v` is skipped.
  void add(double v, std::uint64_t n = 1);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }
  [[nodiscard]] double min() const { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ ? max_ : 0.0; }
  /// Value at quantile q in [0, 1]; 0 when empty.  q=0/q=1 return the exact
  /// min/max; interior quantiles come from the sketch (bucket midpoint).
  [[nodiscard]] double quantile(double q) const;

  /// {"count":..,"mean":..,"min":..,"max":..,"p25":..,"p50":..,"p75":..,
  ///  "p90":..,"p99":..}
  [[nodiscard]] Json to_json() const;

 private:
  double gamma_;
  double inv_log_gamma_;
  // buckets_[i] counts values in bucket (offset_ + i); zeros_/negatives are
  // clamped into the smallest tracked bucket via kFloor.
  std::vector<std::uint64_t> buckets_;
  long offset_ = 0;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

class Registry {
 public:
  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  Series& series(const std::string& name, std::size_t max_points = 4096);
  Histogram& histogram(const std::string& name, double rel_err = 0.01);

  [[nodiscard]] const std::map<std::string, Counter>& counters() const { return counters_; }
  [[nodiscard]] const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  [[nodiscard]] const std::map<std::string, Series>& all_series() const { return series_; }
  [[nodiscard]] const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  /// {"counters": {...}, "gauges": {...}, "series": {name: [[t,v],...]},
  ///  "histograms": {name: {count, mean, quantiles...}}}
  [[nodiscard]] Json to_json() const;
  /// Long-format CSV of every series: header `series,t,value`.
  void write_series_csv(std::ostream& out) const;
  /// One row per histogram: `histogram,count,mean,min,p25,p50,p75,p90,p99,max`.
  void write_histograms_csv(std::ostream& out) const;
  /// Aligned `name value` lines (counters, gauges, series last-values,
  /// histogram quantile summaries).
  [[nodiscard]] std::string render_text() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Series> series_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace aio::obs
