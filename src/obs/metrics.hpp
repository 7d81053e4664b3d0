// Metrics registry: counters, gauges, and bounded time-series, plus the
// `Histogram` quantile sketch the analyzer and the live plane use.
//
// The simulated stack emits journal records only (sim::Engine::record); a
// registry holds an application's own counters and gauges
// (api::Simulation::metrics()) and the series fed by the `obs::Sampler`
// daemon.  Series self-decimate — once a series reaches its point budget it
// drops every other retained sample and doubles its acceptance stride — so
// arbitrarily long runs keep a bounded, uniformly spaced sketch of the full
// timeline.
//
// The registry exports as JSON and as aligned text for end-of-run
// summaries.  Name lookups insert on first use; references returned by
// `counter()` / `gauge()` / `series()` stay valid for the registry's
// lifetime.
#pragma once

#include <cstddef>
#include <cstdint>
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

  /// {"counters": {...}, "gauges": {...}, "series": {name: [[t,v],...]}}
  [[nodiscard]] Json to_json() const;
  /// Aligned `name value` lines (counters, gauges, series last-values).
  [[nodiscard]] std::string render_text() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Series> series_;
};

}  // namespace aio::obs
