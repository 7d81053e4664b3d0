#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

namespace aio::obs {

namespace {
// Values at or below this are folded into the smallest bucket: the sketch
// indexes log(v), and completion times / byte counts in this stack are
// meaningfully positive.
constexpr double kHistFloor = 1e-12;
}  // namespace

Histogram::Histogram(double rel_err) {
  const double e = std::clamp(rel_err, 1e-4, 0.4);
  gamma_ = (1.0 + e) / (1.0 - e);
  inv_log_gamma_ = 1.0 / std::log(gamma_);
}

void Histogram::add(double v, std::uint64_t n) {
  // A NaN or infinite sample has no bucket: log() of it would cast to an
  // out-of-range index.  Such samples come only from corrupt inputs (a
  // poisoned journal timestamp), so they are skipped, not counted.
  if (n == 0 || !std::isfinite(v)) return;
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  count_ += n;
  sum_ += v * static_cast<double>(n);
  const long k =
      static_cast<long>(std::floor(std::log(std::max(v, kHistFloor)) * inv_log_gamma_));
  if (buckets_.empty()) {
    offset_ = k;
    buckets_.push_back(n);
    return;
  }
  if (k < offset_) {
    buckets_.insert(buckets_.begin(), static_cast<std::size_t>(offset_ - k), 0);
    offset_ = k;
  } else if (k >= offset_ + static_cast<long>(buckets_.size())) {
    buckets_.resize(static_cast<std::size_t>(k - offset_) + 1, 0);
  }
  buckets_[static_cast<std::size_t>(k - offset_)] += n;
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  if (q <= 0.0) return min_;
  if (q >= 1.0) return max_;
  const double rank = q * static_cast<double>(count_ - 1);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    cum += buckets_[i];
    if (static_cast<double>(cum) > rank) {
      // Geometric bucket midpoint: worst-case relative error sqrt(gamma)-1.
      const double est =
          std::exp((static_cast<double>(offset_ + static_cast<long>(i)) + 0.5) *
                   std::log(gamma_));
      return std::clamp(est, min_, max_);
    }
  }
  return max_;
}

void Series::add(double t, double v) {
  if (offered_++ % stride_ != 0) return;
  samples_.emplace_back(t, v);
  if (samples_.size() >= max_points_ && max_points_ >= 2) {
    // Keep every other sample and accept half as often from here on; the
    // retained points stay uniformly spaced in offer order.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < samples_.size(); i += 2) samples_[kept++] = samples_[i];
    samples_.resize(kept);
    stride_ *= 2;
  }
}

Series& Registry::series(const std::string& name, std::size_t max_points) {
  auto it = series_.find(name);
  if (it == series_.end()) it = series_.emplace(name, Series(max_points)).first;
  return it->second;
}

Json Registry::to_json() const {
  Json doc = Json::object();
  Json counters = Json::object();
  for (const auto& [name, c] : counters_) counters.set(name, static_cast<double>(c.value()));
  doc.set("counters", std::move(counters));
  Json gauges = Json::object();
  for (const auto& [name, g] : gauges_) gauges.set(name, g.value());
  doc.set("gauges", std::move(gauges));
  Json series = Json::object();
  for (const auto& [name, s] : series_) {
    Json points = Json::array();
    for (const auto& [t, v] : s.samples()) {
      Json point = Json::array();
      point.push(t);
      point.push(v);
      points.push(std::move(point));
    }
    series.set(name, std::move(points));
  }
  doc.set("series", std::move(series));
  return doc;
}

std::string Registry::render_text() const {
  std::size_t width = 0;
  for (const auto& [name, c] : counters_) width = std::max(width, name.size());
  for (const auto& [name, g] : gauges_) width = std::max(width, name.size());
  for (const auto& [name, s] : series_) width = std::max(width, name.size());
  std::string out;
  auto line = [&out, width](const std::string& name, const std::string& value) {
    out += "  ";
    out += name;
    out.append(width + 2 - name.size(), ' ');
    out += value;
    out += '\n';
  };
  std::string num;
  for (const auto& [name, c] : counters_) {
    num.clear();
    Json::append_number(num, static_cast<double>(c.value()));
    line(name, num);
  }
  for (const auto& [name, g] : gauges_) {
    num.clear();
    Json::append_number(num, g.value());
    line(name, num);
  }
  for (const auto& [name, s] : series_) {
    num.clear();
    Json::append_number(num, s.last());
    num += " (last of ";
    Json::append_number(num, static_cast<double>(s.samples().size()));
    num += " samples)";
    line(name, num);
  }
  return out;
}

}  // namespace aio::obs
