#include "support/stats.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"

namespace wfe {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double stddev_population(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(xs.size()));
}

double stddev_sample(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(xs.size() - 1));
}

double median(std::span<const double> xs) { return quantile(xs, 0.5); }

double quantile(std::span<const double> xs, double q) {
  std::vector<double> copy(xs.begin(), xs.end());
  return quantile_in_place(copy, q);
}

double quantile_in_place(std::span<double> xs, double q) {
  WFE_REQUIRE(q >= 0.0 && q <= 1.0, "quantile q must be in [0, 1]");
  if (xs.empty()) return 0.0;
  if (xs.size() == 1) return xs.front();
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  // The lo-th and hi-th order statistics, as a full sort would place them.
  const auto at_lo = xs.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(xs.begin(), at_lo, xs.end());
  const double below = *at_lo;
  const double above = hi == lo ? below : *std::min_element(at_lo + 1, xs.end());
  return below * (1.0 - frac) + above * frac;
}

Summary summarize(std::span<const double> xs) {
  Summary s;
  s.count = xs.size();
  if (xs.empty()) return s;
  s.mean = mean(xs);
  s.stddev = stddev_population(xs);
  s.min = *std::min_element(xs.begin(), xs.end());
  s.max = *std::max_element(xs.begin(), xs.end());
  s.median = median(xs);
  return s;
}

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

void RunningStats::reset() { *this = RunningStats{}; }

double RunningStats::variance_population() const {
  return n_ > 0 ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStats::stddev_population() const {
  return std::sqrt(variance_population());
}

}  // namespace wfe
