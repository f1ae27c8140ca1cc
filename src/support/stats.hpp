// Descriptive statistics used by the metrics layer and the ensemble-level
// objective function (Eq. 9 of the paper uses the population standard
// deviation, i.e. the 1/N form).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace wfe {

/// Summary of a sample of real values.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;  ///< population standard deviation (1/N)
  double min = 0.0;
  double max = 0.0;
  double median = 0.0;
};

/// Arithmetic mean; returns 0 for an empty span.
double mean(std::span<const double> xs);

/// Population standard deviation (divides by N, matching Eq. 9); 0 if empty.
double stddev_population(std::span<const double> xs);

/// Sample standard deviation (divides by N-1); 0 if fewer than two values.
double stddev_sample(std::span<const double> xs);

/// Median (average of the two middle elements for even sizes); 0 if empty.
double median(std::span<const double> xs);

/// Linear-interpolated quantile, q in [0, 1]; 0 if empty.
double quantile(std::span<const double> xs, double q);

/// quantile() without the copy: the same value, found by partitioning
/// `xs` in place (their order is unspecified afterwards).
double quantile_in_place(std::span<double> xs, double q);

/// Full summary in one pass over a copy of the data.
Summary summarize(std::span<const double> xs);

/// Streaming mean/variance accumulator (Welford's algorithm), used by the
/// steady-state estimator so traces need not be retained in full.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);
  void reset();

  std::size_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  /// Population variance (1/N).
  double variance_population() const;
  double stddev_population() const;
  double min() const { return n_ > 0 ? min_ : 0.0; }
  double max() const { return n_ > 0 ? max_ : 0.0; }
  double sum() const { return n_ > 0 ? mean_ * static_cast<double>(n_) : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace wfe
