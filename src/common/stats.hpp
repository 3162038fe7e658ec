// Online statistics used throughout the side-channel pipeline: Welford
// mean/variance, streaming Pearson correlation, and simple descriptive
// summaries over vectors. All accumulators are single-pass and O(1) per
// update so CPA over 500k traces stays cheap.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace slm {

/// Welford single-variable accumulator.
class OnlineMeanVar {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return mean_; }

  /// Population variance (0 if fewer than 1 sample).
  double variance() const;

  /// Sample (unbiased) variance (0 if fewer than 2 samples).
  double sample_variance() const;

  double stddev() const;

  void merge(const OnlineMeanVar& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Streaming Pearson correlation between two variables.
class OnlineCorrelation {
 public:
  void add(double x, double y);

  std::size_t count() const { return n_; }

  /// Pearson r; 0 when either variable is constant or n < 2.
  double correlation() const;

  double mean_x() const { return mean_x_; }
  double mean_y() const { return mean_y_; }

 private:
  std::size_t n_ = 0;
  double mean_x_ = 0.0;
  double mean_y_ = 0.0;
  double m2_x_ = 0.0;
  double m2_y_ = 0.0;
  double cov_ = 0.0;
};

/// Batched CPA-style correlation: one shared measurement variable "y"
/// correlated against many hypothesis variables at once. This is the raw
/// five-sums formulation (sums of h, h^2, hy per hypothesis, y, y^2
/// shared), which is what CPA engines use because hypotheses are 0/1.
class MultiCorrelation {
 public:
  explicit MultiCorrelation(std::size_t n_hypotheses);

  /// One trace: hypothesis value h[k] for each k, measurement y.
  void add(const std::vector<double>& h, double y);

  /// Specialised update for binary hypotheses (the common case): h_set
  /// lists the hypothesis indices with h=1; all others have h=0.
  void add_binary(const std::vector<std::uint8_t>& h_bits, double y);

  std::size_t count() const { return n_; }

  /// Pearson r for hypothesis k.
  double correlation(std::size_t k) const;

  /// All correlations.
  std::vector<double> correlations() const;

 private:
  std::size_t n_ = 0;
  double sum_y_ = 0.0;
  double sum_yy_ = 0.0;
  std::vector<double> sum_h_;
  std::vector<double> sum_hh_;
  std::vector<double> sum_hy_;
};

/// Descriptive summaries over a finished vector.
double mean(const std::vector<double>& v);
double variance(const std::vector<double>& v);   // population
double stddev(const std::vector<double>& v);
double pearson(const std::vector<double>& x, const std::vector<double>& y);
double min_of(const std::vector<double>& v);
double max_of(const std::vector<double>& v);

/// Index of the maximum element (first on ties); requires non-empty.
std::size_t argmax(const std::vector<double>& v);

/// Index of the maximum |element| (first on ties); requires non-empty.
std::size_t argmax_abs(const std::vector<double>& v);

}  // namespace slm
