// TVLA-style leakage assessment: Welch's t-test between a fixed-input
// trace population and a random-input population (the standard
// non-specific leakage test). |t| > 4.5 is the conventional evidence
// threshold that a sensor observes data-dependent leakage — a
// lighter-weight assessment than a full key-recovery CPA.
//
// Like the CPA engines (sca/cpa.hpp), the accumulators are exact int64
// sums of the integer-valued readings — per population, per sample:
// trace count, sum and sum of squares. The t statistic is evaluated in
// double from the exact sums at read-out time, so population order and
// grouping never perturb the accumulated state (the fused one-pass
// replay relies on this).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace slm::sca {

class WelchTTest {
 public:
  explicit WelchTTest(std::size_t sample_count);

  /// Add one trace to the fixed (true) or random (false) population.
  /// Readings must be integer-valued (|y| <= 2^20, see
  /// sca/fold_kernels.hpp); throws otherwise, and refuses traces beyond
  /// the integer-accumulator overflow budget.
  void add(bool fixed_population, const std::vector<double>& samples);

  /// Same, from a raw row of sample_count() readings (the zero-copy
  /// replay path feeds mmap'd rows here without a per-trace copy).
  void add(bool fixed_population, const double* samples);

  /// Add another test's populations (same sample count). The sums are
  /// exact integers, so shards merge to the same state in any order.
  void merge(const WelchTTest& other);

  std::size_t sample_count() const { return samples_; }
  std::size_t fixed_traces() const { return fixed_n_; }
  std::size_t random_traces() const { return random_n_; }

  /// Welch's t statistic at one sample point (0 until both populations
  /// have >= 2 traces). Computed in double from the exact integer sums.
  double t_statistic(std::size_t sample) const;

  /// max_s |t| — the headline leakage number.
  double max_abs_t() const;

  /// Conventional evidence-of-leakage threshold.
  static constexpr double kThreshold = 4.5;

  bool leakage_detected() const { return max_abs_t() > kThreshold; }

 private:
  std::size_t samples_;
  std::size_t fixed_n_ = 0;
  std::size_t random_n_ = 0;
  std::vector<std::int64_t> fixed_sum_;    // [s]
  std::vector<std::int64_t> fixed_sumsq_;  // [s]
  std::vector<std::int64_t> random_sum_;   // [s]
  std::vector<std::int64_t> random_sumsq_; // [s]
};

}  // namespace slm::sca
