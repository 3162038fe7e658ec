#include "sca/tvla.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "sca/fold_kernels.hpp"

namespace slm::sca {

WelchTTest::WelchTTest(std::size_t sample_count)
    : samples_(sample_count),
      fixed_sum_(sample_count, 0),
      fixed_sumsq_(sample_count, 0),
      random_sum_(sample_count, 0),
      random_sumsq_(sample_count, 0) {
  SLM_REQUIRE(sample_count > 0, "WelchTTest: zero samples");
}

void WelchTTest::add(bool fixed_population,
                     const std::vector<double>& samples) {
  SLM_REQUIRE(samples.size() == samples_,
              "WelchTTest::add: sample count mismatch");
  add(fixed_population, samples.data());
}

void WelchTTest::add(bool fixed_population, const double* samples) {
  require_fold_budget(fixed_n_ + random_n_ + 1, "WelchTTest");
  const FoldKernels& k = active_kernels();
  thread_local std::vector<std::int64_t> yi;
  thread_local std::vector<std::int64_t> yyi;
  if (yi.size() < samples_) {
    yi.resize(samples_);
    yyi.resize(samples_);
  }
  k.stage_i64(samples, samples_, yi.data(), yyi.data());
  if (fixed_population) {
    ++fixed_n_;
    k.add2_i64(fixed_sum_.data(), fixed_sumsq_.data(), yi.data(), yyi.data(),
               samples_);
  } else {
    ++random_n_;
    k.add2_i64(random_sum_.data(), random_sumsq_.data(), yi.data(),
               yyi.data(), samples_);
  }
}

void WelchTTest::merge(const WelchTTest& other) {
  SLM_REQUIRE(other.samples_ == samples_,
              "WelchTTest::merge: sample count mismatch");
  require_fold_budget(fixed_n_ + random_n_ + other.fixed_n_ + other.random_n_,
                      "WelchTTest");
  fixed_n_ += other.fixed_n_;
  random_n_ += other.random_n_;
  for (std::size_t s = 0; s < samples_; ++s) {
    fixed_sum_[s] += other.fixed_sum_[s];
    fixed_sumsq_[s] += other.fixed_sumsq_[s];
    random_sum_[s] += other.random_sum_[s];
    random_sumsq_[s] += other.random_sumsq_[s];
  }
}

double WelchTTest::t_statistic(std::size_t sample) const {
  SLM_REQUIRE(sample < samples_, "WelchTTest: sample out of range");
  if (fixed_n_ < 2 || random_n_ < 2) return 0.0;
  // Exact integer sums -> double read-out. sample_variance from the sum
  // and sum of squares: (Sq - S^2/n) / (n - 1), with the S^2/n product
  // taken in double (S^2 can exceed int64, the quotient is fine).
  const double na = static_cast<double>(fixed_n_);
  const double nb = static_cast<double>(random_n_);
  const double sa = static_cast<double>(fixed_sum_[sample]);
  const double sb = static_cast<double>(random_sum_[sample]);
  const double qa = static_cast<double>(fixed_sumsq_[sample]);
  const double qb = static_cast<double>(random_sumsq_[sample]);
  const double var_a = std::max(0.0, (qa - sa * (sa / na)) / (na - 1.0));
  const double var_b = std::max(0.0, (qb - sb * (sb / nb)) / (nb - 1.0));
  const double var_term = var_a / na + var_b / nb;
  if (var_term <= 0.0) return 0.0;
  return (sa / na - sb / nb) / std::sqrt(var_term);
}

double WelchTTest::max_abs_t() const {
  double best = 0.0;
  for (std::size_t s = 0; s < samples_; ++s) {
    best = std::max(best, std::abs(t_statistic(s)));
  }
  return best;
}

}  // namespace slm::sca
