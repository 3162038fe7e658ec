#include "common/rng.hpp"

#include <cmath>

namespace slm {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Acklam's rational approximation of the standard normal quantile.
// Used only once, to fill the lookup table.
double inverse_normal_cdf(double p) {
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  static constexpr double plow = 0.02425;
  static constexpr double phigh = 1 - plow;

  if (p < plow) {
    const double q = std::sqrt(-2 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
  }
  if (p > phigh) {
    const double q = std::sqrt(-2 * std::log(1 - p));
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
             c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
  }
  const double q = p - 0.5;
  const double r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
         q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1);
}

}  // namespace

Xoshiro256::Xoshiro256(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& word : s_) word = splitmix64(x);
}

double Xoshiro256::uniform() {
  // 53 random mantissa bits -> [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Xoshiro256::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform();
}

std::uint64_t Xoshiro256::uniform_int(std::uint64_t n) {
  if (n == 0) return 0;
  // Rejection-free multiply-shift (Lemire); bias < 2^-64 * n, negligible
  // for simulation purposes.
  return static_cast<std::uint64_t>(
      (static_cast<__uint128_t>(next()) * n) >> 64);
}

Xoshiro256 Xoshiro256::fork() {
  return Xoshiro256(next() ^ 0xd1b54a32d192ed03ull);
}

Xoshiro256 Xoshiro256::stream(std::uint64_t seed, std::uint64_t stream_index) {
  // Mix the index through splitmix before folding it into the seed so
  // that consecutive indices do not produce correlated xoshiro states
  // (the constructor splitmixes again, giving two rounds total).
  std::uint64_t x = stream_index ^ 0xd1b54a32d192ed03ull;
  return Xoshiro256(seed ^ splitmix64(x));
}

Xoshiro256 Xoshiro256::trace_stream(std::uint64_t seed,
                                    std::uint64_t stream_index,
                                    std::uint64_t trace_index) {
  // Same two-round mixing as stream(), with the trace counter folded in
  // through an independently-keyed splitmix so (d, t) and (t, d) land in
  // unrelated state-space regions.
  std::uint64_t x = stream_index ^ 0xd1b54a32d192ed03ull;
  std::uint64_t y = trace_index ^ 0x8cb92ba72f3d8dd7ull;
  return Xoshiro256(seed ^ splitmix64(x) ^ splitmix64(y));
}

FastNormal::FastNormal() {
  // quantile_[i] = Phi^-1((i + 0.5) / kTableSize) at bucket centres; the
  // +1 guard entry mirrors the last bucket for interpolation at the edge.
  for (int i = 0; i < kTableSize; ++i) {
    const double p = (static_cast<double>(i) + 0.5) / kTableSize;
    quantile_[static_cast<std::size_t>(i)] = inverse_normal_cdf(p);
  }
  quantile_[kTableSize] = quantile_[kTableSize - 1];
}

double FastNormal::operator()(Xoshiro256& rng) const {
  const std::uint64_t r = rng.next();
  const std::uint32_t idx =
      static_cast<std::uint32_t>(r >> (64 - kTableBits));
  // Interpolate inside the bucket with the next 20 bits.
  const double frac =
      static_cast<double>((r >> (64 - kTableBits - 20)) & 0xfffffu) *
      (1.0 / 1048576.0);
  const double lo = quantile_[idx];
  const double hi = quantile_[idx + 1];
  return lo + (hi - lo) * frac;
}

void FastNormal::fill(Xoshiro256& rng, double* out, std::size_t n) const {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t r = rng.next();
    const std::uint32_t idx =
        static_cast<std::uint32_t>(r >> (64 - kTableBits));
    const double frac =
        static_cast<double>((r >> (64 - kTableBits - 20)) & 0xfffffu) *
        (1.0 / 1048576.0);
    const double lo = quantile_[idx];
    const double hi = quantile_[idx + 1];
    out[i] = lo + (hi - lo) * frac;
  }
}

const FastNormal& FastNormal::instance() {
  static const FastNormal table;
  return table;
}

}  // namespace slm
