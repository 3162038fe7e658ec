#include "common/rng.hpp"

#include <cmath>
#include <cstring>

#include "common/error.hpp"

#if defined(__x86_64__)
#define SLM_RNG_X86 1
#include <immintrin.h>
#else
#define SLM_RNG_X86 0
#endif

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

namespace {

#if SLM_RNG_X86
// Four xoshiro256** streams side by side: word k of lane j's state is
// 64-bit element j of s[k]. next() is the scalar update, with the
// multiplies by 5 and 9 written as shift-adds (AVX2 has no 64-bit
// multiply); both are exact mod 2^64.
struct Xoshiro4 {
  __m256i s[4];
};

template <int K>
__attribute__((target("avx2"))) inline __m256i rotl4(__m256i x) {
  return _mm256_or_si256(_mm256_slli_epi64(x, K), _mm256_srli_epi64(x, 64 - K));
}

__attribute__((target("avx2"))) inline __m256i next4(Xoshiro4& x) {
  const __m256i s1x5 = _mm256_add_epi64(_mm256_slli_epi64(x.s[1], 2), x.s[1]);
  const __m256i r7 = rotl4<7>(s1x5);
  const __m256i result = _mm256_add_epi64(_mm256_slli_epi64(r7, 3), r7);
  const __m256i t = _mm256_slli_epi64(x.s[1], 17);
  x.s[2] = _mm256_xor_si256(x.s[2], x.s[0]);
  x.s[3] = _mm256_xor_si256(x.s[3], x.s[1]);
  x.s[1] = _mm256_xor_si256(x.s[1], x.s[2]);
  x.s[0] = _mm256_xor_si256(x.s[0], x.s[3]);
  x.s[2] = _mm256_xor_si256(x.s[2], t);
  x.s[3] = rotl4<45>(x.s[3]);
  return result;
}

__attribute__((target("avx2"))) Xoshiro4 load4(const Xoshiro256* rngs) {
  alignas(32) std::uint64_t w[4][4];
  for (int j = 0; j < 4; ++j) {
    const std::array<std::uint64_t, 4> st = rngs[j].state();
    for (int k = 0; k < 4; ++k) w[k][j] = st[static_cast<std::size_t>(k)];
  }
  Xoshiro4 x;
  for (int k = 0; k < 4; ++k) {
    x.s[k] = _mm256_load_si256(reinterpret_cast<const __m256i*>(w[k]));
  }
  return x;
}

__attribute__((target("avx2"))) void store4(const Xoshiro4& x,
                                            Xoshiro256* rngs) {
  alignas(32) std::uint64_t w[4][4];
  for (int k = 0; k < 4; ++k) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(w[k]), x.s[k]);
  }
  for (int j = 0; j < 4; ++j) {
    rngs[j].set_state({w[0][j], w[1][j], w[2][j], w[3][j]});
  }
}

// One normal per lane, the scalar operator() step for step: the top 12
// bits index the table, the next 20 bits interpolate. The 20-bit
// fraction becomes a double exactly by OR-ing it into the mantissa of
// 2^52 and subtracting 2^52; the multiply, subtract and add stay separate
// instructions (this target has no FMA), so each lane rounds as the
// scalar expression lo + (hi - lo) * frac does.
__attribute__((target("avx2"))) inline __m256d normal4(Xoshiro4& x,
                                                       const double* q) {
  const __m256i r = next4(x);
  const __m256i idx = _mm256_srli_epi64(r, 64 - 12);
  const __m256i bits = _mm256_and_si256(_mm256_srli_epi64(r, 64 - 12 - 20),
                                        _mm256_set1_epi64x(0xfffff));
  const __m256d two52 = _mm256_set1_pd(0x1.0p52);
  const __m256d m = _mm256_sub_pd(
      _mm256_castsi256_pd(
          _mm256_or_si256(bits, _mm256_castpd_si256(two52))),
      two52);
  const __m256d frac = _mm256_mul_pd(m, _mm256_set1_pd(1.0 / 1048576.0));
  const __m256d lo = _mm256_i64gather_pd(q, idx, 8);
  const __m256d hi = _mm256_i64gather_pd(q + 1, idx, 8);
  return _mm256_add_pd(lo, _mm256_mul_pd(_mm256_sub_pd(hi, lo), frac));
}

// Lanes [0, 4) of a fill_lanes call. Four draws per lane at a time are
// transposed so each lane's run of four lands in one unaligned store.
__attribute__((target("avx2"))) void fill4_avx2(Xoshiro256* rngs,
                                                const double* q, double* out,
                                                std::size_t n,
                                                std::size_t stride) {
  Xoshiro4 x = load4(rngs);
  double* o0 = out;
  double* o1 = out + stride;
  double* o2 = out + 2 * stride;
  double* o3 = out + 3 * stride;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d d0 = normal4(x, q);  // draw i of lanes 0..3
    const __m256d d1 = normal4(x, q);
    const __m256d d2 = normal4(x, q);
    const __m256d d3 = normal4(x, q);
    const __m256d t0 = _mm256_unpacklo_pd(d0, d1);  // l0: i, i+1; l2: i, i+1
    const __m256d t1 = _mm256_unpackhi_pd(d0, d1);  // l1, l3
    const __m256d t2 = _mm256_unpacklo_pd(d2, d3);  // l0, l2: i+2, i+3
    const __m256d t3 = _mm256_unpackhi_pd(d2, d3);  // l1, l3
    _mm256_storeu_pd(o0 + i, _mm256_permute2f128_pd(t0, t2, 0x20));
    _mm256_storeu_pd(o1 + i, _mm256_permute2f128_pd(t1, t3, 0x20));
    _mm256_storeu_pd(o2 + i, _mm256_permute2f128_pd(t0, t2, 0x31));
    _mm256_storeu_pd(o3 + i, _mm256_permute2f128_pd(t1, t3, 0x31));
  }
  for (; i < n; ++i) {
    alignas(32) double d[4];
    _mm256_store_pd(d, normal4(x, q));
    o0[i] = d[0];
    o1[i] = d[1];
    o2[i] = d[2];
    o3[i] = d[3];
  }
  store4(x, rngs);
}

// Lanes [0, 4) of a fill_bytes_lanes call: eight draws' low bytes are
// packed into one 64-bit word per lane (draw i + k in byte k, the
// little-endian byte order of the scalar writes) and stored at once.
__attribute__((target("avx2"))) void bytes4_avx2(Xoshiro256* rngs,
                                                 std::uint8_t* out,
                                                 std::size_t n,
                                                 std::size_t stride) {
  Xoshiro4 x = load4(rngs);
  const __m256i low = _mm256_set1_epi64x(0xff);
  alignas(32) std::uint64_t w[4];
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i acc = _mm256_and_si256(next4(x), low);
    for (int k = 1; k < 8; ++k) {
      const __m256i b = _mm256_and_si256(next4(x), low);
      acc = _mm256_or_si256(acc,
                            _mm256_sll_epi64(b, _mm_cvtsi32_si128(8 * k)));
    }
    _mm256_store_si256(reinterpret_cast<__m256i*>(w), acc);
    for (std::size_t j = 0; j < 4; ++j) {
      std::memcpy(out + j * stride + i, &w[j], 8);
    }
  }
  for (; i < n; ++i) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(w), next4(x));
    for (std::size_t j = 0; j < 4; ++j) {
      out[j * stride + i] = static_cast<std::uint8_t>(w[j]);
    }
  }
  store4(x, rngs);
}
#endif

// The AVX2 entries cover whole groups of four lanes; returns the first
// lane left for the scalar loop.
std::size_t avx2_lanes(DispatchLevel level, std::size_t lanes,
                       const char* who) {
  if (level != DispatchLevel::kAvx2) return 0;
#if SLM_RNG_X86
  SLM_REQUIRE(detect_dispatch() >= DispatchLevel::kAvx2,
              std::string(who) + ": AVX2 requested but this CPU has no AVX2");
  return lanes - lanes % 4;
#else
  (void)lanes;
  SLM_REQUIRE(false, std::string(who) + ": AVX2 exists only on x86-64");
  return 0;
#endif
}

}  // namespace

void FastNormal::fill_lanes(Xoshiro256* rngs, std::size_t lanes, double* out,
                            std::size_t n, std::size_t stride,
                            DispatchLevel level) const {
  static_assert(kTableBits == 12, "normal4 hard-codes the 12-bit index");
  SLM_REQUIRE(lanes <= 1 || n <= stride, "fill_lanes: lanes overlap");
  const std::size_t vec = avx2_lanes(level, lanes, "fill_lanes");
#if SLM_RNG_X86
  for (std::size_t l = 0; l < vec; l += 4) {
    fill4_avx2(rngs + l, quantile_.data(), out + l * stride, n, stride);
  }
#endif
  for (std::size_t l = vec; l < lanes; ++l) {
    fill(rngs[l], out + l * stride, n);
  }
}

void fill_bytes_lanes(Xoshiro256* rngs, std::size_t lanes, std::uint8_t* out,
                      std::size_t n, std::size_t stride, DispatchLevel level) {
  SLM_REQUIRE(lanes <= 1 || n <= stride, "fill_bytes_lanes: lanes overlap");
  const std::size_t vec = avx2_lanes(level, lanes, "fill_bytes_lanes");
#if SLM_RNG_X86
  for (std::size_t l = 0; l < vec; l += 4) {
    bytes4_avx2(rngs + l, out + l * stride, n, stride);
  }
#endif
  for (std::size_t l = vec; l < lanes; ++l) {
    std::uint8_t* o = out + l * stride;
    for (std::size_t i = 0; i < n; ++i) {
      o[i] = static_cast<std::uint8_t>(rngs[l].next());
    }
  }
}

const FastNormal& FastNormal::instance() {
  static const FastNormal table;
  return table;
}

}  // namespace slm
