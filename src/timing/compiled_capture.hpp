// CompiledCapture — the batched fast path of OverclockedCapture.
//
// Construction flattens every endpoint's toggle list into one contiguous
// array and, for each toggle, precomputes the supply-voltage threshold at
// which the (noise-free) capture instant crosses it: the capture time
//   t(V) = (T - setup) / factor(V) - skew_i
// is monotone in V, so toggle time tau is crossed exactly when
//   V >= voltage_for_factor((T - setup) / (tau + skew_i))
// (always crossed when tau + skew_i <= 0; unreachable when the required
// factor sits below the clamp floor of VoltageDelayModel::factor). A
// noise-free endpoint query is therefore one threshold compare per
// toggle instead of a waveform walk.
//
// Noisy sampling keeps the time-domain comparison with the exact FP
// expression of the reference — t = (t_eff - skew_i) + jitter against the
// raw toggle times — because the voltage transform rounds differently and
// would break the bit-exactness contract. What the fast path changes is
// the memory layout (no per-call Waveform/BitVec churn), the branch-light
// counting kernel, and the batched jitter generation (FastNormal::fill
// over a reused scratch block, one draw per normal, same stream order).
//
// Contract, enforced by tests/property/compiled_capture_equiv_test.cpp:
// sample / sample_bit / sample_subset and the *_from_draws kernels are
// bit-exact against OverclockedCapture on the same RNG stream, including
// the number and order of draws consumed — so a campaign routed through
// CompiledCapture is bit-identical to one on the reference path.
#pragma once

#include <cstdint>
#include <vector>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "common/bitvec.hpp"
#include "common/rng.hpp"
#include "timing/capture.hpp"

namespace slm::timing {

/// A subset of endpoints packed into self-contained contiguous buffers
/// for the hottest campaign kernel (benign HW sensor): toggle times,
/// bucket-hint grids, skews and the capture parameters are copied out of
/// the owning CompiledCapture so the per-sample loop touches one small
/// block and inlines across translation units. The comparisons run on
/// the same doubles in the same expression order, so results are
/// bit-exact against CompiledCapture (and hence OverclockedCapture).
class PackedToggleSubset {
 public:
  PackedToggleSubset() = default;

  /// Listed endpoint count; hw_from_draws consumes 1 + size() normals.
  std::size_t size() const { return meta_.size(); }

  /// Nominal-domain observation instant — identical FP expression to
  /// OverclockedCapture::effective_time, exposed so a caller driving
  /// several packed subsets of the same capture clock can divide once
  /// per sample and reuse the value (the subsets share t_base_ and the
  /// delay model, so the reused double is the same one each would have
  /// computed itself).
  double nominal_time(double v) const { return t_base_ / delay_.factor(v); }

  /// True when `o` computes bit-identical nominal_time for every v —
  /// the precondition for sharing one division across subsets.
  bool same_clock(const PackedToggleSubset& o) const {
    return t_base_ == o.t_base_ && delay_.vnom == o.delay_.vnom &&
           delay_.sensitivity_per_volt == o.delay_.sensitivity_per_volt;
  }

  /// Toggle Hamming weight over the packed endpoints at voltage v;
  /// z[0] is the common draw, z[1..size()] the per-endpoint jitters.
  std::uint32_t hw_from_draws(double v, const double* z) const {
    return hw_at_nominal(nominal_time(v), z);
  }

  /// Same, with the nominal observation instant precomputed (must equal
  /// nominal_time(v) bit-for-bit; see nominal_time).
  std::uint32_t hw_at_nominal(double t_nom, const double* z) const {
    const double t_eff = t_nom + (0.0 + common_jitter_sigma_ns_ * z[0]);
    const double sigma = jitter_sigma_ns_;
    std::uint32_t hw = 0;
    const std::size_t k = meta_.size();
    for (std::size_t j = 0; j < k; ++j) {
      const double t = t_eff - meta_[j].skew + (0.0 + sigma * z[1 + j]);
      hw += toggle_parity(j, t);
    }
    return hw;
  }

#if defined(__x86_64__)
  /// Four-lane nominal_time: the same division, lane by lane.
  __attribute__((target("avx2"))) __m256d nominal_time4(__m256d v) const {
    return _mm256_div_pd(_mm256_set1_pd(t_base_), factor4(v));
  }

  /// Four-lane hw_at_nominal: lane j of the result is
  /// hw_at_nominal(t_nom[j], z_j), where z_j holds lane j of 1 + size()
  /// successive draw() results (a __m256d each: the common draw, then
  /// one per packed endpoint, the order hw_at_nominal reads z). Each
  /// lane runs the scalar expression sequence in its own slot, with no
  /// FMA, and counts toggles with exact compares, so every lane is
  /// bit-exact against hw_at_nominal. Linear endpoints compare every
  /// toggle; gridded ones gather their bucket hint and window per lane.
  /// Returns the four Hamming weights as 64-bit integers. `draw` is a
  /// functor whose call operator also targets AVX2: the benign bank
  /// draws from four xoshiro lanes in registers or reads a buffer.
  template <class Draw>
  __attribute__((target("avx2"))) __m256i hw4(__m256d t_nom,
                                              Draw& draw) const;
#endif

 private:
  friend class CompiledCapture;

  /// Parity of #(toggle times of packed endpoint j <= t) — the exact
  /// upper-bound count. Toggle-heavy endpoints count a fixed-width
  /// window starting at the left grid position: pack_subset sizes the
  /// grid so every toggle comparable with t lands within wmax_[j]
  /// entries of it (one-bucket FP safety margin included), the run is
  /// padded with +inf sentinels, and entries past the true upper bound
  /// compare false on their own — so the loop's trip count is constant
  /// per endpoint and the count stays bit-exact.
  std::uint32_t toggle_parity(std::size_t j, double t) const {
    const Endpoint& m = meta_[j];
    const double* a = times_.data() + m.toff;
    if (m.window == 0) {
      const std::uint32_t n = m.count;
      std::uint32_t c = 0;
      for (std::uint32_t i = 0; i < n; ++i) c += a[i] <= t ? 1u : 0u;
      return c & 1u;
    }
    double bl = (t - m.grid_lo) * m.grid_scale - 1.0;
    bl = bl < 0.0 ? 0.0 : bl;
    bl = bl > m.buckets ? m.buckets : bl;
    const std::uint32_t lo = grid_[m.goff + static_cast<std::uint32_t>(bl)];
    const std::uint32_t w = m.window;
    std::uint32_t c = lo;
    for (std::uint32_t i = 0; i < w; ++i) c += a[lo + i] <= t ? 1u : 0u;
    return c & 1u;
  }

#if defined(__x86_64__)
  /// VoltageDelayModel::factor per lane: 1.0 + k * (vnom - v), clamped
  /// as max(kMinFactor, f), which is the scalar f < kMinFactor ?
  /// kMinFactor : f (a NaN f passes through both).
  __attribute__((target("avx2"))) __m256d factor4(__m256d v) const {
    const __m256d f = _mm256_add_pd(
        _mm256_set1_pd(1.0),
        _mm256_mul_pd(_mm256_set1_pd(delay_.sensitivity_per_volt),
                      _mm256_sub_pd(_mm256_set1_pd(delay_.vnom), v)));
    return _mm256_max_pd(
        _mm256_set1_pd(VoltageDelayModel::kMinFactor), f);
  }
#endif

  /// Per-endpoint metadata, one cache-friendly record per packed
  /// endpoint instead of parallel arrays.
  struct Endpoint {
    double skew = 0.0;
    double grid_lo = 0.0;     ///< first toggle time (gridded only)
    double grid_scale = 0.0;  ///< buckets per ns
    double buckets = 0.0;     ///< bucket count as a double (clamp bound)
    std::uint32_t toff = 0;   ///< run start (padded) into times_
    std::uint32_t goff = 0;   ///< grid run start into grid_
    std::uint32_t count = 0;  ///< real toggle count
    std::uint32_t window = 0; ///< fixed window width; 0 = linear count
  };

  VoltageDelayModel delay_{};
  double t_base_ = 0.0;
  double common_jitter_sigma_ns_ = 0.0;
  double jitter_sigma_ns_ = 0.0;
  std::vector<Endpoint> meta_;
  std::vector<double> times_;        ///< toggle runs, each +inf-padded
  /// Boundary lower bounds, B+1 per run; 32-bit so hw4 gathers them.
  std::vector<std::uint32_t> grid_;
};

#if defined(__x86_64__)
template <class Draw>
__attribute__((target("avx2"))) inline __m256i PackedToggleSubset::hw4(
    __m256d t_nom, Draw& draw) const {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d t_eff = _mm256_add_pd(
      t_nom, _mm256_add_pd(zero, _mm256_mul_pd(
                                     _mm256_set1_pd(common_jitter_sigma_ns_),
                                     draw())));
  const __m256d sigma = _mm256_set1_pd(jitter_sigma_ns_);
  const __m256i one = _mm256_set1_epi64x(1);
  __m256i hw = _mm256_setzero_si256();
  for (const Endpoint& m : meta_) {
    // t_eff - skew + (0.0 + sigma * z), as toggle_parity's caller forms t.
    const __m256d t = _mm256_add_pd(
        _mm256_sub_pd(t_eff, _mm256_set1_pd(m.skew)),
        _mm256_add_pd(zero, _mm256_mul_pd(sigma, draw())));
    const double* const a = times_.data() + m.toff;
    // A true compare is all ones, -1 as an integer: subtracting counts it.
    __m256i c;
    if (m.window == 0) {
      c = _mm256_setzero_si256();
      for (std::uint32_t i = 0; i < m.count; ++i) {
        c = _mm256_sub_epi64(
            c, _mm256_castpd_si256(
                   _mm256_cmp_pd(_mm256_set1_pd(a[i]), t, _CMP_LE_OQ)));
      }
    } else {
      // toggle_parity's clamps. max/min return their second operand on
      // NaN, so a NaN instant reads bucket 0 instead of an arbitrary
      // index; every other bl truncates to the scalar's bucket (a -0.0
      // the scalar keeps reads as 0.0 here, the same bucket).
      __m256d bl = _mm256_sub_pd(
          _mm256_mul_pd(_mm256_sub_pd(t, _mm256_set1_pd(m.grid_lo)),
                        _mm256_set1_pd(m.grid_scale)),
          _mm256_set1_pd(1.0));
      bl = _mm256_max_pd(bl, zero);
      bl = _mm256_min_pd(bl, _mm256_set1_pd(m.buckets));
      const __m128i lo = _mm_i32gather_epi32(
          reinterpret_cast<const int*>(grid_.data() + m.goff),
          _mm256_cvttpd_epi32(bl), 4);
      c = _mm256_cvtepu32_epi64(lo);
      // The masked gather with every lane on is the plain gather; its
      // zero source keeps GCC 12 from warning on the plain one's
      // undefined source.
      const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
      for (std::uint32_t i = 0; i < m.window; ++i) {
        const __m256d ai = _mm256_mask_i32gather_pd(zero, a + i, lo, all, 8);
        c = _mm256_sub_epi64(
            c, _mm256_castpd_si256(_mm256_cmp_pd(ai, t, _CMP_LE_OQ)));
      }
    }
    hw = _mm256_add_epi64(hw, _mm256_and_si256(c, one));
  }
  return hw;
}
#endif

class CompiledCapture {
 public:
  /// Compile a reference capture: same config, same skews, same physics.
  explicit CompiledCapture(const OverclockedCapture& ref);

  std::size_t endpoint_count() const { return skew_.size(); }
  const CaptureConfig& config() const { return cfg_; }

  /// Nominal-domain observation instant for supply voltage v (identical
  /// FP expression to OverclockedCapture::effective_time).
  double effective_time(double v) const { return t_base_ / cfg_.delay.factor(v); }

  /// Reset-cycle value of endpoint i.
  bool initial_value(std::size_t i) const { return initial_[i] != 0; }

  // --- Bit-exact noisy mirrors of OverclockedCapture -------------------

  /// Full endpoint word at voltage v: one common draw + one jitter draw
  /// per endpoint, identical to OverclockedCapture::sample.
  BitVec sample(double v, Xoshiro256& rng) const;

  /// One endpoint: one common draw + one jitter draw.
  bool sample_bit(std::size_t i, double v, Xoshiro256& rng) const;

  /// Listed endpoints only (other bits 0): one common draw + one jitter
  /// draw per listed endpoint, in list order.
  BitVec sample_subset(const std::vector<std::size_t>& bits, double v,
                       Xoshiro256& rng) const;

  // --- Batched kernels (pre-drawn normals) -----------------------------
  //
  // `z` points at standard normals in consumption order: z[0] is the
  // common draw, z[1..] the per-endpoint jitters. Callers fill a whole
  // batch with FastNormal::fill and slice it per sample, which keeps the
  // stream order identical to per-call sampling.

  /// Toggle Hamming weight over `idx[0..k)`: needs 1 + k normals.
  std::uint32_t hw_from_draws(const std::uint32_t* idx, std::size_t k,
                              double v, const double* z) const;

  /// Copy the listed endpoints into a self-contained PackedToggleSubset
  /// whose hw_from_draws is bit-exact against hw_from_draws(idx, ...).
  PackedToggleSubset pack_subset(const std::vector<std::uint32_t>& idx) const;

  /// Toggle bit of endpoint i: needs 2 normals.
  bool toggle_from_draws(std::size_t i, double v, const double* z) const;

  /// Add each endpoint's toggle bit into ones[0..endpoint_count()):
  /// needs 1 + endpoint_count() normals. Selection pre-pass kernel.
  void toggles_from_draws(double v, const double* z, std::size_t* ones) const;

  // --- Noise-free voltage-threshold queries ----------------------------

  /// Toggles of endpoint i already crossed at supply voltage v with no
  /// jitter: a threshold compare when compiled, a time-domain count
  /// otherwise. Matches counting endpoint toggles <= effective_time(v)
  /// - skew_i except on rounding-boundary ties of measure zero.
  std::size_t toggles_crossed(std::size_t i, double v) const;

  /// Noise-free captured value of endpoint i at voltage v.
  bool value_noise_free(std::size_t i, double v) const {
    return (initial_[i] ^ (toggles_crossed(i, v) & 1u)) != 0;
  }

  /// Noise-free toggle-vs-reset bit.
  bool toggled_noise_free(std::size_t i, double v) const {
    return (toggles_crossed(i, v) & 1u) != 0;
  }

 private:
  std::size_t count_crossed_time(std::size_t i, double t) const;

  CaptureConfig cfg_;
  double t_base_ = 0.0;  ///< clock_period_ns - setup_ns
  std::vector<std::uint32_t> offsets_;  ///< per endpoint, into flat arrays
  std::vector<double> times_;           ///< flattened toggle instants
  std::vector<double> vthresh_;         ///< flattened voltage thresholds
  std::vector<double> skew_;
  std::vector<std::uint8_t> initial_;
  bool has_thresholds_ = false;

  // Uniform time-bucket grids for toggle-heavy endpoints (C6288
  // diagonals): entry b of endpoint i's run is the exact lower-bound
  // toggle index of bucket boundary b (kGridBuckets + 1 entries, last is
  // the toggle count). A query counts branchlessly over the window
  // [entry(b-1), entry(b+2)) — one-bucket margins make the window
  // provably enclose every toggle comparable with t, so counts stay
  // bit-exact. Endpoints below the linear-scan cutoff, above the uint16
  // range or with a degenerate time span get an empty grid run.
  std::vector<std::uint32_t> grid_offsets_;  ///< per endpoint, into grid_
  std::vector<std::uint16_t> grid_;          ///< boundary lower bounds
  std::vector<double> grid_lo_;              ///< first toggle time
  std::vector<double> grid_scale_;           ///< buckets per ns
};

}  // namespace slm::timing
