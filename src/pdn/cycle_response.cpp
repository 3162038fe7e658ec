#include "pdn/cycle_response.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

#if defined(__x86_64__)
#define SLM_PDN_X86 1
#include <immintrin.h>
#else
#define SLM_PDN_X86 0
#endif

namespace slm::pdn {

CycleResponseMatrix CycleResponseMatrix::build(
    const PdnConfig& cfg, const std::vector<double>& sample_times_ns,
    const std::vector<double>& cycle_starts_ns, double cycle_len_ns) {
  SLM_REQUIRE(!sample_times_ns.empty(), "CycleResponseMatrix: no samples");
  SLM_REQUIRE(!cycle_starts_ns.empty(), "CycleResponseMatrix: no cycles");
  SLM_REQUIRE(cycle_len_ns > 0, "CycleResponseMatrix: bad cycle length");
  SLM_REQUIRE(std::is_sorted(sample_times_ns.begin(), sample_times_ns.end()),
              "CycleResponseMatrix: sample times must be sorted");

  CycleResponseMatrix crm;
  crm.sample_times_ = sample_times_ns;
  crm.cycle_starts_ = cycle_starts_ns;
  crm.m_.assign(sample_times_ns.size() * cycle_starts_ns.size(), 0.0);

  RlcPdn probe(cfg);
  crm.v_dc_ = probe.dc_voltage(cfg.idle_current_a);

  const double t_end = sample_times_ns.back() + cfg.dt_ns;

  for (std::size_t c = 0; c < cycle_starts_ns.size(); ++c) {
    RlcPdn pdn(cfg);
    const double t_on = cycle_starts_ns[c];
    const double t_off = t_on + cycle_len_ns;

    std::size_t next_sample = 0;
    // Step across the window; record v - v_dc at each sample instant
    // (nearest-step sampling is fine: dt << sample spacing).
    for (double t = 0.0; t <= t_end && next_sample < sample_times_ns.size();
         t += cfg.dt_ns) {
      const double i = (t >= t_on && t < t_off) ? 1.0 : 0.0;
      const double v = pdn.step(i);
      if (t + cfg.dt_ns > sample_times_ns[next_sample]) {
        crm.m_[next_sample * cycle_starts_ns.size() + c] = v - crm.v_dc_;
        ++next_sample;
      }
    }
  }
  return crm;
}

double CycleResponseMatrix::voltage_at(
    std::size_t sample, const std::vector<double>& i_cycles) const {
  SLM_REQUIRE(sample < sample_times_.size(), "voltage_at: bad sample");
  SLM_REQUIRE(i_cycles.size() == cycle_starts_.size(),
              "voltage_at: cycle current count mismatch");
  const double* row = &m_[sample * cycle_starts_.size()];
  double dv = 0.0;
  for (std::size_t c = 0; c < i_cycles.size(); ++c) dv += row[c] * i_cycles[c];
  return v_dc_ + dv;
}

void CycleResponseMatrix::voltages(const std::vector<double>& i_cycles,
                                   std::vector<double>& out) const {
  SLM_REQUIRE(i_cycles.size() == cycle_starts_.size(),
              "voltages: cycle current count mismatch");
  const std::size_t n_samples = sample_times_.size();
  const std::size_t n_cycles = cycle_starts_.size();
  out.resize(n_samples);
  const double* m = m_.data();
  const double* ic = i_cycles.data();
  for (std::size_t s = 0; s < n_samples; ++s) {
    const double* row = m + s * n_cycles;
    double dv = 0.0;
    for (std::size_t c = 0; c < n_cycles; ++c) dv += row[c] * ic[c];
    out[s] = v_dc_ + dv;
  }
}

namespace {

// The per-lane scalar loop for lanes [l_begin, l_end): the exact
// voltages() accumulation, one lane at a time.
void block_scalar(const double* m, std::size_t n_samples,
                  std::size_t n_cycles, double v_dc, const double* ic_t,
                  std::size_t stride, std::size_t l_begin, std::size_t l_end,
                  double* out) {
  for (std::size_t l = l_begin; l < l_end; ++l) {
    for (std::size_t s = 0; s < n_samples; ++s) {
      const double* row = m + s * n_cycles;
      double dv = 0.0;
      for (std::size_t c = 0; c < n_cycles; ++c) {
        dv += row[c] * ic_t[c * stride + l];
      }
      out[l * n_samples + s] = v_dc + dv;
    }
  }
}

// 8-lane tiles over lanes [l_begin, l_end), l_end - l_begin a multiple
// of 8. Each tile's accumulators live in registers across the whole
// cycle loop; every lane still accumulates c-ascending into its own
// running sum, so the lanes only pipeline the latency-bound FP-add chain.
void block_tile8(const double* m, std::size_t n_samples, std::size_t n_cycles,
                 double v_dc, const double* ic_t, std::size_t stride,
                 std::size_t l_begin, std::size_t l_end, double* out) {
  constexpr std::size_t kTile = 8;
  for (std::size_t l0 = l_begin; l0 < l_end; l0 += kTile) {
    for (std::size_t s = 0; s < n_samples; ++s) {
      const double* __restrict row = m + s * n_cycles;
      double acc[kTile] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
      for (std::size_t c = 0; c < n_cycles; ++c) {
        const double rc = row[c];
        const double* __restrict ic = ic_t + c * stride + l0;
        for (std::size_t k = 0; k < kTile; ++k) acc[k] += rc * ic[k];
      }
      for (std::size_t k = 0; k < kTile; ++k) {
        out[(l0 + k) * n_samples + s] = v_dc + acc[k];
      }
    }
  }
}

#if SLM_PDN_X86
// 32-lane tiles over lanes [l_begin, l_end), l_end - l_begin a multiple
// of 32: eight 4-lane ymm accumulators per sample. The multiply and the
// add stay separate instructions (this target has no FMA), so each lane
// rounds exactly as the scalar loop does.
__attribute__((target("avx2"))) void block_tile32_avx2(
    const double* m, std::size_t n_samples, std::size_t n_cycles, double v_dc,
    const double* ic_t, std::size_t stride, std::size_t l_begin,
    std::size_t l_end, double* out) {
  constexpr std::size_t kTile = 32;
  alignas(32) double acc[kTile];
  for (std::size_t l0 = l_begin; l0 < l_end; l0 += kTile) {
    for (std::size_t s = 0; s < n_samples; ++s) {
      const double* row = m + s * n_cycles;
      __m256d a0 = _mm256_setzero_pd(), a1 = a0, a2 = a0, a3 = a0;
      __m256d a4 = a0, a5 = a0, a6 = a0, a7 = a0;
      for (std::size_t c = 0; c < n_cycles; ++c) {
        const __m256d r = _mm256_set1_pd(row[c]);
        const double* ic = ic_t + c * stride + l0;
        a0 = _mm256_add_pd(a0, _mm256_mul_pd(r, _mm256_loadu_pd(ic)));
        a1 = _mm256_add_pd(a1, _mm256_mul_pd(r, _mm256_loadu_pd(ic + 4)));
        a2 = _mm256_add_pd(a2, _mm256_mul_pd(r, _mm256_loadu_pd(ic + 8)));
        a3 = _mm256_add_pd(a3, _mm256_mul_pd(r, _mm256_loadu_pd(ic + 12)));
        a4 = _mm256_add_pd(a4, _mm256_mul_pd(r, _mm256_loadu_pd(ic + 16)));
        a5 = _mm256_add_pd(a5, _mm256_mul_pd(r, _mm256_loadu_pd(ic + 20)));
        a6 = _mm256_add_pd(a6, _mm256_mul_pd(r, _mm256_loadu_pd(ic + 24)));
        a7 = _mm256_add_pd(a7, _mm256_mul_pd(r, _mm256_loadu_pd(ic + 28)));
      }
      _mm256_store_pd(acc, a0);
      _mm256_store_pd(acc + 4, a1);
      _mm256_store_pd(acc + 8, a2);
      _mm256_store_pd(acc + 12, a3);
      _mm256_store_pd(acc + 16, a4);
      _mm256_store_pd(acc + 20, a5);
      _mm256_store_pd(acc + 24, a6);
      _mm256_store_pd(acc + 28, a7);
      for (std::size_t k = 0; k < kTile; ++k) {
        out[(l0 + k) * n_samples + s] = v_dc + acc[k];
      }
    }
  }
}
#endif

}  // namespace

void CycleResponseMatrix::voltages_block(const double* ic_t,
                                         std::size_t lanes,
                                         std::size_t stride, double* out,
                                         bool simd) const {
  voltages_block(ic_t, lanes, stride, out,
                 simd ? std::max(active_dispatch(), DispatchLevel::kSse2)
                      : DispatchLevel::kScalar);
}

void CycleResponseMatrix::voltages_block(const double* ic_t,
                                         std::size_t lanes,
                                         std::size_t stride, double* out,
                                         DispatchLevel level) const {
  SLM_REQUIRE(lanes > 0 && lanes <= stride,
              "voltages_block: lanes exceed stride");
  const std::size_t n_samples = sample_times_.size();
  const std::size_t n_cycles = cycle_starts_.size();
  const double* m = m_.data();
  std::size_t l = 0;
  if (level == DispatchLevel::kAvx2) {
#if SLM_PDN_X86
    SLM_REQUIRE(detect_dispatch() >= DispatchLevel::kAvx2,
                "voltages_block: AVX2 requested but this CPU has no AVX2");
    const std::size_t end = lanes - lanes % 32;
    block_tile32_avx2(m, n_samples, n_cycles, v_dc_, ic_t, stride, 0, end,
                      out);
    l = end;
#else
    SLM_REQUIRE(false, "voltages_block: AVX2 exists only on x86-64");
#endif
  }
  if (level != DispatchLevel::kScalar) {
    const std::size_t end = l + (lanes - l) / 8 * 8;
    block_tile8(m, n_samples, n_cycles, v_dc_, ic_t, stride, l, end, out);
    l = end;
  }
  block_scalar(m, n_samples, n_cycles, v_dc_, ic_t, stride, l, lanes, out);
}

double CycleResponseMatrix::response(std::size_t sample,
                                     std::size_t cycle) const {
  SLM_REQUIRE(sample < sample_times_.size() && cycle < cycle_starts_.size(),
              "response: index out of range");
  return m_[sample * cycle_starts_.size() + cycle];
}

}  // namespace slm::pdn
