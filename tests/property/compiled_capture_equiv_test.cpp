// Bit-exactness property suite for timing::CompiledCapture (and the
// packed batch kernels) against the reference OverclockedCapture.
//
// The contract under test (see compiled_capture.hpp): on the same RNG
// stream, sample / sample_bit / sample_subset return bit-identical words
// AND consume the identical number of draws in the identical order; the
// *_from_draws batch kernels reproduce the same readings from a
// FastNormal::fill block, four lanes at a time in the AVX2 evaluator
// too; the noise-free voltage-threshold queries agree with a
// time-domain waveform walk. Each circuit family (ripple-carry
// adder, C6288 multiplier slices) is swept over randomized geometry,
// delays, capture configs, skew seeds and voltages — well over 1000
// randomized cases per family.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/bitvec.hpp"
#include "common/rng.hpp"
#include "netlist/generators/adder.hpp"
#include "netlist/generators/c6288.hpp"
#include "timing/capture.hpp"
#include "timing/compiled_capture.hpp"
#include "timing/timed_sim.hpp"

namespace slm {
namespace {

BitVec random_inputs(std::size_t width, Xoshiro256& rng) {
  BitVec v(width);
  for (std::size_t i = 0; i < width; ++i) v.set(i, rng.coin());
  return v;
}

double random_voltage(Xoshiro256& rng) {
  // Mostly around the operating point, with occasional extremes to hit
  // the delay-factor clamp and the always/never-crossed threshold arms.
  const std::uint64_t u = rng.next();
  const double frac = static_cast<double>(u >> 11) * 0x1p-53;
  switch (u % 8) {
    case 0:
      return 0.2 + 0.4 * frac;  // deep droop, factor near the clamp
    case 1:
      return 1.2 + 0.8 * frac;  // overvolted, waveform start
    default:
      return 0.85 + 0.25 * frac;  // paper's operating band
  }
}

struct Fixture {
  timing::OverclockedCapture ref;
  timing::CompiledCapture fast;

  Fixture(std::vector<timing::Waveform> wf, const timing::CaptureConfig& cfg,
          std::uint64_t skew_seed)
      : ref(std::move(wf), cfg, skew_seed), fast(ref) {}
};

/// One randomized capture config: jitter sigmas, clock, skew spread and
/// delay sensitivity all vary (including zero-jitter corners).
timing::CaptureConfig random_config(Xoshiro256& rng) {
  timing::CaptureConfig cfg;
  const auto frac = [&] {
    return static_cast<double>(rng.next() >> 11) * 0x1p-53;
  };
  cfg.clock_period_ns = 2.0 + 3.0 * frac();
  cfg.setup_ns = 0.02 + 0.05 * frac();
  cfg.jitter_sigma_ns = rng.coin() ? 0.0 : 0.02 + 0.1 * frac();
  cfg.common_jitter_sigma_ns = rng.coin() ? 0.0 : 0.05 + 0.15 * frac();
  cfg.endpoint_skew_sigma_ns = 0.02 + 0.1 * frac();
  cfg.delay.sensitivity_per_volt = 1.0 + 1.5 * frac();
  return cfg;
}

Fixture make_adder_fixture(std::uint64_t seed) {
  Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ull + 1);
  netlist::AdderOptions opt;
  opt.width = 16 + rng.next() % 33;  // 16..48 bits
  opt.carry_stage_delay_ns = 0.015 + 0.01 * static_cast<double>(seed % 3);
  const auto nl = make_ripple_carry_adder(opt);
  timing::TimedSimulator sim(nl);
  const std::size_t n_in = nl.inputs().size();
  const auto r = sim.simulate_transition(random_inputs(n_in, rng),
                                         random_inputs(n_in, rng));
  return Fixture(r.endpoint_waveforms, random_config(rng), rng.next());
}

Fixture make_c6288_fixture(std::uint64_t seed) {
  Xoshiro256 rng(seed * 0x2545f4914f6cdd1dull + 3);
  netlist::C6288Options opt;
  opt.operand_width = 4 + rng.next() % 4;  // 4..7-bit multiplier slices
  const auto nl = make_c6288(opt);
  timing::TimedSimulator sim(nl);
  const std::size_t n_in = nl.inputs().size();
  const auto r = sim.simulate_transition(random_inputs(n_in, rng),
                                         random_inputs(n_in, rng));
  return Fixture(r.endpoint_waveforms, random_config(rng), rng.next());
}

#if defined(__x86_64__)
// Lane j's next draw is z[j * stride]; each call moves one draw along.
struct BufferDraw {
  const double* z;
  __m256i offsets;
  __attribute__((target("avx2"))) __m256d operator()() {
    return _mm256_i64gather_pd(z++, offsets, 8);
  }
};

// Four lanes at voltages v through nominal_time4 and hw4, reading lane
// j's 1 + size() draws from z + j * stride.
__attribute__((target("avx2"))) void hw4_from_buffer(
    const timing::PackedToggleSubset& packed, const double* v,
    const double* z, std::size_t stride, double* t_nom, std::uint64_t* hw) {
  const auto s = static_cast<long long>(stride);
  BufferDraw draw{z, _mm256_set_epi64x(3 * s, 2 * s, s, 0)};
  const __m256d t = packed.nominal_time4(_mm256_loadu_pd(v));
  _mm256_store_pd(t_nom, t);
  _mm256_store_si256(reinterpret_cast<__m256i*>(hw), packed.hw4(t, draw));
}
#endif

/// Runs every equivalence check once for a (fixture, voltage, stream)
/// case. Returns the number of randomized cases exercised (for the
/// >= 1000 per-family accounting).
void check_case(const Fixture& f, double v, std::uint64_t stream_seed) {
  const std::size_t n = f.ref.endpoint_count();
  ASSERT_EQ(f.fast.endpoint_count(), n);

  // --- sample: identical word, identical stream position afterwards.
  {
    Xoshiro256 ra(stream_seed);
    Xoshiro256 rb(stream_seed);
    const BitVec wa = f.ref.sample(v, ra);
    const BitVec wb = f.fast.sample(v, rb);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(wa.get(i), wb.get(i)) << "endpoint " << i << " at v=" << v;
    }
    ASSERT_EQ(ra.next(), rb.next()) << "sample consumed a different draw count";
  }

  // --- sample_bit on a random endpoint.
  Xoshiro256 pick(stream_seed ^ 0xb17);
  const std::size_t bit = pick.next() % n;
  {
    Xoshiro256 ra(stream_seed + 1);
    Xoshiro256 rb(stream_seed + 1);
    ASSERT_EQ(f.ref.sample_bit(bit, v, ra), f.fast.sample_bit(bit, v, rb));
    ASSERT_EQ(ra.next(), rb.next());
  }

  // --- sample_subset on a random subset (ascending, like the campaign).
  std::vector<std::size_t> bits;
  for (std::size_t i = 0; i < n; ++i) {
    if (pick.coin()) bits.push_back(i);
  }
  if (bits.empty()) bits.push_back(bit);
  {
    Xoshiro256 ra(stream_seed + 2);
    Xoshiro256 rb(stream_seed + 2);
    const BitVec wa = f.ref.sample_subset(bits, v, ra);
    const BitVec wb = f.fast.sample_subset(bits, v, rb);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(wa.get(i), wb.get(i)) << "subset endpoint " << i;
    }
    ASSERT_EQ(ra.next(), rb.next());
  }

  // --- batch kernels against the per-call reference on the same block
  // of draws: hw_from_draws (indexed and packed), toggle_from_draws,
  // toggles_from_draws.
  {
    std::vector<std::uint32_t> idx(bits.begin(), bits.end());
    const timing::PackedToggleSubset packed = f.fast.pack_subset(idx);
    ASSERT_EQ(packed.size(), idx.size());

    Xoshiro256 ra(stream_seed + 3);
    Xoshiro256 rb(stream_seed + 3);
    std::vector<double> z(1 + idx.size());
    FastNormal::instance().fill(rb, z.data(), z.size());
    const std::uint32_t hw_idx =
        f.fast.hw_from_draws(idx.data(), idx.size(), v, z.data());
    const std::uint32_t hw_packed = packed.hw_from_draws(v, z.data());
    const std::uint32_t hw_nominal =
        packed.hw_at_nominal(packed.nominal_time(v), z.data());
    const BitVec wa = f.ref.sample_subset(bits, v, ra);
    const BitVec toggled = f.ref.toggled(wa);
    std::uint32_t hw_ref = 0;
    for (std::size_t i : bits) hw_ref += toggled.get(i) ? 1u : 0u;
    ASSERT_EQ(hw_idx, hw_ref);
    ASSERT_EQ(hw_packed, hw_ref);
    ASSERT_EQ(hw_nominal, hw_ref);
    ASSERT_EQ(ra.next(), rb.next());
  }
  {
    Xoshiro256 ra(stream_seed + 4);
    Xoshiro256 rb(stream_seed + 4);
    double z[2];
    FastNormal::instance().fill(rb, z, 2);
    const bool fast_toggle = f.fast.toggle_from_draws(bit, v, z);
    const bool ref_toggle =
        f.ref.sample_bit(bit, v, ra) !=
        f.ref.waveforms()[bit].initial_value();
    ASSERT_EQ(fast_toggle, ref_toggle);
    ASSERT_EQ(ra.next(), rb.next());
  }
  {
    Xoshiro256 ra(stream_seed + 5);
    Xoshiro256 rb(stream_seed + 5);
    std::vector<double> z(1 + n);
    FastNormal::instance().fill(rb, z.data(), z.size());
    std::vector<std::size_t> ones(n, 0);
    f.fast.toggles_from_draws(v, z.data(), ones.data());
    const BitVec toggled = f.ref.toggled(f.ref.sample(v, ra));
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(ones[i], toggled.get(i) ? 1u : 0u) << "endpoint " << i;
    }
    ASSERT_EQ(ra.next(), rb.next());
  }

#if defined(__x86_64__)
  // --- hw4: the four-lane evaluator over draws read from a buffer must
  // match hw_at_nominal lane by lane (same draws, same nominal time per
  // lane — the draw-and-read read-out's bit-exactness claim).
  if (__builtin_cpu_supports("avx2")) {
    std::vector<std::uint32_t> idx(bits.begin(), bits.end());
    const timing::PackedToggleSubset packed = f.fast.pack_subset(idx);
    Xoshiro256 rb(stream_seed + 6);
    const std::size_t stride = 1 + idx.size();
    std::vector<double> z(4 * stride);
    FastNormal::instance().fill(rb, z.data(), z.size());
    double vl[4];
    for (double& x : vl) x = random_voltage(rb);
    alignas(32) double t_nom[4];
    alignas(32) std::uint64_t hw[4];
    hw4_from_buffer(packed, vl, z.data(), stride, t_nom, hw);
    for (std::size_t l = 0; l < 4; ++l) {
      ASSERT_EQ(t_nom[l], packed.nominal_time(vl[l])) << "lane " << l;
      ASSERT_EQ(hw[l], packed.hw_at_nominal(t_nom[l], z.data() + l * stride))
          << "lane " << l << " at v=" << vl[l];
    }
  }
#endif

  // --- noise-free threshold queries against a time-domain walk.
  {
    const double t = f.ref.effective_time(v);
    const auto& skews = f.ref.endpoint_skews();
    for (std::size_t i : bits) {
      const bool ref_value =
          f.ref.waveforms()[i].value_at(t - skews[i]);
      ASSERT_EQ(f.fast.value_noise_free(i, v), ref_value)
          << "endpoint " << i << " at v=" << v;
      ASSERT_EQ(f.fast.toggled_noise_free(i, v),
                ref_value != f.ref.waveforms()[i].initial_value());
    }
  }
}

class AdderFamily : public ::testing::TestWithParam<std::uint64_t> {};
class C6288Family : public ::testing::TestWithParam<std::uint64_t> {};

// 8 fixtures x 150 (voltage, stream) cases = 1200 randomized cases per
// family, each exercising every API in the contract.
constexpr int kCasesPerFixture = 150;

TEST_P(AdderFamily, CompiledCaptureIsBitExact) {
  const Fixture f = make_adder_fixture(GetParam());
  Xoshiro256 rng(GetParam() ^ 0xadd3f);
  for (int c = 0; c < kCasesPerFixture; ++c) {
    check_case(f, random_voltage(rng), rng.next());
    if (HasFatalFailure()) return;
  }
}

TEST_P(C6288Family, CompiledCaptureIsBitExact) {
  const Fixture f = make_c6288_fixture(GetParam());
  Xoshiro256 rng(GetParam() ^ 0xc6288);
  for (int c = 0; c < kCasesPerFixture; ++c) {
    check_case(f, random_voltage(rng), rng.next());
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdderFamily,
                         ::testing::Range<std::uint64_t>(0, 8));
INSTANTIATE_TEST_SUITE_P(Seeds, C6288Family,
                         ::testing::Range<std::uint64_t>(0, 8));

}  // namespace
}  // namespace slm
