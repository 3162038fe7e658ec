#include "pdn/cycle_response.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "common/dispatch.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace slm::pdn {
namespace {

CycleResponseMatrix small_matrix() {
  PdnConfig cfg;
  const std::vector<double> samples{100.0, 110.0, 120.0, 130.0};
  const std::vector<double> cycles{80.0, 90.0, 100.0, 110.0};
  return CycleResponseMatrix::build(cfg, samples, cycles, 10.0);
}

TEST(CycleResponse, DcWithZeroCurrents) {
  const auto crm = small_matrix();
  const std::vector<double> zero(crm.cycle_count(), 0.0);
  for (std::size_t s = 0; s < crm.sample_count(); ++s) {
    EXPECT_DOUBLE_EQ(crm.voltage_at(s, zero), crm.dc_voltage());
  }
}

TEST(CycleResponse, CurrentCausesDroop) {
  const auto crm = small_matrix();
  std::vector<double> i(crm.cycle_count(), 0.0);
  i[2] = 1.0;  // cycle starting at t=100
  // The samples at/after the pulse must dip below DC.
  EXPECT_LT(crm.voltage_at(1, i), crm.dc_voltage());
  EXPECT_LT(crm.voltage_at(2, i), crm.dc_voltage());
}

TEST(CycleResponse, CausalityBeforePulse) {
  const auto crm = small_matrix();
  // Current in the cycle starting at 110 cannot affect the sample at 100.
  std::vector<double> i(crm.cycle_count(), 0.0);
  i[3] = 5.0;
  EXPECT_NEAR(crm.voltage_at(0, i), crm.dc_voltage(), 1e-9);
}

TEST(CycleResponse, SuperpositionMatchesFullSimulation) {
  PdnConfig cfg;
  const std::vector<double> samples{95.0, 105.0, 115.0};
  const std::vector<double> cycles{70.0, 80.0, 90.0, 100.0};
  const auto crm = CycleResponseMatrix::build(cfg, samples, cycles, 10.0);

  const std::vector<double> currents{0.3, 0.0, 0.8, 0.2};
  std::vector<double> fast;
  crm.voltages(currents, fast);

  // Reference: full RLC run with the same piecewise-constant load.
  RlcPdn pdn(cfg);
  std::vector<double> ref;
  std::size_t next = 0;
  for (double t = 0.0; t <= samples.back() + cfg.dt_ns && next < samples.size();
       t += cfg.dt_ns) {
    double load = 0.0;
    for (std::size_t c = 0; c < cycles.size(); ++c) {
      if (t >= cycles[c] && t < cycles[c] + 10.0) load += currents[c];
    }
    const double v = pdn.step(load);
    if (t + cfg.dt_ns > samples[next]) {
      ref.push_back(v);
      ++next;
    }
  }
  ASSERT_EQ(ref.size(), fast.size());
  for (std::size_t s = 0; s < ref.size(); ++s) {
    EXPECT_NEAR(fast[s], ref[s], 1e-6) << "sample " << s;
  }
}

TEST(CycleResponse, Validation) {
  PdnConfig cfg;
  EXPECT_THROW(CycleResponseMatrix::build(cfg, {}, {0.0}, 10.0), slm::Error);
  EXPECT_THROW(CycleResponseMatrix::build(cfg, {1.0}, {}, 10.0), slm::Error);
  EXPECT_THROW(CycleResponseMatrix::build(cfg, {2.0, 1.0}, {0.0}, 10.0),
               slm::Error);
  const auto crm = small_matrix();
  EXPECT_THROW((void)crm.voltage_at(99, {}), slm::Error);
  EXPECT_THROW((void)crm.voltage_at(0, {1.0}), slm::Error);  // wrong count
}

// voltages_block at every runnable dispatch level against per-trace
// voltages(): each lane must be the same bits, whatever tile it lands in
// (32-lane AVX2, 8-lane, or the scalar tail), with a stride wider than
// the block and no write past the lanes asked for.
TEST(CycleResponse, BlockMatchesPerTraceBitForBit) {
  PdnConfig cfg;
  std::vector<double> samples;
  for (double t = 400.0; t <= 465.0; t += 20.0 / 3.0) samples.push_back(t);
  std::vector<double> cycles;
  for (std::size_t c = 0; c < 44; ++c) cycles.push_back(10.0 * c);
  const auto crm = CycleResponseMatrix::build(cfg, samples, cycles, 10.0);
  const std::size_t n_samples = crm.sample_count();
  const std::size_t n_cycles = crm.cycle_count();

  std::vector<DispatchLevel> levels{DispatchLevel::kScalar,
                                    DispatchLevel::kSse2};
  if (detect_dispatch() >= DispatchLevel::kAvx2) {
    levels.push_back(DispatchLevel::kAvx2);
  }
  Xoshiro256 rng(0xb10c);
  for (const std::size_t lanes : {1, 7, 8, 31, 32, 33, 63, 64}) {
    const std::size_t stride = lanes + 5;
    std::vector<double> ic(n_cycles * stride);
    for (double& i : ic) i = 0.08 + 0.064 * rng.uniform();
    std::vector<std::vector<double>> expect(lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
      std::vector<double> lane(n_cycles);
      for (std::size_t c = 0; c < n_cycles; ++c) lane[c] = ic[c * stride + l];
      crm.voltages(lane, expect[l]);
    }
    const auto check = [&](const std::vector<double>& out,
                           const std::string& what) {
      for (std::size_t l = 0; l < lanes; ++l) {
        EXPECT_EQ(std::memcmp(out.data() + l * n_samples, expect[l].data(),
                              n_samples * sizeof(double)),
                  0)
            << what << " lanes " << lanes << " lane " << l;
      }
      for (std::size_t i = lanes * n_samples; i < out.size(); ++i) {
        ASSERT_EQ(out[i], -1.0) << what << " wrote past lane " << lanes;
      }
    };
    for (const DispatchLevel level : levels) {
      std::vector<double> out((lanes + 1) * n_samples, -1.0);
      crm.voltages_block(ic.data(), lanes, stride, out.data(), level);
      check(out, dispatch_level_name(level));
    }
    for (const bool simd : {false, true}) {
      std::vector<double> out((lanes + 1) * n_samples, -1.0);
      crm.voltages_block(ic.data(), lanes, stride, out.data(), simd);
      check(out, simd ? "simd" : "no-simd");
    }
  }
}

}  // namespace
}  // namespace slm::pdn
