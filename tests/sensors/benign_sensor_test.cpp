#include "sensors/benign_sensor.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/dispatch.hpp"
#include "common/error.hpp"
#include "core/setup.hpp"
#include "netlist/generators/adder.hpp"
#include "netlist/generators/alu.hpp"

namespace slm::sensors {
namespace {

using netlist::AdderOptions;
using netlist::AluOptions;

BenignSensorConfig quiet_cfg() {
  BenignSensorConfig cfg;
  cfg.capture.clock_period_ns = 10.0 / 3.0;
  cfg.capture.delay = timing::VoltageDelayModel{1.0, 2.0};
  cfg.capture.jitter_sigma_ns = 0.0;
  cfg.capture.common_jitter_sigma_ns = 0.0;
  cfg.capture.endpoint_skew_sigma_ns = 0.0;
  cfg.capture.setup_ns = 0.0;
  return cfg;
}

std::shared_ptr<BenignSensor> make_adder_sensor(std::size_t width,
                                                const BenignSensorConfig& cfg) {
  AdderOptions opt;
  opt.width = width;
  const auto nl = make_ripple_carry_adder(opt);
  BitVec ones(width);
  ones.set_all(true);
  BitVec one(width);
  one.set(0, true);
  return std::make_shared<BenignSensor>(
      nl, pack_adder_inputs(opt, BitVec(width), BitVec(width), false),
      pack_adder_inputs(opt, ones, one, false), cfg);
}

TEST(BenignSensor, OverclockedByConstruction) {
  const auto sensor = make_adder_sensor(192, quiet_cfg());
  EXPECT_GT(sensor->max_settle_time_ns(),
            quiet_cfg().capture.clock_period_ns);
  EXPECT_EQ(sensor->endpoint_count(), 193u);
}

TEST(BenignSensor, ThermometerToggleWordWithoutNoise) {
  const auto sensor = make_adder_sensor(192, quiet_cfg());
  Xoshiro256 rng(1);
  // Without noise the toggle word is a clean staircase: bits past the
  // carry boundary toggled (read 1), bits behind it killed (read 0).
  const BitVec toggles = sensor->sample_toggles(1.0, rng);
  const std::size_t hw = toggles.popcount();
  ASSERT_GT(hw, 0u);
  ASSERT_LT(hw, 192u);
  // All toggled bits sit above all untoggled sum bits.
  const std::size_t boundary = 192 - hw;
  for (std::size_t i = 0; i < 192; ++i) {
    EXPECT_EQ(toggles.get(i), i >= boundary) << "bit " << i;
  }
}

TEST(BenignSensor, BoundaryMovesWithVoltage) {
  const auto sensor = make_adder_sensor(192, quiet_cfg());
  Xoshiro256 rng(2);
  // Lower voltage -> earlier capture -> carry killed fewer bits -> more
  // bits still toggled (reading 1).
  const std::size_t hw_droop =
      sensor->sample_toggles(0.92, rng).popcount();
  const std::size_t hw_nom = sensor->sample_toggles(1.0, rng).popcount();
  const std::size_t hw_over = sensor->sample_toggles(1.04, rng).popcount();
  EXPECT_GT(hw_droop, hw_nom);
  EXPECT_GT(hw_nom, hw_over);
}

TEST(BenignSensor, SingleBitMatchesWordWithoutNoise) {
  const auto sensor = make_adder_sensor(64, quiet_cfg());
  Xoshiro256 rng(3);
  for (double v : {0.94, 1.0, 1.03}) {
    const BitVec word = sensor->sample_toggles(v, rng);
    for (std::size_t i = 0; i < sensor->endpoint_count(); i += 7) {
      EXPECT_EQ(sensor->sample_toggle_bit(i, v, rng), word.get(i));
    }
  }
}

TEST(BenignSensor, SubsetHwMatchesWord) {
  const auto sensor = make_adder_sensor(64, quiet_cfg());
  Xoshiro256 rng(4);
  const std::vector<std::size_t> bits{10, 20, 30, 40, 50};
  const std::size_t hw = sensor->sample_toggle_hw(bits, 0.97, rng);
  const BitVec word = sensor->sample_toggles(0.97, rng);
  std::size_t expect = 0;
  for (std::size_t b : bits) {
    if (word.get(b)) ++expect;
  }
  EXPECT_EQ(hw, expect);
}

TEST(BenignSensor, SensitiveEndpointsFormBand) {
  const auto sensor = make_adder_sensor(192, quiet_cfg());
  const auto sens = sensor->sensitive_endpoints(0.90, 1.02);
  ASSERT_FALSE(sens.empty());
  ASSERT_LT(sens.size(), 192u);
  // Sensitive sum bits are contiguous (the staircase band).
  for (std::size_t i = 1; i < sens.size(); ++i) {
    if (sens[i] < 192 && sens[i - 1] < 192) {
      EXPECT_EQ(sens[i], sens[i - 1] + 1);
    }
  }
}

TEST(BenignSensorBank, ConcatenatesInstances) {
  auto bank = BenignSensorBank{};
  bank.add(make_adder_sensor(16, quiet_cfg()));
  bank.add(make_adder_sensor(16, quiet_cfg()));
  EXPECT_EQ(bank.instance_count(), 2u);
  EXPECT_EQ(bank.endpoint_count(), 34u);  // 2 x (16 sums + carry)
  Xoshiro256 rng(5);
  const BitVec word = bank.sample_toggles(0.97, rng);
  EXPECT_EQ(word.size(), 34u);
  // Both instances see the same voltage and have no noise: halves match.
  for (std::size_t i = 0; i < 17; ++i) {
    EXPECT_EQ(word.get(i), word.get(17 + i));
  }
}

TEST(BenignSensorBank, GlobalBitIndexing) {
  auto bank = BenignSensorBank{};
  bank.add(make_adder_sensor(16, quiet_cfg()));
  bank.add(make_adder_sensor(16, quiet_cfg()));
  Xoshiro256 rng(6);
  const BitVec word = bank.sample_toggles(0.97, rng);
  EXPECT_EQ(bank.sample_toggle_bit(20, 0.97, rng), word.get(20));
  EXPECT_THROW((void)bank.sample_toggle_bit(34, 0.97, rng), slm::Error);
  const std::size_t hw = bank.sample_toggle_hw({1, 18, 33}, 0.97, rng);
  std::size_t expect = 0;
  for (std::size_t b : {1u, 18u, 33u}) {
    if (word.get(b)) ++expect;
  }
  EXPECT_EQ(hw, expect);
}

// The block kernel (pure compute over pre-drawn normals) must be
// bit-identical to per-call sample_toggle_hw on the same stream — SIMD
// lanes and the forced-scalar fallback alike — for plans spanning both
// instances and plans that skip an instance, with uniform and mixed
// capture clocks (the two dispatch branches).
TEST(BenignSensorBank, BlockKernelMatchesPerCallReads) {
  BenignSensorConfig noisy = quiet_cfg();
  noisy.capture.jitter_sigma_ns = 0.05;
  noisy.capture.common_jitter_sigma_ns = 0.08;
  noisy.capture.endpoint_skew_sigma_ns = 0.03;
  BenignSensorConfig other = noisy;
  other.seed = noisy.seed ^ 7;

  for (const bool uniform : {true, false}) {
    if (!uniform) other.capture.clock_period_ns += 0.5;
    auto bank = BenignSensorBank{};
    bank.add(make_adder_sensor(16, noisy));
    bank.add(make_adder_sensor(16, other));

    for (const auto& bits :
         {std::vector<std::size_t>{1, 5, 16, 18, 20, 33},
          std::vector<std::size_t>{18, 19, 25}}) {  // instance 0 skipped
      const auto plan = bank.compile_hw_plan(bits);
      ASSERT_GT(plan.draws_per_sample, 0u);
      const std::size_t lanes = 23;  // odd, several traces worth
      std::vector<double> v(lanes);
      for (std::size_t l = 0; l < lanes; ++l) {
        v[l] = 0.90 + 0.005 * static_cast<double>(l);
      }
      Xoshiro256 rng_a(11);
      Xoshiro256 rng_b(11);
      std::vector<double> ya(lanes), yb(lanes), yc(lanes);
      for (std::size_t l = 0; l < lanes; ++l) {
        ya[l] = static_cast<double>(bank.sample_toggle_hw(bits, v[l], rng_a));
      }
      std::vector<double> z(lanes * plan.draws_per_sample);
      FastNormal::instance().fill(rng_b, z.data(), z.size());
      bank.toggle_hw_block(plan, v.data(), lanes, z.data(), yb.data(), true);
      bank.toggle_hw_block(plan, v.data(), lanes, z.data(), yc.data(),
                           false);
      for (std::size_t l = 0; l < lanes; ++l) {
        ASSERT_EQ(yb[l], ya[l]) << "simd lane " << l;
        ASSERT_EQ(yc[l], ya[l]) << "scalar lane " << l;
      }
      // Same stream position afterwards: the per-call reads consumed the
      // draw count the pre-drawn slab holds.
      EXPECT_EQ(rng_a.next(), rng_b.next());
    }
  }
}

// The capture's benign-HW read-out (two fill_lanes, the env add,
// toggle_hw_block) against per-call reads on the same streams: for each
// lane, a copy of its stream draws every sample's env-noise normal, then
// sample_toggle_hw reads each sample at v + (0.0 + env * z). Readings
// and final stream states must match byte for byte at every runnable
// level, for lane counts around the four-lane groups, on streams of a
// range that starts off a multiple of four.
void expect_lanes_match_per_call(const BenignSensorBank& bank,
                                 const std::vector<std::size_t>& bits,
                                 double v_lo, const std::string& what) {
  const auto plan = bank.compile_hw_plan(bits);
  constexpr std::size_t kSamples = 8;
  constexpr double kEnv = 0.0015;
  constexpr std::uint64_t kFirstTrace = 4099;
  std::vector<DispatchLevel> levels{DispatchLevel::kScalar};
  if (detect_dispatch() >= DispatchLevel::kAvx2) {
    levels.push_back(DispatchLevel::kAvx2);
  }
  for (const std::size_t lanes : {1, 3, 4, 5, 63, 64, 65}) {
    std::vector<Xoshiro256> start;
    std::vector<double> v(lanes * kSamples);
    for (std::size_t l = 0; l < lanes; ++l) {
      start.push_back(
          Xoshiro256::trace_stream(0x51, kTraceDomainCapture, kFirstTrace + l));
      for (int i = 0; i < 16; ++i) (void)start.back().next();  // plaintext
      for (std::size_t s = 0; s < kSamples; ++s) {
        v[l * kSamples + s] =
            v_lo + 0.0007 * static_cast<double>((l * 7 + s * 3) % 17);
      }
    }
    std::vector<double> want(lanes * kSamples);
    std::vector<Xoshiro256> want_rng = start;
    for (std::size_t l = 0; l < lanes; ++l) {
      double noisy[kSamples];
      for (std::size_t s = 0; s < kSamples; ++s) {
        noisy[s] = v[l * kSamples + s] +
                   (0.0 + kEnv * FastNormal::instance()(want_rng[l]));
      }
      for (std::size_t s = 0; s < kSamples; ++s) {
        want[l * kSamples + s] = static_cast<double>(
            bank.sample_toggle_hw(bits, noisy[s], want_rng[l]));
      }
    }
    for (const DispatchLevel level : levels) {
      const std::string at = what + " lanes " + std::to_string(lanes) + " " +
                             dispatch_level_name(level);
      std::vector<Xoshiro256> rng = start;
      const std::size_t n = lanes * kSamples;
      const std::size_t dps = plan.draws_per_sample;
      std::vector<double> zv(n), z(n * dps), vn = v, y(n, -1.0);
      const FastNormal& normal = FastNormal::instance();
      normal.fill_lanes(rng.data(), lanes, zv.data(), kSamples, kSamples,
                        level);
      normal.fill_lanes(rng.data(), lanes, z.data(), kSamples * dps,
                        kSamples * dps, level);
      for (std::size_t i = 0; i < n; ++i) vn[i] += 0.0 + kEnv * zv[i];
      bank.toggle_hw_block(plan, vn.data(), n, z.data(), y.data(),
                           level != DispatchLevel::kScalar);
      ASSERT_EQ(std::memcmp(y.data(), want.data(), y.size() * sizeof(double)),
                0)
          << at;
      for (std::size_t l = 0; l < lanes; ++l) {
        ASSERT_EQ(rng[l].state(), want_rng[l].state()) << at << " lane " << l;
      }
    }
  }
}

TEST(BenignSensorBank, CaptureReadMatchesPerCallReads) {
  const auto cal = core::Calibration::paper_defaults();
  {
    // The ALU campaign plan: one part, linear endpoints.
    const core::AttackSetup alu(core::BenignCircuit::kAlu, cal);
    expect_lanes_match_per_call(alu.sensor(), {115, 116, 118, 120}, 0.970,
                                "alu");
  }
  {
    // Two C6288 instances, bits in both, among them toggle-heavy
    // (gridded) endpoints.
    const core::AttackSetup c6288(core::BenignCircuit::kC6288x2, cal);
    const std::vector<std::size_t> bits{18, 19, 27, 28, 29, 30,
                                        31, 50, 51, 60, 62, 63};
    const BenignSensorBank& bank = c6288.sensor();
    ASSERT_EQ(bank.instance_count(), 2u);
    std::size_t most_toggles = 0;
    for (const std::size_t b : bits) {
      const std::size_t n0 = bank.instance(0).endpoint_count();
      const BenignSensor& s = bank.instance(b < n0 ? 0 : 1);
      most_toggles = std::max(
          most_toggles, s.transition()
                            .endpoint_waveforms[b < n0 ? b : b - n0]
                            .toggle_count());
    }
    ASSERT_GT(most_toggles, 16u) << "no gridded endpoint in the plan";
    expect_lanes_match_per_call(bank, bits, 0.964, "c6288x2");
  }
  {
    // Two adders on different capture clocks: no shared division.
    BenignSensorConfig noisy = quiet_cfg();
    noisy.capture.jitter_sigma_ns = 0.05;
    noisy.capture.common_jitter_sigma_ns = 0.08;
    noisy.capture.endpoint_skew_sigma_ns = 0.03;
    BenignSensorConfig other = noisy;
    other.seed = noisy.seed ^ 7;
    other.capture.clock_period_ns += 0.5;
    BenignSensorBank bank;
    bank.add(make_adder_sensor(16, noisy));
    bank.add(make_adder_sensor(16, other));
    ASSERT_FALSE(bank.compile_hw_plan({1, 5, 18, 20, 33}).uniform_clock);
    expect_lanes_match_per_call(bank, {1, 5, 18, 20, 33}, 0.90,
                                "non-uniform clock");
  }
}

TEST(BenignSensorBank, EmptyBankRejected) {
  BenignSensorBank bank;
  Xoshiro256 rng(1);
  EXPECT_THROW((void)bank.sample_toggles(1.0, rng), slm::Error);
  EXPECT_THROW(bank.add(nullptr), slm::Error);
}

}  // namespace
}  // namespace slm::sensors
