#include "sensors/tdc.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace slm::sensors {
namespace {

TdcConfig quiet_cfg() {
  TdcConfig cfg;
  cfg.stages = 64;
  cfg.stage_delay_ns = 0.05;
  cfg.window_ns = 32 * 0.05;
  cfg.delay = timing::VoltageDelayModel{1.0, 2.0};
  cfg.noise_lsb = 0.0;
  return cfg;
}

TEST(Tdc, IdleDepthMidScale) {
  TdcSensor tdc(quiet_cfg());
  EXPECT_NEAR(tdc.idle_depth(), 32.0, 1e-12);
}

TEST(Tdc, DepthDecreasesWithDroop) {
  TdcSensor tdc(quiet_cfg());
  EXPECT_LT(tdc.depth(0.9), tdc.depth(1.0));
  EXPECT_GT(tdc.depth(1.05), tdc.depth(1.0));
  // Exactly inverse in the delay factor.
  EXPECT_NEAR(tdc.depth(0.9), 32.0 / 1.2, 1e-9);
}

TEST(Tdc, SampleClampedToStages) {
  TdcSensor tdc(quiet_cfg());
  Xoshiro256 rng(1);
  // Massive overshoot: depth would exceed the line length.
  EXPECT_EQ(tdc.sample(2.0, rng), 64u);
  // Massive droop cannot go below zero.
  EXPECT_GE(tdc.sample(0.2, rng), 0u);
}

TEST(Tdc, ThermometerWordConsistent) {
  TdcSensor tdc(quiet_cfg());
  Xoshiro256 rng(2);
  const auto word = tdc.sample_word(0.95, rng);
  const double depth = tdc.depth(0.95);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(word.get(i), depth > static_cast<double>(i)) << "stage " << i;
  }
}

// On the same draw, word bit k and the single-bit read of stage k agree,
// at noisy depths just inside (k, k + 1) where floor(depth) would drop
// bit k. The voltage puts the noise-free depth at k + 0.5 and the noise
// moves it by at most a few hundredths.
TEST(Tdc, WordBitMatchesSingleBitOnTheSameDraw) {
  TdcConfig cfg = quiet_cfg();
  cfg.noise_lsb = 0.01;
  const TdcSensor tdc(cfg);
  for (std::size_t k = 0; k + 1 < cfg.stages; ++k) {
    // depth(v) = 32 / factor(v), factor(v) = 1 + 2 (1 - v).
    const double target = static_cast<double>(k) + 0.5;
    const double v = 1.0 - (32.0 / target - 1.0) / 2.0;
    ASSERT_NEAR(tdc.depth(v), target, 1e-9);
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
      Xoshiro256 word_rng(seed);
      Xoshiro256 bit_rng(seed);
      const BitVec word = tdc.sample_word(v, word_rng);
      const double z = FastNormal::instance()(bit_rng);
      for (const std::size_t i : {k, k + 1}) {
        EXPECT_EQ(word.get(i), tdc.sample_bit_from_draw(i, v, z))
            << "stage " << i << " at depth " << target;
      }
      EXPECT_TRUE(word.get(k)) << "stage " << k;
      EXPECT_FALSE(word.get(k + 1)) << "stage " << k + 1;
      EXPECT_EQ(word_rng.state(), bit_rng.state()) << "one draw per word";
    }
  }
}

TEST(Tdc, SingleBitThreshold) {
  TdcSensor tdc(quiet_cfg());
  Xoshiro256 rng(3);
  // Idle depth 32: stage 31 is passed, stage 32 is not (32 > 32 false).
  EXPECT_TRUE(tdc.sample_bit(31, 1.0, rng));
  EXPECT_FALSE(tdc.sample_bit(32, 1.0, rng));
  EXPECT_THROW((void)tdc.sample_bit(64, 1.0, rng), slm::Error);
}

TEST(Tdc, NoiseMakesBoundaryBitFluctuate) {
  TdcConfig cfg = quiet_cfg();
  cfg.noise_lsb = 0.5;
  TdcSensor tdc(cfg);
  Xoshiro256 rng(4);
  int ones = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (tdc.sample_bit(32, 1.0, rng)) ++ones;  // exactly at idle depth
  }
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.5, 0.03);
}

TEST(Tdc, ReadingVarianceGrowsWithNoise) {
  TdcConfig cfg = quiet_cfg();
  cfg.noise_lsb = 1.0;
  TdcSensor noisy(cfg);
  TdcSensor quiet(quiet_cfg());
  Xoshiro256 rng(5);
  OnlineMeanVar nv, qv;
  for (int i = 0; i < 5000; ++i) {
    nv.add(noisy.sample(1.0, rng));
    qv.add(quiet.sample(1.0, rng));
  }
  EXPECT_GT(nv.variance(), qv.variance());
  EXPECT_NEAR(nv.mean(), 31.5, 0.5);  // floor() of 32 + symmetric noise
}

TEST(Tdc, ConfigValidation) {
  TdcConfig bad = quiet_cfg();
  bad.stages = 1;
  EXPECT_THROW(TdcSensor t(bad), slm::Error);
  bad = quiet_cfg();
  bad.window_ns = 0.0;
  EXPECT_THROW(TdcSensor t(bad), slm::Error);
}

}  // namespace
}  // namespace slm::sensors
