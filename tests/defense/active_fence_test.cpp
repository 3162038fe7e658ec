#include "defense/active_fence.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace slm::defense {
namespace {

TEST(ActiveFence, DisabledIsConstant) {
  ActiveFenceConfig cfg;
  cfg.base_current_a = 0.05;
  cfg.random_current_a = 0.0;
  ActiveFence fence(cfg);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(fence.next_cycle_current(), 0.05);
  }
  EXPECT_DOUBLE_EQ(fence.mean_current_a(), 0.05);
}

// Inverse of an odd multiplier mod 2^64 (Newton: each step doubles the
// correct low bits).
std::uint64_t inverse_odd(std::uint64_t a) {
  std::uint64_t x = a;
  for (int i = 0; i < 6; ++i) x *= 2 - a * x;
  return x;
}

// A stream whose next draw is `word`: xoshiro256**'s output is
// rotl(s1 * 5, 7) * 9, so s1 = rotr(word * 9^-1, 7) * 5^-1.
Xoshiro256 stream_drawing(std::uint64_t word) {
  const std::uint64_t s1 =
      std::rotr(word * inverse_odd(9), 7) * inverse_odd(5);
  Xoshiro256 rng;
  rng.set_state({0x1234, s1, 0x5678, 0x9abc});
  return rng;
}

// A constant fence (random 0) is exactly its base for the extreme draws
// u = 0 and u = 1 - 2^-53: u * 0.0 is +0.0 for every finite u >= 0, and
// base + 0.0 is base. This is what lets the capture block skip the draws
// of a constant fence without changing a bit.
TEST(ActiveFence, ConstantFenceIsBaseForExtremeDraws) {
  for (const double base : {0.05, 0.3, 1e-300, 0.1 + 0.2}) {
    ActiveFenceConfig cfg;
    cfg.base_current_a = base;
    cfg.random_current_a = 0.0;
    const ActiveFence fence(cfg);
    for (const std::uint64_t word : {std::uint64_t{0}, ~std::uint64_t{0}}) {
      Xoshiro256 probe = stream_drawing(word);
      const double u = probe.uniform();
      EXPECT_EQ(u, word == 0 ? 0.0 : 1.0 - 0x1.0p-53);
      Xoshiro256 rng = stream_drawing(word);
      const double c = fence.cycle_current(rng);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(c),
                std::bit_cast<std::uint64_t>(base))
          << "base " << base << " u " << u;
    }
  }
}

TEST(ActiveFence, RandomComponentUniform) {
  ActiveFenceConfig cfg;
  cfg.base_current_a = 0.1;
  cfg.random_current_a = 0.4;
  ActiveFence fence(cfg);
  OnlineMeanVar acc;
  for (int i = 0; i < 50000; ++i) {
    const double c = fence.next_cycle_current();
    ASSERT_GE(c, 0.1);
    ASSERT_LT(c, 0.5);
    acc.add(c);
  }
  EXPECT_NEAR(acc.mean(), fence.mean_current_a(), 0.005);
  EXPECT_NEAR(acc.variance(), 0.4 * 0.4 / 12.0, 0.002);
}

TEST(ActiveFence, DeterministicPerSeed) {
  ActiveFenceConfig cfg;
  cfg.random_current_a = 0.2;
  ActiveFence a(cfg), b(cfg);
  for (int i = 0; i < 64; ++i) {
    EXPECT_DOUBLE_EQ(a.next_cycle_current(), b.next_cycle_current());
  }
}

TEST(ActiveFence, Validation) {
  ActiveFenceConfig bad;
  bad.base_current_a = -1.0;
  EXPECT_THROW(ActiveFence f(bad), slm::Error);
}

}  // namespace
}  // namespace slm::defense
