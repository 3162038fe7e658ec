#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/dispatch.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"

namespace slm {
namespace {

TEST(Xoshiro, Deterministic) {
  Xoshiro256 a(42);
  Xoshiro256 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro, DifferentSeedsDiffer) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Xoshiro, UniformInUnitInterval) {
  Xoshiro256 rng(7);
  OnlineMeanVar acc;
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    acc.add(u);
  }
  EXPECT_NEAR(acc.mean(), 0.5, 0.01);
  EXPECT_NEAR(acc.variance(), 1.0 / 12.0, 0.005);
}

TEST(Xoshiro, UniformRange) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    ASSERT_GE(u, -3.0);
    ASSERT_LT(u, 5.0);
  }
}

TEST(Xoshiro, UniformIntBounded) {
  Xoshiro256 rng(11);
  std::array<int, 10> counts{};
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t k = rng.uniform_int(10);
    ASSERT_LT(k, 10u);
    counts[k]++;
  }
  for (int c : counts) EXPECT_NEAR(c, 10000, 600);
}

TEST(Xoshiro, UniformIntZeroIsZero) {
  Xoshiro256 rng(1);
  EXPECT_EQ(rng.uniform_int(0), 0u);
  EXPECT_EQ(rng.uniform_int(1), 0u);
}

TEST(Xoshiro, ForkIsIndependentStream) {
  Xoshiro256 a(5);
  Xoshiro256 b = a.fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(FastNormal, MomentsMatchStandardNormal) {
  Xoshiro256 rng(13);
  const auto& normal = FastNormal::instance();
  OnlineMeanVar acc;
  for (int i = 0; i < 200000; ++i) acc.add(normal(rng));
  EXPECT_NEAR(acc.mean(), 0.0, 0.01);
  EXPECT_NEAR(acc.stddev(), 1.0, 0.02);
}

TEST(FastNormal, TailFractions) {
  Xoshiro256 rng(17);
  const auto& normal = FastNormal::instance();
  const int n = 200000;
  int beyond1 = 0, beyond2 = 0;
  for (int i = 0; i < n; ++i) {
    const double x = std::abs(normal(rng));
    if (x > 1.0) ++beyond1;
    if (x > 2.0) ++beyond2;
  }
  EXPECT_NEAR(static_cast<double>(beyond1) / n, 0.3173, 0.01);
  EXPECT_NEAR(static_cast<double>(beyond2) / n, 0.0455, 0.005);
}

TEST(FastNormal, MeanSigmaScaling) {
  Xoshiro256 rng(19);
  const auto& normal = FastNormal::instance();
  OnlineMeanVar acc;
  for (int i = 0; i < 100000; ++i) acc.add(normal(rng, 10.0, 3.0));
  EXPECT_NEAR(acc.mean(), 10.0, 0.05);
  EXPECT_NEAR(acc.stddev(), 3.0, 0.05);
}

std::vector<DispatchLevel> runnable_levels() {
  std::vector<DispatchLevel> out{DispatchLevel::kScalar};
  if (detect_dispatch() >= DispatchLevel::kSse2) {
    out.push_back(DispatchLevel::kSse2);
  }
  if (detect_dispatch() >= DispatchLevel::kAvx2) {
    out.push_back(DispatchLevel::kAvx2);
  }
  return out;
}

// RAII guard: force one level for a scope, always restore auto after.
struct ForcedLevel {
  explicit ForcedLevel(DispatchLevel level) {
    force_dispatch_for_testing(level);
  }
  ~ForcedLevel() { clear_forced_dispatch_for_testing(); }
};

// Lane counts around the AVX2 entries' four-lane groups, and draw counts
// around their four-draw (normals) and eight-draw (bytes) steps.
constexpr std::size_t kLaneCounts[] = {1, 3, 4, 5, 7, 8, 63, 64};
constexpr std::size_t kDrawCounts[] = {0, 1, 8, 40, 41};

// Distinct, already-advanced lane streams, like a capture block's.
std::vector<Xoshiro256> lane_streams(std::size_t lanes) {
  std::vector<Xoshiro256> out;
  for (std::size_t l = 0; l < lanes; ++l) {
    out.push_back(Xoshiro256::trace_stream(0x5eed, kTraceDomainCapture, l));
    for (std::size_t k = 0; k < l % 3; ++k) out.back().next();
  }
  return out;
}

// Every lane's normals and final state equal FastNormal::fill on its own
// stream, bit for bit, at every runnable level; the stride gap after each
// lane's n values and the space after the last lane stay untouched.
TEST(Rng, FillLanesMatchesFillBitForBit) {
  const FastNormal& normal = FastNormal::instance();
  for (const DispatchLevel level : runnable_levels()) {
    const ForcedLevel forced(level);
    for (const std::size_t lanes : kLaneCounts) {
      for (const std::size_t n : kDrawCounts) {
        const std::size_t stride = n + 3;
        std::vector<Xoshiro256> ref = lane_streams(lanes);
        std::vector<Xoshiro256> got = ref;
        std::vector<double> want(lanes * stride + 4, -7.0);
        std::vector<double> out(want.size(), -7.0);
        for (std::size_t l = 0; l < lanes; ++l) {
          normal.fill(ref[l], want.data() + l * stride, n);
        }
        normal.fill_lanes(got.data(), lanes, out.data(), n, stride,
                          active_dispatch());
        const std::string what = std::string(dispatch_level_name(level)) +
                                 " lanes " + std::to_string(lanes) + " n " +
                                 std::to_string(n);
        EXPECT_EQ(std::memcmp(out.data(), want.data(),
                              out.size() * sizeof(double)),
                  0)
            << what;
        for (std::size_t l = 0; l < lanes; ++l) {
          EXPECT_EQ(got[l].state(), ref[l].state()) << what << " lane " << l;
        }
      }
    }
  }
}

// The byte-draw twin: lane l's i-th byte is the low byte of its stream's
// i-th next(), and each lane's state ends where n next() calls leave it.
TEST(Rng, FillBytesLanesMatchesNextBitForBit) {
  for (const DispatchLevel level : runnable_levels()) {
    const ForcedLevel forced(level);
    for (const std::size_t lanes : kLaneCounts) {
      for (const std::size_t n : kDrawCounts) {
        const std::size_t stride = n + 3;
        std::vector<Xoshiro256> ref = lane_streams(lanes);
        std::vector<Xoshiro256> got = ref;
        std::vector<std::uint8_t> want(lanes * stride + 4, 0xa5);
        std::vector<std::uint8_t> out(want.size(), 0xa5);
        for (std::size_t l = 0; l < lanes; ++l) {
          for (std::size_t i = 0; i < n; ++i) {
            want[l * stride + i] = static_cast<std::uint8_t>(ref[l].next());
          }
        }
        fill_bytes_lanes(got.data(), lanes, out.data(), n, stride,
                         active_dispatch());
        const std::string what = std::string(dispatch_level_name(level)) +
                                 " lanes " + std::to_string(lanes) + " n " +
                                 std::to_string(n);
        EXPECT_EQ(std::memcmp(out.data(), want.data(), out.size()), 0)
            << what;
        for (std::size_t l = 0; l < lanes; ++l) {
          EXPECT_EQ(got[l].state(), ref[l].state()) << what << " lane " << l;
        }
      }
    }
  }
}

TEST(Rng, FillLanesRefusesOverlappingLanes) {
  std::vector<Xoshiro256> rngs = lane_streams(2);
  std::vector<double> out(16);
  std::vector<std::uint8_t> bytes(16);
  EXPECT_THROW(FastNormal::instance().fill_lanes(rngs.data(), 2, out.data(),
                                                 8, 4, DispatchLevel::kScalar),
               Error);
  EXPECT_THROW(fill_bytes_lanes(rngs.data(), 2, bytes.data(), 8, 4,
                                DispatchLevel::kScalar),
               Error);
}

}  // namespace
}  // namespace slm
