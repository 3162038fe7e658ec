#include "sca/cpa.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "fold_reference.hpp"
#include "sca/model.hpp"

namespace slm::sca {
namespace {

TEST(CpaEngine, MatchesOnlineCorrelation) {
  Xoshiro256 rng(1);
  CpaEngine engine(4, 2);
  std::vector<OnlineCorrelation> ref(8);  // guess-major [k*2+s]
  for (int t = 0; t < 5000; ++t) {
    std::vector<std::uint8_t> h(4);
    for (auto& b : h) b = rng.coin() ? 1 : 0;
    // Integer-valued readings, as the engine contract requires.
    std::vector<double> y{
        static_cast<double>(h[0] * 3 + rng.uniform_int(9)),
        static_cast<double>(h[2] * 2 + rng.uniform_int(9))};
    engine.add_trace(h, y);
    for (int k = 0; k < 4; ++k) {
      for (int s = 0; s < 2; ++s) {
        ref[k * 2 + s].add(h[k], y[s]);
      }
    }
  }
  for (std::size_t k = 0; k < 4; ++k) {
    for (std::size_t s = 0; s < 2; ++s) {
      EXPECT_NEAR(engine.correlation(k, s), ref[k * 2 + s].correlation(),
                  1e-10);
    }
  }
}

TEST(CpaEngine, RecoversInjectedLeakage) {
  Xoshiro256 rng(2);
  CpaEngine engine(16, 3);
  const std::size_t secret = 11;
  for (int t = 0; t < 20000; ++t) {
    std::vector<std::uint8_t> h(16);
    for (auto& b : h) b = rng.coin() ? 1 : 0;
    // Sample 1 leaks the secret guess's hypothesis (integer counts,
    // like a TDC reading with a data-dependent depth shift).
    std::vector<double> y{
        static_cast<double>(rng.uniform_int(32)),
        static_cast<double>(h[secret] * 4 + rng.uniform_int(32)),
        static_cast<double>(rng.uniform_int(32))};
    engine.add_trace(h, y);
  }
  EXPECT_EQ(engine.best_guess(), secret);
  EXPECT_EQ(engine.rank_of(secret), 0u);
  const auto corr = engine.max_abs_correlation();
  EXPECT_GT(corr[secret], 0.1);
}

TEST(CpaEngine, NegativeLeakageFoundViaAbs) {
  Xoshiro256 rng(3);
  CpaEngine engine(8, 1);
  const std::size_t secret = 5;
  for (int t = 0; t < 20000; ++t) {
    std::vector<std::uint8_t> h(8);
    for (auto& b : h) b = rng.coin() ? 1 : 0;
    std::vector<double> y{
        static_cast<double>(rng.uniform_int(32)) - 4.0 * h[secret]};
    engine.add_trace(h, y);
  }
  EXPECT_EQ(engine.best_guess(), secret);
  EXPECT_LT(engine.correlation(secret, 0), 0.0);
}

TEST(CpaEngine, FewTracesGiveZero) {
  CpaEngine engine(2, 1);
  EXPECT_EQ(engine.correlation(0, 0), 0.0);
  engine.add_trace({1, 0}, {1.0});
  EXPECT_EQ(engine.correlation(0, 0), 0.0);
}

TEST(CpaEngine, ConstantHypothesisGivesZero) {
  CpaEngine engine(2, 1);
  for (int t = 0; t < 100; ++t) {
    engine.add_trace({1, 0}, {static_cast<double>(t % 7)});
  }
  EXPECT_EQ(engine.correlation(0, 0), 0.0);  // h constant 1
  EXPECT_EQ(engine.correlation(1, 0), 0.0);  // h constant 0
}

TEST(CpaEngine, Validation) {
  EXPECT_THROW(CpaEngine engine(0, 1), slm::Error);
  CpaEngine engine(2, 2);
  EXPECT_THROW(engine.add_trace({1}, {1.0, 2.0}), slm::Error);
  EXPECT_THROW(engine.add_trace({1, 0}, {1.0}), slm::Error);
  EXPECT_THROW((void)engine.correlation(2, 0), slm::Error);
  EXPECT_THROW((void)engine.rank_of(9), slm::Error);
}

// The integer-exact contract is enforced, not assumed: non-integer or
// out-of-range readings are refused before any accumulator is touched.
TEST(CpaEngine, IntegerContractEnforced) {
  CpaEngine engine(2, 2);
  EXPECT_THROW(engine.add_trace({1, 0}, {0.5, 1.0}), slm::Error);
  EXPECT_THROW(engine.add_trace({1, 0}, {1.0, 2097152.0}), slm::Error);
  EXPECT_EQ(engine.trace_count(), 0u);
  engine.add_trace({1, 0}, {1048576.0, -1048576.0});  // |y| = 2^20 is in range
  EXPECT_EQ(engine.trace_count(), 1u);
}

// N shard engines fed round-robin must merge to the exact serial
// engine. Measurements are integer-valued (as every campaign sensor
// mode produces), so the running sums are exact regardless of addition
// order and the equality is bit-for-bit.
TEST(CpaEngine, ShardsMergeToSerialBitForBit) {
  constexpr std::size_t kGuesses = 16;
  constexpr std::size_t kSamples = 5;
  constexpr std::size_t kShards = 4;
  constexpr int kTraces = 3000;

  Xoshiro256 rng(7);
  CpaEngine serial(kGuesses, kSamples);
  std::vector<CpaEngine> shards(kShards, CpaEngine(kGuesses, kSamples));
  for (int t = 0; t < kTraces; ++t) {
    std::vector<std::uint8_t> h(kGuesses);
    for (auto& b : h) b = rng.coin() ? 1 : 0;
    std::vector<double> y(kSamples);
    for (auto& v : y) {
      // Integer-valued like a TDC reading or a Hamming weight.
      v = static_cast<double>(rng.uniform_int(64)) + h[3];
    }
    serial.add_trace(h, y);
    shards[static_cast<std::size_t>(t) % kShards].add_trace(h, y);
  }

  CpaEngine merged(kGuesses, kSamples);
  for (const auto& s : shards) merged.merge(s);

  ASSERT_EQ(merged.trace_count(), serial.trace_count());
  for (std::size_t k = 0; k < kGuesses; ++k) {
    for (std::size_t s = 0; s < kSamples; ++s) {
      EXPECT_EQ(merged.correlation(k, s), serial.correlation(k, s))
          << "guess " << k << " sample " << s;
    }
  }
  EXPECT_EQ(merged.max_abs_correlation(), serial.max_abs_correlation());
  EXPECT_EQ(merged.best_guess(), serial.best_guess());
}

TEST(CpaEngine, MergeEmptyIsIdentity) {
  Xoshiro256 rng(8);
  CpaEngine engine(4, 2);
  for (int t = 0; t < 50; ++t) {
    std::vector<std::uint8_t> h(4);
    for (auto& b : h) b = rng.coin() ? 1 : 0;
    engine.add_trace(h, {1.0 * h[0], 2.0});
  }
  const auto before = engine.max_abs_correlation();
  engine.merge(CpaEngine(4, 2));
  EXPECT_EQ(engine.trace_count(), 50u);
  EXPECT_EQ(engine.max_abs_correlation(), before);
}

TEST(CpaEngine, MergeValidatesDimensions) {
  CpaEngine engine(4, 2);
  EXPECT_THROW(engine.merge(CpaEngine(4, 3)), slm::Error);
  EXPECT_THROW(engine.merge(CpaEngine(5, 2)), slm::Error);
}

// XorClassCpa bins traces into 512 (v, b) classes and fold() expands
// them back into the full 256-guess sums under h_k = pattern[v ^ k] ^ b.
// With integer-valued readings every sum is exact, so the folded engine
// must equal the trace-by-trace CpaEngine bit-for-bit.
TEST(XorClassCpa, FoldMatchesCpaEngineBitForBit) {
  constexpr std::size_t kSamples = 3;
  constexpr int kTraces = 4000;

  // A random 0/1 pattern table (stand-in for an S-box output bit).
  Xoshiro256 rng(21);
  std::uint8_t pattern[256];
  for (auto& p : pattern) p = rng.coin() ? 1 : 0;

  CpaEngine ref(256, kSamples);
  XorClassCpa classes(kSamples);
  for (int t = 0; t < kTraces; ++t) {
    const auto v = static_cast<std::uint8_t>(rng.uniform_int(256));
    const auto b = static_cast<std::uint8_t>(rng.coin() ? 1 : 0);
    std::vector<double> y(kSamples);
    for (auto& s : y) s = static_cast<double>(rng.uniform_int(48));
    std::vector<std::uint8_t> h(256);
    for (std::size_t k = 0; k < 256; ++k) {
      h[k] = static_cast<std::uint8_t>(pattern[v ^ k] ^ b);
    }
    ref.add_trace(h, y);
    classes.add_trace(v, b, y);
  }

  const CpaEngine folded = classes.fold(pattern);
  ASSERT_EQ(folded.trace_count(), ref.trace_count());
  for (std::size_t k = 0; k < 256; ++k) {
    for (std::size_t s = 0; s < kSamples; ++s) {
      ASSERT_EQ(folded.correlation(k, s), ref.correlation(k, s))
          << "guess " << k << " sample " << s;
    }
  }
  EXPECT_EQ(folded.max_abs_correlation(), ref.max_abs_correlation());
  EXPECT_EQ(folded.best_guess(), ref.best_guess());
}

// Shard-merged class accumulators fold to the same engine as one serial
// accumulator — the merge path the parallel campaign uses.
TEST(XorClassCpa, ShardsMergeThenFoldBitForBit) {
  constexpr std::size_t kSamples = 2;
  constexpr std::size_t kShards = 3;
  constexpr int kTraces = 2000;

  Xoshiro256 rng(22);
  std::uint8_t pattern[256];
  for (auto& p : pattern) p = rng.coin() ? 1 : 0;

  XorClassCpa serial(kSamples);
  std::vector<XorClassCpa> shards(kShards, XorClassCpa(kSamples));
  for (int t = 0; t < kTraces; ++t) {
    const auto v = static_cast<std::uint8_t>(rng.uniform_int(256));
    const auto b = static_cast<std::uint8_t>(rng.coin() ? 1 : 0);
    std::vector<double> y(kSamples);
    for (auto& s : y) s = static_cast<double>(rng.uniform_int(64));
    serial.add_trace(v, b, y);
    shards[static_cast<std::size_t>(t) % kShards].add_trace(v, b, y);
  }

  XorClassCpa merged(kSamples);
  for (const auto& s : shards) merged.merge(s);
  ASSERT_EQ(merged.trace_count(), serial.trace_count());

  const CpaEngine a = merged.fold(pattern);
  const CpaEngine b = serial.fold(pattern);
  EXPECT_EQ(a.max_abs_correlation(), b.max_abs_correlation());
  for (std::size_t k = 0; k < 256; ++k) {
    for (std::size_t s = 0; s < kSamples; ++s) {
      ASSERT_EQ(a.correlation(k, s), b.correlation(k, s));
    }
  }
}

// fold() (a Walsh-Hadamard transform) against the direct 256 x 256 loop
// of tests/sca/fold_reference.hpp, byte for byte, under every bit
// model's pattern. The budgets span an empty accumulator (every class
// empty), a sparse one (most classes empty) and a dense one; readings
// include negatives.
TEST(XorClassCpa, FoldMatchesDirectReferenceForEveryBitModel) {
  constexpr std::size_t kSamples = 5;
  for (const int traces : {0, 1, 40, 3000}) {
    Xoshiro256 rng(23 + static_cast<std::uint64_t>(traces));
    XorClassCpa classes(kSamples);
    for (int t = 0; t < traces; ++t) {
      std::vector<double> y(kSamples);
      for (auto& s : y) s = static_cast<double>(rng.uniform_int(200)) - 90.0;
      classes.add_trace(static_cast<std::uint8_t>(rng.uniform_int(256)),
                        static_cast<std::uint8_t>(rng.coin() ? 1 : 0), y);
    }
    for (std::size_t bit = 0; bit < 8; ++bit) {
      const LastRoundBitModel model(3, bit);
      const CpaEngine folded = classes.fold(model.pattern().data());
      const CpaEngine want =
          reference::fold_reference(classes, model.pattern().data());
      ByteWriter got_bytes, want_bytes;
      folded.save(got_bytes);
      want.save(want_bytes);
      ASSERT_EQ(got_bytes.bytes(), want_bytes.bytes())
          << "traces " << traces << " bit " << bit;
    }
  }
}

TEST(XorClassCpa, Validation) {
  EXPECT_THROW(XorClassCpa c(0), slm::Error);
  XorClassCpa c(2);
  EXPECT_THROW(c.add_trace(0, 2, {1.0, 2.0}), slm::Error);
  EXPECT_THROW(c.add_trace(0, 0, {1.0}), slm::Error);
  EXPECT_THROW(c.merge(XorClassCpa(3)), slm::Error);
}

TEST(SnapshotProgress, RanksAndMargins) {
  Xoshiro256 rng(4);
  CpaEngine engine(4, 1);
  for (int t = 0; t < 10000; ++t) {
    std::vector<std::uint8_t> h(4);
    for (auto& b : h) b = rng.coin() ? 1 : 0;
    engine.add_trace(h, {static_cast<double>(3 * h[2] + rng.uniform_int(16))});
  }
  const auto p = snapshot_progress(engine, 2);
  EXPECT_EQ(p.traces, 10000u);
  EXPECT_EQ(p.best_guess, 2u);
  EXPECT_EQ(p.correct_rank, 0u);
  EXPECT_GT(p.correct_corr, p.best_wrong_corr);
  ASSERT_EQ(p.max_abs_corr.size(), 4u);

  const auto wrong = snapshot_progress(engine, 0);
  EXPECT_GT(wrong.correct_rank, 0u);
}

}  // namespace
}  // namespace slm::sca
