// Property tests for the cache-blocked CPA accumulators (DESIGN.md §11):
// CpaEngine::add_traces and XorClassCpa::add_block must be bit-identical
// to the equivalent sequence of per-trace add_trace calls — for random
// dimensions and random block sizes (including ragged tails and block
// 1). Readings are integer-valued (negative values included), which is
// the engine contract: the int64 accumulators make any regrouping
// exact, so blocked, per-trace, and merged paths all land on the same
// bits. Dispatch-level invariance is pinned by fold_dispatch_test.
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/binio.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "sca/cpa.hpp"

namespace slm::sca {
namespace {

std::vector<std::uint8_t> state_bytes(const CpaEngine& e) {
  ByteWriter w;
  e.save(w);
  return w.bytes();
}

std::vector<std::uint8_t> state_bytes(const XorClassCpa& c) {
  ByteWriter w;
  c.save(w);
  return w.bytes();
}

// Fill a trace-major hypothesis/reading block with integer-valued
// readings, negatives included (the engine contract).
void random_traces(Xoshiro256& rng, std::size_t guesses, std::size_t samples,
                   std::size_t count, std::vector<std::uint8_t>& h,
                   std::vector<double>& y) {
  h.resize(count * guesses);
  y.resize(count * samples);
  for (auto& b : h) b = rng.coin() ? 1 : 0;
  for (auto& s : y) s = static_cast<double>(rng.uniform_int(64)) - 24.0;
}

TEST(CpaEngineBlock, AddTracesMatchesAddTraceBitForBit) {
  Xoshiro256 rng(31);
  for (int round = 0; round < 12; ++round) {
    const std::size_t guesses = 1 + rng.uniform_int(40);
    const std::size_t samples = 1 + rng.uniform_int(12);
    const std::size_t traces = 1 + rng.uniform_int(300);
    const std::size_t block = 1 + rng.uniform_int(50);  // rarely divides

    std::vector<std::uint8_t> h;
    std::vector<double> y;
    random_traces(rng, guesses, samples, traces, h, y);

    CpaEngine ref(guesses, samples);
    std::vector<std::uint8_t> ht(guesses);
    std::vector<double> yt(samples);
    for (std::size_t t = 0; t < traces; ++t) {
      std::memcpy(ht.data(), h.data() + t * guesses, guesses);
      std::memcpy(yt.data(), y.data() + t * samples,
                  samples * sizeof(double));
      ref.add_trace(ht, yt);
    }

    CpaEngine blocked(guesses, samples);
    for (std::size_t t = 0; t < traces; t += block) {
      const std::size_t bn = std::min(block, traces - t);  // ragged tail
      blocked.add_traces(h.data() + t * guesses, y.data() + t * samples, bn);
    }

    ASSERT_EQ(blocked.trace_count(), ref.trace_count());
    ASSERT_EQ(state_bytes(blocked), state_bytes(ref))
        << "round " << round << " guesses " << guesses << " samples "
        << samples << " traces " << traces << " block " << block;
  }
}

TEST(CpaEngineBlock, BlockOneAndEmptyAreDegenerate) {
  Xoshiro256 rng(32);
  std::vector<std::uint8_t> h;
  std::vector<double> y;
  random_traces(rng, 8, 3, 20, h, y);

  CpaEngine ref(8, 3);
  CpaEngine one(8, 3);
  std::vector<std::uint8_t> ht(8);
  std::vector<double> yt(3);
  for (std::size_t t = 0; t < 20; ++t) {
    std::memcpy(ht.data(), h.data() + t * 8, 8);
    std::memcpy(yt.data(), y.data() + t * 3, 3 * sizeof(double));
    ref.add_trace(ht, yt);
    one.add_traces(h.data() + t * 8, y.data() + t * 3, 1);
  }
  one.add_traces(h.data(), y.data(), 0);  // no-op
  EXPECT_EQ(state_bytes(one), state_bytes(ref));
}

// Random rounds draw blocks of at most 70 traces. The table adds block
// sizes on both sides of add_block's 512-trace switch from int64 rows to
// int32 class tiles and around the tile's 2047-trace sub-block
// (sca/fold_kernels.hpp), at widths with and without tile padding:
// kTableTraces traces per block size, a ragged tail included.
constexpr std::size_t kTableBlocks[] = {1,    64,   511,  512,  513,
                                        1023, 1024, 1025, 2047, 2048,
                                        2049, 4096, 5000};
constexpr std::size_t kTableSamples[] = {1, 7, 8, 13};
constexpr std::size_t kTableTraces = 10007;

TEST(XorClassCpaBlock, AddBlockMatchesAddTraceBitForBit) {
  Xoshiro256 rng(33);
  for (int round = 0; round < 12; ++round) {
    const std::size_t samples = 1 + rng.uniform_int(10);
    const std::size_t traces = 1 + rng.uniform_int(400);
    const std::size_t block = 1 + rng.uniform_int(70);

    std::vector<std::uint8_t> v(traces), b(traces);
    std::vector<double> y(traces * samples);
    for (auto& x : v) x = static_cast<std::uint8_t>(rng.uniform_int(256));
    for (auto& x : b) x = rng.coin() ? 1 : 0;
    for (auto& s : y) s = static_cast<double>(rng.uniform_int(128)) - 48.0;

    XorClassCpa ref(samples);
    std::vector<double> yt(samples);
    for (std::size_t t = 0; t < traces; ++t) {
      std::memcpy(yt.data(), y.data() + t * samples,
                  samples * sizeof(double));
      ref.add_trace(v[t], b[t], yt);
    }

    XorClassCpa blocked(samples);
    for (std::size_t t = 0; t < traces; t += block) {
      const std::size_t bn = std::min(block, traces - t);
      blocked.add_block(v.data() + t, b.data() + t, y.data() + t * samples,
                        bn);
    }

    ASSERT_EQ(blocked.trace_count(), ref.trace_count());
    ASSERT_EQ(state_bytes(blocked), state_bytes(ref))
        << "round " << round << " samples " << samples << " traces "
        << traces << " block " << block;
  }

  for (const std::size_t samples : kTableSamples) {
    std::vector<std::uint8_t> v(kTableTraces), b(kTableTraces);
    std::vector<double> y(kTableTraces * samples);
    for (auto& x : v) x = static_cast<std::uint8_t>(rng.uniform_int(256));
    for (auto& x : b) x = rng.coin() ? 1 : 0;
    for (auto& s : y) s = static_cast<double>(rng.uniform_int(2001)) - 1000.0;

    XorClassCpa ref(samples);
    std::vector<double> yt(samples);
    for (std::size_t t = 0; t < kTableTraces; ++t) {
      std::memcpy(yt.data(), y.data() + t * samples,
                  samples * sizeof(double));
      ref.add_trace(v[t], b[t], yt);
    }
    const auto want = state_bytes(ref);

    for (const std::size_t block : kTableBlocks) {
      XorClassCpa blocked(samples);
      for (std::size_t t = 0; t < kTableTraces; t += block) {
        const std::size_t bn = std::min(block, kTableTraces - t);
        blocked.add_block(v.data() + t, b.data() + t, y.data() + t * samples,
                          bn);
      }
      ASSERT_EQ(state_bytes(blocked), want)
          << "samples " << samples << " block " << block;
    }
  }
}

// Shards fed through add_block with *different* block sizes, merged in
// shuffled order, must fold to the same engine as the serial per-trace
// accumulator. Integer-valued readings, as in every campaign sensor
// mode, make the regrouped class sums exact.
TEST(XorClassCpaBlock, BlockedShardsMergeThenFoldBitForBit) {
  constexpr std::size_t kSamples = 4;
  constexpr std::size_t kShards = 3;
  constexpr std::size_t kTraces = 1800;
  const std::size_t shard_block[kShards] = {1, 7, 64};

  Xoshiro256 rng(34);
  std::uint8_t pattern[256];
  for (auto& p : pattern) p = rng.coin() ? 1 : 0;

  std::vector<std::uint8_t> v(kTraces), b(kTraces);
  std::vector<double> y(kTraces * kSamples);
  for (auto& x : v) x = static_cast<std::uint8_t>(rng.uniform_int(256));
  for (auto& x : b) x = rng.coin() ? 1 : 0;
  for (auto& s : y) s = static_cast<double>(rng.uniform_int(96));

  XorClassCpa serial(kSamples);
  std::vector<double> yt(kSamples);
  for (std::size_t t = 0; t < kTraces; ++t) {
    std::memcpy(yt.data(), y.data() + t * kSamples,
                kSamples * sizeof(double));
    serial.add_trace(v[t], b[t], yt);
  }

  // Contiguous shard segments, each pushed through its own block size.
  std::vector<XorClassCpa> shards(kShards, XorClassCpa(kSamples));
  const std::size_t seg = kTraces / kShards;
  for (std::size_t sh = 0; sh < kShards; ++sh) {
    const std::size_t lo = sh * seg;
    const std::size_t hi = (sh + 1 == kShards) ? kTraces : lo + seg;
    for (std::size_t t = lo; t < hi; t += shard_block[sh]) {
      const std::size_t bn = std::min(shard_block[sh], hi - t);
      shards[sh].add_block(v.data() + t, b.data() + t,
                           y.data() + t * kSamples, bn);
    }
  }

  for (const std::size_t order : {0u, 1u}) {
    XorClassCpa merged(kSamples);
    if (order == 0) {
      for (std::size_t sh = 0; sh < kShards; ++sh) merged.merge(shards[sh]);
    } else {
      for (std::size_t sh = kShards; sh-- > 0;) merged.merge(shards[sh]);
    }
    ASSERT_EQ(merged.trace_count(), serial.trace_count());
    const CpaEngine a = merged.fold(pattern);
    const CpaEngine c = serial.fold(pattern);
    EXPECT_EQ(state_bytes(a), state_bytes(c)) << "merge order " << order;
  }
}

TEST(XorClassCpaBlock, Validation) {
  XorClassCpa c(2);
  const std::uint8_t v[2] = {0, 1};
  const std::uint8_t bad_b[2] = {0, 2};
  const double y[4] = {1.0, 2.0, 3.0, 4.0};
  EXPECT_THROW(c.add_block(v, bad_b, y, 2), slm::Error);
}

}  // namespace
}  // namespace slm::sca
