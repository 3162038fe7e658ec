// Property tests for the fused multi-byte CPA accumulator: every byte
// slice of MultiByteCpa must behave exactly like a standalone XorClassCpa
// fed the same (class value, class bit, readings) stream — fold results
// bit-identical engine state, add_block bit-identical to add_trace for
// ragged block sizes, merge exact for integer readings, and save/load a
// faithful round trip that can keep accumulating. These are the
// invariants the fused full-key engine's equivalence to 16 single-byte
// campaigns stands on (docs/FULLKEY.md, DESIGN.md).
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/binio.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "fold_reference.hpp"
#include "sca/cpa.hpp"
#include "sca/model.hpp"

namespace slm::sca {
namespace {

constexpr std::size_t kBytes = MultiByteCpa::kBytes;

std::vector<std::uint8_t> state_bytes(const CpaEngine& e) {
  ByteWriter w;
  e.save(w);
  return w.bytes();
}

std::vector<std::uint8_t> state_bytes(const MultiByteCpa& m) {
  ByteWriter w;
  m.save(w);
  return w.bytes();
}

// Trace-major label rows (v[t*16+j], b[t*16+j]) plus integer-valued
// readings (negative values included) — the engine contract; exact
// int64 accumulation makes the blocked/merged paths bit-identical.
void random_traces(Xoshiro256& rng, std::size_t samples, std::size_t count,
                   std::vector<std::uint8_t>& v, std::vector<std::uint8_t>& b,
                   std::vector<double>& y) {
  v.resize(count * kBytes);
  b.resize(count * kBytes);
  y.resize(count * samples);
  for (auto& x : v) x = static_cast<std::uint8_t>(rng.uniform_int(256));
  for (auto& x : b) x = rng.coin() ? 1 : 0;
  for (auto& s : y) {
    s = static_cast<double>(rng.uniform_int(96)) - 32.0;
  }
}

TEST(MultiByteCpa, EveryByteFoldsLikeAStandaloneXorClassCpa) {
  constexpr std::size_t kSamples = 5;
  constexpr std::size_t kTraces = 700;
  Xoshiro256 rng(41);
  std::vector<std::uint8_t> v, b;
  std::vector<double> y;
  random_traces(rng, kSamples, kTraces, v, b, y);

  MultiByteCpa mb(kSamples);
  std::vector<XorClassCpa> singles(kBytes, XorClassCpa(kSamples));
  std::vector<double> yt(kSamples);
  for (std::size_t t = 0; t < kTraces; ++t) {
    std::memcpy(yt.data(), y.data() + t * kSamples,
                kSamples * sizeof(double));
    mb.add_trace(v.data() + t * kBytes, b.data() + t * kBytes, yt);
    for (std::size_t j = 0; j < kBytes; ++j) {
      singles[j].add_trace(v[t * kBytes + j], b[t * kBytes + j], yt);
    }
  }
  ASSERT_EQ(mb.trace_count(), kTraces);

  for (std::size_t j = 0; j < kBytes; ++j) {
    std::uint8_t pattern[256];
    for (auto& p : pattern) p = rng.coin() ? 1 : 0;
    const CpaEngine fused = mb.fold(j, pattern);
    const CpaEngine standalone = singles[j].fold(pattern);
    ASSERT_EQ(state_bytes(fused), state_bytes(standalone)) << "byte " << j;
  }
}

// Every byte's fold() (a Walsh-Hadamard transform) against the direct
// 256 x 256 loop of tests/sca/fold_reference.hpp, byte for byte, under
// each of that byte's eight bit models. 60 traces leave most of each
// byte's 512 classes empty; 2000 fill most of them.
TEST(MultiByteCpa, EveryByteFoldMatchesDirectReference) {
  constexpr std::size_t kSamples = 6;
  for (const std::size_t traces : {60ul, 2000ul}) {
    Xoshiro256 rng(45 + traces);
    std::vector<std::uint8_t> v, b;
    std::vector<double> y;
    random_traces(rng, kSamples, traces, v, b, y);
    MultiByteCpa mb(kSamples);
    mb.add_block(v.data(), b.data(), y.data(), traces);
    for (std::size_t j = 0; j < kBytes; ++j) {
      const reference::ClassState st = reference::class_state(mb, j);
      for (std::size_t bit = 0; bit < 8; ++bit) {
        const LastRoundBitModel model(j, bit);
        ASSERT_EQ(state_bytes(mb.fold(j, model.pattern().data())),
                  state_bytes(reference::fold_reference(
                      st, model.pattern().data())))
            << "traces " << traces << " byte " << j << " bit " << bit;
      }
    }
  }
}

// Random rounds draw blocks of at most 70 traces. The table adds block
// sizes on both sides of add_block's 512-trace switch from int64 rows to
// int32 class tiles and around the tile's 2047-trace sub-block
// (sca/fold_kernels.hpp), at widths with and without tile padding:
// kTableTraces traces per block size, a ragged tail included.
TEST(MultiByteCpa, AddBlockMatchesAddTraceBitForBit) {
  constexpr std::size_t kTableBlocks[] = {1,    64,   511,  512,  513,
                                          1023, 1024, 1025, 2047, 2048,
                                          2049, 4096, 5000};
  constexpr std::size_t kTableSamples[] = {1, 7, 8, 13};
  constexpr std::size_t kTableTraces = 10007;
  Xoshiro256 rng(42);
  for (int round = 0; round < 10; ++round) {
    const std::size_t samples = 1 + rng.uniform_int(10);
    const std::size_t traces = 1 + rng.uniform_int(400);
    const std::size_t block = 1 + rng.uniform_int(70);  // rarely divides

    std::vector<std::uint8_t> v, b;
    std::vector<double> y;
    random_traces(rng, samples, traces, v, b, y);

    MultiByteCpa ref(samples);
    std::vector<double> yt(samples);
    for (std::size_t t = 0; t < traces; ++t) {
      std::memcpy(yt.data(), y.data() + t * samples,
                  samples * sizeof(double));
      ref.add_trace(v.data() + t * kBytes, b.data() + t * kBytes, yt);
    }

    MultiByteCpa blocked(samples);
    for (std::size_t t = 0; t < traces; t += block) {
      const std::size_t bn = std::min(block, traces - t);  // ragged tail
      blocked.add_block(v.data() + t * kBytes, b.data() + t * kBytes,
                        y.data() + t * samples, bn);
    }

    ASSERT_EQ(blocked.trace_count(), ref.trace_count());
    ASSERT_EQ(state_bytes(blocked), state_bytes(ref))
        << "round " << round << " samples " << samples << " traces "
        << traces << " block " << block;
  }

  for (const std::size_t samples : kTableSamples) {
    std::vector<std::uint8_t> v, b;
    std::vector<double> y;
    random_traces(rng, samples, kTableTraces, v, b, y);

    MultiByteCpa ref(samples);
    std::vector<double> yt(samples);
    for (std::size_t t = 0; t < kTableTraces; ++t) {
      std::memcpy(yt.data(), y.data() + t * samples,
                  samples * sizeof(double));
      ref.add_trace(v.data() + t * kBytes, b.data() + t * kBytes, yt);
    }
    const auto want = state_bytes(ref);

    for (const std::size_t block : kTableBlocks) {
      MultiByteCpa blocked(samples);
      for (std::size_t t = 0; t < kTableTraces; t += block) {
        const std::size_t bn = std::min(block, kTableTraces - t);
        blocked.add_block(v.data() + t * kBytes, b.data() + t * kBytes,
                          y.data() + t * samples, bn);
      }
      ASSERT_EQ(state_bytes(blocked), want)
          << "samples " << samples << " block " << block;
    }
  }
}

// Shard halves pushed through different block sizes, merged in both
// orders, must fold byte-for-byte like the serial accumulator. Integer
// readings, as in every campaign sensor mode, make the regrouped sums
// exact — the same argument the sharded full-key engine relies on.
TEST(MultiByteCpa, MergedShardsFoldBitForBit) {
  constexpr std::size_t kSamples = 4;
  constexpr std::size_t kTraces = 900;
  Xoshiro256 rng(43);
  std::vector<std::uint8_t> v, b;
  std::vector<double> y;
  random_traces(rng, kSamples, kTraces, v, b, y);

  MultiByteCpa serial(kSamples);
  std::vector<double> yt(kSamples);
  for (std::size_t t = 0; t < kTraces; ++t) {
    std::memcpy(yt.data(), y.data() + t * kSamples,
                kSamples * sizeof(double));
    serial.add_trace(v.data() + t * kBytes, b.data() + t * kBytes, yt);
  }

  const std::size_t mid = kTraces / 2;
  MultiByteCpa lo(kSamples), hi(kSamples);
  for (std::size_t t = 0; t < mid; t += 7) {
    const std::size_t bn = std::min<std::size_t>(7, mid - t);
    lo.add_block(v.data() + t * kBytes, b.data() + t * kBytes,
                 y.data() + t * kSamples, bn);
  }
  for (std::size_t t = mid; t < kTraces; t += 64) {
    const std::size_t bn = std::min<std::size_t>(64, kTraces - t);
    hi.add_block(v.data() + t * kBytes, b.data() + t * kBytes,
                 y.data() + t * kSamples, bn);
  }

  std::uint8_t pattern[256];
  for (auto& p : pattern) p = rng.coin() ? 1 : 0;
  for (const int order : {0, 1}) {
    MultiByteCpa merged(kSamples);
    if (order == 0) {
      merged.merge(lo);
      merged.merge(hi);
    } else {
      merged.merge(hi);
      merged.merge(lo);
    }
    ASSERT_EQ(merged.trace_count(), serial.trace_count());
    for (std::size_t j = 0; j < kBytes; ++j) {
      ASSERT_EQ(state_bytes(merged.fold(j, pattern)),
                state_bytes(serial.fold(j, pattern)))
          << "merge order " << order << " byte " << j;
    }
  }
}

TEST(MultiByteCpa, SaveLoadRoundTripAndContinue) {
  constexpr std::size_t kSamples = 3;
  constexpr std::size_t kTraces = 300;
  Xoshiro256 rng(44);
  std::vector<std::uint8_t> v, b;
  std::vector<double> y;
  random_traces(rng, kSamples, kTraces, v, b, y);

  MultiByteCpa whole(kSamples);
  MultiByteCpa first(kSamples);
  std::vector<double> yt(kSamples);
  const std::size_t mid = kTraces / 2;
  for (std::size_t t = 0; t < kTraces; ++t) {
    std::memcpy(yt.data(), y.data() + t * kSamples,
                kSamples * sizeof(double));
    whole.add_trace(v.data() + t * kBytes, b.data() + t * kBytes, yt);
    if (t < mid) {
      first.add_trace(v.data() + t * kBytes, b.data() + t * kBytes, yt);
    }
  }

  ByteWriter snap;
  first.save(snap);
  MultiByteCpa restored(kSamples);
  ByteReader in(snap.bytes().data(), snap.bytes().size());
  restored.load(in);
  EXPECT_TRUE(in.done());
  EXPECT_EQ(restored.trace_count(), mid);
  EXPECT_EQ(state_bytes(restored), state_bytes(first));

  for (std::size_t t = mid; t < kTraces; ++t) {
    std::memcpy(yt.data(), y.data() + t * kSamples,
                kSamples * sizeof(double));
    restored.add_trace(v.data() + t * kBytes, b.data() + t * kBytes, yt);
  }
  EXPECT_EQ(state_bytes(restored), state_bytes(whole));
}

TEST(MultiByteCpa, Validation) {
  MultiByteCpa m(2);
  std::uint8_t v[kBytes] = {};
  std::uint8_t bad[kBytes] = {};
  bad[5] = 2;  // class bit must be 0/1
  const std::vector<double> y = {1.0, 2.0};
  EXPECT_THROW(m.add_trace(v, bad, y), slm::Error);
  const double yb[4] = {1.0, 2.0, 3.0, 4.0};
  EXPECT_THROW(m.add_block(v, bad, yb, 1), slm::Error);
}

}  // namespace
}  // namespace slm::sca
