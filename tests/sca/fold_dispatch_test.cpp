// Property suite for the runtime-dispatched integer fold kernels
// (sca/fold_kernels.hpp): every dispatch level the CPU can run — scalar,
// SSE2, AVX2 — must produce byte-identical accumulator state and
// identical correlation/t-statistic read-outs over randomized readings
// and block sizes. The scalar level is the oracle; the wider levels are
// only allowed to be faster. The class fold (a Walsh-Hadamard
// transform) must match the direct loop of fold_reference.hpp at every
// level, including at the edge of the overflow budget, and the int32
// class-tile path of add_block must match the int64 class-sum oracle
// there, including at the tile's sub-block bound. Also pins the
// overflow-budget guard: adds that could push the int64 sums past 2^62
// are refused before any accumulator (or input buffer) is touched, and
// load() refuses class state outside the budget.
#include "sca/fold_kernels.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "common/binio.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "fold_reference.hpp"
#include "sca/cpa.hpp"
#include "sca/model.hpp"
#include "sca/tvla.hpp"

namespace slm::sca {
namespace {

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

template <typename Engine>
std::vector<std::uint8_t> state_bytes(const Engine& e) {
  ByteWriter w;
  e.save(w);
  return w.bytes();
}

TEST(FoldDispatch, ReportsRunnableLevels) {
  const auto levels = runnable_levels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), DispatchLevel::kScalar);
  for (const DispatchLevel l : levels) {
    EXPECT_EQ(kernels(l).level, l);
    EXPECT_NE(dispatch_level_name(l), std::string("unknown"));
  }
  // The active level is always runnable.
  EXPECT_LE(active_dispatch(), detect_dispatch());
}

// Raw kernels: dst += src at every level and every length (odd tails
// included) lands on the same bytes as the scalar oracle.
TEST(FoldDispatch, RawKernelsMatchScalarOracle) {
  Xoshiro256 rng(101);
  const auto levels = runnable_levels();
  for (std::size_t n = 1; n <= 37; ++n) {
    std::vector<std::int64_t> src(n), src2(n), base(n), base2(n);
    for (std::size_t i = 0; i < n; ++i) {
      src[i] = static_cast<std::int64_t>(rng.uniform_int(1 << 20)) - (1 << 19);
      src2[i] = src[i] * src[i];
      base[i] = static_cast<std::int64_t>(rng.uniform_int(1 << 20));
      base2[i] = static_cast<std::int64_t>(rng.uniform_int(1 << 20));
    }
    std::vector<std::int64_t> want = base, want2 = base2;
    kernels(DispatchLevel::kScalar).add_i64(want.data(), src.data(), n);
    kernels(DispatchLevel::kScalar)
        .add2_i64(want2.data(), want2.data(), src.data(), src2.data(), 0);
    for (const DispatchLevel l : levels) {
      std::vector<std::int64_t> got = base;
      kernels(l).add_i64(got.data(), src.data(), n);
      ASSERT_EQ(got, want) << "add_i64 level " << dispatch_level_name(l)
                           << " n " << n;
      std::vector<std::int64_t> gy = base, gyy = base2;
      std::vector<std::int64_t> wy = base, wyy = base2;
      kernels(DispatchLevel::kScalar)
          .add2_i64(wy.data(), wyy.data(), src.data(), src2.data(), n);
      kernels(l).add2_i64(gy.data(), gyy.data(), src.data(), src2.data(), n);
      ASSERT_EQ(gy, wy) << "add2_i64 level " << dispatch_level_name(l);
      ASSERT_EQ(gyy, wyy) << "add2_i64 level " << dispatch_level_name(l);
    }
  }
}

// Block kernels: column sums, row scatter, and the staging conversion
// at every level and every (count, n) shape — odd tails included —
// match the scalar oracle byte for byte.
TEST(FoldDispatch, BlockKernelsMatchScalarOracle) {
  Xoshiro256 rng(105);
  const auto levels = runnable_levels();
  for (const std::size_t n : {1ul, 2ul, 3ul, 4ul, 7ul, 16ul, 33ul}) {
    for (const std::size_t count : {1ul, 5ul, 64ul}) {
      std::vector<std::int64_t> y(count * n), yy(count * n);
      std::vector<std::uint32_t> cls(count);
      for (std::size_t i = 0; i < y.size(); ++i) {
        y[i] = static_cast<std::int64_t>(rng.uniform_int(1 << 20)) -
               (1 << 19);
        yy[i] = y[i] * y[i];
      }
      for (auto& c : cls) c = rng.uniform_int(8);
      std::vector<std::int64_t> wy(n, 3), wyy(n, 5), wrows(8 * n, 7);
      kernels(DispatchLevel::kScalar)
          .sum_cols2_i64(wy.data(), wyy.data(), y.data(), yy.data(), count,
                         n);
      kernels(DispatchLevel::kScalar)
          .scatter_rows_i64(wrows.data(), y.data(), cls.data(), count, n);
      for (const DispatchLevel l : levels) {
        std::vector<std::int64_t> gy(n, 3), gyy(n, 5), grows(8 * n, 7);
        kernels(l).sum_cols2_i64(gy.data(), gyy.data(), y.data(), yy.data(),
                                 count, n);
        kernels(l).scatter_rows_i64(grows.data(), y.data(), cls.data(),
                                    count, n);
        ASSERT_EQ(gy, wy) << "sum_cols2 level " << dispatch_level_name(l)
                          << " n " << n << " count " << count;
        ASSERT_EQ(gyy, wyy) << "sum_cols2 level " << dispatch_level_name(l);
        ASSERT_EQ(grows, wrows)
            << "scatter_rows level " << dispatch_level_name(l) << " n " << n
            << " count " << count;
      }
    }
  }
}

// Staging: every level converts the same bytes, and every level refuses
// fractional or out-of-range readings (the AVX2 lane path must fall
// back to the scalar stager for the exact per-element error).
TEST(FoldDispatch, StagingIdenticalAndValidatedAcrossLevels) {
  Xoshiro256 rng(106);
  for (const std::size_t n : {1ul, 3ul, 4ul, 5ul, 8ul, 31ul}) {
    std::vector<double> y(n);
    for (auto& s : y) {
      s = static_cast<double>(rng.uniform_int(1 << 21)) -
          static_cast<double>(1 << 20);
    }
    std::vector<std::int64_t> wi(n), wii(n);
    stage_readings_i64(y.data(), n, wi.data(), wii.data());
    for (const DispatchLevel l : runnable_levels()) {
      std::vector<std::int64_t> gi(n, -1), gii(n, -1);
      kernels(l).stage_i64(y.data(), n, gi.data(), gii.data());
      ASSERT_EQ(gi, wi) << "stage level " << dispatch_level_name(l);
      ASSERT_EQ(gii, wii) << "stage level " << dispatch_level_name(l);

      for (const double bad :
           {0.5, static_cast<double>((1 << 20) + 1), -1048577.0}) {
        std::vector<double> v(n, 1.0);
        v[n / 2] = bad;
        EXPECT_THROW(
            kernels(l).stage_i64(v.data(), n, gi.data(), gii.data()),
            slm::Error)
            << "level " << dispatch_level_name(l) << " bad " << bad;
      }
    }
  }
}

// The full class-binned engine: randomized traces pushed through every
// dispatch level and a spread of block sizes must serialize to the same
// bytes and fold to the same correlations.
TEST(FoldDispatch, XorClassStateAndReadoutsIdenticalAcrossLevels) {
  constexpr std::size_t kSamples = 7;
  constexpr std::size_t kTraces = 500;
  Xoshiro256 rng(102);
  std::vector<std::uint8_t> v(kTraces), b(kTraces);
  std::vector<double> y(kTraces * kSamples);
  for (auto& x : v) x = static_cast<std::uint8_t>(rng.uniform_int(256));
  for (auto& x : b) x = rng.coin() ? 1 : 0;
  for (auto& s : y) s = static_cast<double>(rng.uniform_int(4096)) - 1024.0;
  std::uint8_t pattern[256];
  for (auto& p : pattern) p = rng.coin() ? 1 : 0;

  std::vector<std::uint8_t> want_state;
  std::vector<double> want_corr;
  const std::size_t blocks[] = {1, 3, 32, kTraces};
  for (const DispatchLevel l : runnable_levels()) {
    for (const std::size_t block : blocks) {
      ForcedLevel forced(l);
      XorClassCpa cls(kSamples);
      for (std::size_t t = 0; t < kTraces; t += block) {
        const std::size_t bn = std::min(block, kTraces - t);
        cls.add_block(v.data() + t, b.data() + t, y.data() + t * kSamples,
                      bn);
      }
      const auto state = state_bytes(cls);
      const CpaEngine folded = cls.fold(pattern);
      const auto corr = folded.max_abs_correlation();
      if (want_state.empty()) {
        want_state = state;
        want_corr = corr;
        continue;
      }
      ASSERT_EQ(state, want_state)
          << "level " << dispatch_level_name(l) << " block " << block;
      ASSERT_EQ(corr, want_corr)
          << "level " << dispatch_level_name(l) << " block " << block;
    }
  }
}

// Same property for the general engine's trace-major block path and the
// fused 16-byte accumulator.
TEST(FoldDispatch, EngineBlocksIdenticalAcrossLevels) {
  constexpr std::size_t kGuesses = 32;
  constexpr std::size_t kSamples = 5;
  constexpr std::size_t kTraces = 300;
  Xoshiro256 rng(103);
  std::vector<std::uint8_t> h(kTraces * kGuesses);
  std::vector<std::uint8_t> v(kTraces * MultiByteCpa::kBytes);
  std::vector<std::uint8_t> mb_b(kTraces * MultiByteCpa::kBytes);
  std::vector<double> y(kTraces * kSamples);
  for (auto& x : h) x = rng.coin() ? 1 : 0;
  for (auto& x : v) x = static_cast<std::uint8_t>(rng.uniform_int(256));
  for (auto& x : mb_b) x = rng.coin() ? 1 : 0;
  for (auto& s : y) s = static_cast<double>(rng.uniform_int(512));

  std::vector<std::uint8_t> want_engine, want_multi;
  for (const DispatchLevel l : runnable_levels()) {
    for (const std::size_t block : {1ul, 17ul, kTraces}) {
      ForcedLevel forced(l);
      CpaEngine e(kGuesses, kSamples);
      MultiByteCpa m(kSamples);
      for (std::size_t t = 0; t < kTraces; t += block) {
        const std::size_t bn = std::min(block, kTraces - t);
        e.add_traces(h.data() + t * kGuesses, y.data() + t * kSamples, bn);
        m.add_block(v.data() + t * MultiByteCpa::kBytes,
                    mb_b.data() + t * MultiByteCpa::kBytes,
                    y.data() + t * kSamples, bn);
      }
      const auto es = state_bytes(e);
      const auto ms = state_bytes(m);
      if (want_engine.empty()) {
        want_engine = es;
        want_multi = ms;
        continue;
      }
      ASSERT_EQ(es, want_engine)
          << "level " << dispatch_level_name(l) << " block " << block;
      ASSERT_EQ(ms, want_multi)
          << "level " << dispatch_level_name(l) << " block " << block;
    }
  }
}

// The eight bit models' patterns plus shapes no S-box bit has: all
// zero, all one (the largest DC spectrum entry, 256) and a linear
// pattern (one non-DC spectrum entry of magnitude 128).
std::vector<std::vector<std::uint8_t>> fold_patterns(std::size_t byte) {
  std::vector<std::vector<std::uint8_t>> out;
  for (std::size_t bit = 0; bit < 8; ++bit) {
    const LastRoundBitModel model(byte, bit);
    out.emplace_back(model.pattern().begin(), model.pattern().end());
  }
  out.emplace_back(256, 0);
  out.emplace_back(256, 1);
  std::vector<std::uint8_t> linear(256);
  for (std::size_t v = 0; v < 256; ++v) {
    linear[v] = static_cast<std::uint8_t>(__builtin_popcount(v & 0xa5u) & 1);
  }
  out.push_back(linear);
  return out;
}

template <typename Fold, typename Reference>
void expect_folds_match(const Fold& fold, const Reference& reference,
                        std::size_t byte, const std::string& where) {
  for (const auto& pattern : fold_patterns(byte)) {
    ASSERT_EQ(state_bytes(fold(pattern.data())),
              state_bytes(reference(pattern.data())))
        << where << " pattern[1..3] " << int(pattern[1]) << int(pattern[2])
        << int(pattern[3]);
  }
}

// The class fold at every dispatch level, for the standalone and the
// fused accumulator, against the direct loop. 300 traces leave most
// classes empty.
TEST(FoldDispatch, ClassFoldMatchesDirectReferenceAtEveryLevel) {
  constexpr std::size_t kSamples = 8;
  constexpr std::size_t kTraces = 300;
  constexpr std::size_t kBytes = MultiByteCpa::kBytes;
  Xoshiro256 rng(107);
  std::vector<std::uint8_t> v(kTraces * kBytes), b(kTraces * kBytes);
  std::vector<double> y(kTraces * kSamples);
  for (auto& x : v) x = static_cast<std::uint8_t>(rng.uniform_int(256));
  for (auto& x : b) x = rng.coin() ? 1 : 0;
  for (auto& s : y) s = static_cast<double>(rng.uniform_int(1 << 12)) - 2000.0;

  for (const DispatchLevel l : runnable_levels()) {
    ForcedLevel forced(l);
    const std::string level = dispatch_level_name(l);
    XorClassCpa cls(kSamples);
    cls.add_block(v.data(), b.data(), y.data(), kTraces);
    expect_folds_match(
        [&](const std::uint8_t* p) { return cls.fold(p); },
        [&](const std::uint8_t* p) {
          return reference::fold_reference(cls, p);
        },
        3, "XorClassCpa level " + level);
    MultiByteCpa mb(kSamples);
    mb.add_block(v.data(), b.data(), y.data(), kTraces);
    for (std::size_t j = 0; j < kBytes; ++j) {
      const reference::ClassState st = reference::class_state(mb, j);
      expect_folds_match(
          [&](const std::uint8_t* p) { return mb.fold(j, p); },
          [&](const std::uint8_t* p) {
            return reference::fold_reference(st, p);
          },
          j, "MultiByteCpa level " + level + " byte " + std::to_string(j));
    }
  }
}

// Class state as save() writes it: samples, n, sum_y, sum_yy, then
// `tables` class tables of 512 counts and 512 x samples sums. sum_y is
// the column sum of every table's rows (each trace lands in one class
// per table); sum_yy is n * 2^40, every reading being +-2^20.
std::vector<std::uint8_t> class_stream(
    std::size_t samples, std::size_t n, std::size_t tables,
    const std::vector<std::int64_t>& counts,
    const std::vector<std::int64_t>& sums) {
  std::vector<double> sum_y(samples, 0.0);
  for (std::size_t c = 0; c < 512; ++c) {
    for (std::size_t s = 0; s < samples; ++s) {
      sum_y[s] += static_cast<double>(sums[c * samples + s]);
    }
  }
  const double yy = static_cast<double>(n) *
                    static_cast<double>(kMaxAbsReading * kMaxAbsReading);
  ByteWriter w;
  w.put_u64(samples);
  w.put_u64(n);
  w.put_f64_vector(sum_y);
  w.put_f64_vector(std::vector<double>(samples, yy));
  std::vector<double> cn, cy;
  for (std::size_t t = 0; t < tables; ++t) {
    cn.insert(cn.end(), counts.begin(), counts.end());
    cy.insert(cy.end(), sums.begin(), sums.end());
  }
  w.put_f64_vector(cn);
  w.put_f64_vector(cy);
  return w.bytes();
}

template <typename Engine>
void load_stream(Engine& e, const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes.data(), bytes.size());
  e.load(r);
}

// Exactness at the overflow budget, run under UBSan by the fold_ubsan
// drill: n = kMaxFoldTraces traces, every reading +-2^20, concentrated
// so that sum_v |D[v]| = kMaxFoldTraces * kMaxAbsReading = 2^42, the
// bound DESIGN.md §13 derives, with Y0 and Y1 of opposite signs. The
// all-one pattern puts 256 * 2^42 into the spectrum's DC entry. The
// WHT fold must still equal the direct loop.
TEST(FoldDispatch, ClassFoldExactAtBudgetEdge) {
  constexpr std::size_t kSamples = 4;
  constexpr std::size_t n = kMaxFoldTraces;
  static_assert(kMaxFoldTraces * static_cast<std::uint64_t>(kMaxAbsReading) ==
                std::uint64_t{1} << 42);
  // Sum of `count` readings of +-2^20, `plus` of them positive.
  const auto mass = [](std::size_t count, std::size_t plus) {
    return (static_cast<std::int64_t>(plus) -
            static_cast<std::int64_t>(count - plus)) *
           kMaxAbsReading;
  };
  struct Layout {
    std::vector<std::int64_t> counts = std::vector<std::int64_t>(512, 0);
    std::vector<std::int64_t> sums = std::vector<std::int64_t>(512 * kSamples);
  };
  // One class value: classes (0, 0) and (0, 1) hold n / 2 traces each.
  // Per sample: opposite signs both ways (|D[0]| = 2^42), equal signs
  // (D = 0, |sum Y1| = 2^41), and the b = 1 readings cancelling.
  Layout one;
  one.counts[0] = one.counts[1] = static_cast<std::int64_t>(n / 2);
  const std::size_t h = n / 2;
  const std::size_t y0_plus[kSamples] = {h, 0, h, h};
  const std::size_t y1_plus[kSamples] = {0, h, h, h / 2};
  for (std::size_t s = 0; s < kSamples; ++s) {
    one.sums[0 * kSamples + s] = mass(h, y0_plus[s]);
    one.sums[1 * kSamples + s] = mass(h, y1_plus[s]);
  }
  // Two class values, 0x00 and 0xff, n / 4 traces per class: W(D)
  // reaches 2^42 on every even-parity frequency.
  Layout two;
  for (const std::size_t c : {0ul, 1ul, 510ul, 511ul}) {
    two.counts[c] = static_cast<std::int64_t>(n / 4);
    const bool b0 = (c % 2) == 0;
    for (std::size_t s = 0; s < kSamples; ++s) {
      const bool positive = b0 != ((s % 2) == 1);
      two.sums[c * kSamples + s] = mass(n / 4, positive ? n / 4 : 0);
    }
  }

  for (const DispatchLevel l : runnable_levels()) {
    ForcedLevel forced(l);
    const std::string level = dispatch_level_name(l);
    for (const Layout* layout : {&one, &two}) {
      XorClassCpa cls(kSamples);
      load_stream(cls, class_stream(kSamples, n, 1, layout->counts,
                                    layout->sums));
      ASSERT_EQ(cls.trace_count(), n);
      expect_folds_match(
          [&](const std::uint8_t* p) { return cls.fold(p); },
          [&](const std::uint8_t* p) {
            return reference::fold_reference(cls, p);
          },
          3, "XorClassCpa budget edge level " + level);
    }
    // The fused accumulator, every byte slice carrying layout one.
    MultiByteCpa mb(kSamples);
    load_stream(mb, class_stream(kSamples, n, MultiByteCpa::kBytes,
                                 one.counts, one.sums));
    for (const std::size_t j : {0ul, 7ul, 15ul}) {
      const reference::ClassState st = reference::class_state(mb, j);
      expect_folds_match(
          [&](const std::uint8_t* p) { return mb.fold(j, p); },
          [&](const std::uint8_t* p) {
            return reference::fold_reference(st, p);
          },
          j, "MultiByteCpa budget edge level " + level);
    }
  }
}

// load() refuses class state that no in-budget sequence of adds could
// produce, so a crafted checkpoint cannot push the fold past int64.
TEST(FoldDispatch, LoadRefusesClassStateOutsideTheBudget) {
  constexpr std::size_t kSamples = 2;
  std::vector<std::int64_t> counts(512, 0), sums(512 * kSamples, 0);
  counts[6] = 3;
  sums[6 * kSamples] = 3 * kMaxAbsReading;
  XorClassCpa ok(kSamples);
  EXPECT_NO_THROW(load_stream(ok, class_stream(kSamples, 3, 1, counts, sums)));

  XorClassCpa c(kSamples);
  // A class sum beyond its count's reading budget.
  auto big = sums;
  big[6 * kSamples + 1] = -(3 * kMaxAbsReading + 1);
  EXPECT_THROW(load_stream(c, class_stream(kSamples, 3, 1, counts, big)),
               slm::Error);
  // Class counts that do not add up to n, or a negative count.
  EXPECT_THROW(load_stream(c, class_stream(kSamples, 4, 1, counts, sums)),
               slm::Error);
  auto negative = counts;
  negative[7] = -1;
  negative[8] = 1;
  EXPECT_THROW(load_stream(c, class_stream(kSamples, 3, 1, negative, sums)),
               slm::Error);
  // A trace count beyond the budget.
  auto over = counts;
  over[6] = static_cast<std::int64_t>(kMaxFoldTraces) + 1;
  EXPECT_THROW(load_stream(c, class_stream(kSamples, kMaxFoldTraces + 1, 1,
                                           over, sums)),
               slm::Error);
  MultiByteCpa m(kSamples);
  EXPECT_THROW(
      load_stream(m, class_stream(kSamples, 3, MultiByteCpa::kBytes, counts,
                                  big)),
      slm::Error);
}

// Every table of `acc` holds exactly the oracle's int64 class sums.
template <typename Accumulator>
void expect_oracle_state(const Accumulator& acc, std::size_t tables,
                         const std::vector<reference::ClassState>& want,
                         const std::string& where) {
  for (std::size_t j = 0; j < tables; ++j) {
    ASSERT_TRUE(reference::class_state_of(acc, j) == want[j])
        << where << " table " << j;
  }
}

// The class-tile kernel at every level against the int64 oracle, called
// directly on staged int32 rows: row counts around the sub-block edge,
// pad and no-pad widths, one table (stride 1) and a fused one (stride
// 16, table 5).
TEST(FoldDispatch, ClassTileKernelMatchesOracleAtEveryLevel) {
  Xoshiro256 rng(108);
  constexpr std::size_t kStride = 16;
  const std::size_t edge = kClassTileSubBlock;
  for (const std::size_t n : {1ul, 7ul, 8ul, 13ul}) {
    const std::size_t n_pad =
        (n + kClassTileLanes - 1) / kClassTileLanes * kClassTileLanes;
    for (const std::size_t rows : {1ul, 512ul, edge, edge + 1, 2 * edge + 3}) {
      std::vector<std::uint8_t> v(rows * kStride), b(rows * kStride);
      for (auto& x : v) x = static_cast<std::uint8_t>(rng.uniform_int(256));
      for (auto& x : b) x = rng.coin() ? 1 : 0;
      std::vector<double> y(rows * n);
      std::vector<std::int32_t> src(rows * n_pad, 0);
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t s = 0; s < n; ++s) {
          const auto x = static_cast<std::int32_t>(rng.uniform_int(1 << 21)) -
                         (1 << 20);
          y[r * n + s] = x;
          src[r * n_pad + s] = x;
        }
      }
      const auto want =
          reference::class_sums_reference(v.data(), b.data(), kStride,
                                          y.data(), rows, n)[5];
      for (const DispatchLevel l : runnable_levels()) {
        std::vector<std::int64_t> cn(kClassRows, 0), cy(kClassRows * n, 0);
        std::vector<std::int32_t> tile(kClassRows * n_pad, 0);
        kernels(l).class_tile_i32(cn.data(), cy.data(), v.data() + 5,
                                  b.data() + 5, kStride, src.data(), rows, n,
                                  n_pad, tile.data());
        ASSERT_EQ(cn, want.class_n) << dispatch_level_name(l) << " n " << n
                                    << " rows " << rows;
        ASSERT_EQ(cy, want.class_y) << dispatch_level_name(l) << " n " << n
                                    << " rows " << rows;
        ASSERT_EQ(tile, std::vector<std::int32_t>(kClassRows * n_pad, 0))
            << "tile not left zeroed at " << dispatch_level_name(l);
      }
    }
  }
}

// Exactness at the int32 tile's bound, run under UBSan by the fold_ubsan
// drill: a whole sub-block of traces in one class, every reading
// +2^20 or -2^20, so each tile cell reaches +-kClassTileSubBlock * 2^20
// just before its widen. The calls of one sub-block, of one plus a
// trace and of two plus a trace (three widens) must match the int64
// oracle at every level, for XorClassCpa and MultiByteCpa alike.
TEST(FoldDispatch, ClassTileExactAtSubBlockEdge) {
  constexpr std::size_t kSamples = 9;  // a padded tile row: 16 lanes
  constexpr std::size_t kBytes = MultiByteCpa::kBytes;
  const std::size_t edge = kClassTileSubBlock;
  static_assert(static_cast<std::int64_t>(kClassTileSubBlock) *
                    kMaxAbsReading <= std::numeric_limits<std::int32_t>::max());
  for (const std::size_t count : {edge, edge + 1, 2 * edge + 1}) {
    std::vector<std::uint8_t> v(count * kBytes, 0x5a), b(count * kBytes, 1);
    std::vector<double> y(count * kSamples);
    for (std::size_t t = 0; t < count; ++t) {
      for (std::size_t s = 0; s < kSamples; ++s) {
        y[t * kSamples + s] = static_cast<double>(
            (s % 2) == 0 ? kMaxAbsReading : -kMaxAbsReading);
      }
    }
    const auto want1 = reference::class_sums_reference(
        v.data(), b.data(), 1, y.data(), count, kSamples);
    const auto want16 = reference::class_sums_reference(
        v.data(), b.data(), kBytes, y.data(), count, kSamples);
    ASSERT_EQ(want1[0].class_y[(0x5a * 2 + 1) * kSamples],
              static_cast<std::int64_t>(count) * kMaxAbsReading);
    for (const DispatchLevel l : runnable_levels()) {
      ForcedLevel forced(l);
      const std::string where = std::string(dispatch_level_name(l)) +
                                " count " + std::to_string(count);
      XorClassCpa cls(kSamples);
      cls.add_block(v.data(), b.data(), y.data(), count);
      expect_oracle_state(cls, 1, want1, "XorClassCpa " + where);
      MultiByteCpa mb(kSamples);
      mb.add_block(v.data(), b.data(), y.data(), count);
      expect_oracle_state(mb, kBytes, want16, "MultiByteCpa " + where);
    }
  }
}

// A chunk-sized block whose only fault sits in its last sub-block (the
// last trace of 4096) is refused before any accumulator changes: a
// class bit of 2, a fractional reading and an out-of-range reading
// each leave the saved state byte-identical, at every level.
TEST(FoldDispatch, TiledBlockRefusedInLastSubBlockLeavesStateUntouched) {
  constexpr std::size_t kSamples = 8;
  constexpr std::size_t kCount = 4096;
  constexpr std::size_t kBytes = MultiByteCpa::kBytes;
  static_assert(kCount > 2 * kClassTileSubBlock);
  Xoshiro256 rng(109);
  std::vector<std::uint8_t> v(kCount * kBytes), b(kCount * kBytes);
  std::vector<double> y(kCount * kSamples);
  for (auto& x : v) x = static_cast<std::uint8_t>(rng.uniform_int(256));
  for (auto& x : b) x = rng.coin() ? 1 : 0;
  for (auto& s : y) s = static_cast<double>(rng.uniform_int(9)) - 4.0;
  const std::size_t last = kCount - 1;

  for (const DispatchLevel l : runnable_levels()) {
    ForcedLevel forced(l);
    const std::string level = dispatch_level_name(l);
    XorClassCpa cls(kSamples);
    MultiByteCpa mb(kSamples);
    cls.add_block(v.data(), b.data(), y.data(), 600);  // prior state
    mb.add_block(v.data(), b.data(), y.data(), 600);
    const auto cls_before = state_bytes(cls);
    const auto mb_before = state_bytes(mb);
    // XorClassCpa reads one label per trace, MultiByteCpa sixteen.
    const auto refuse = [&](const std::vector<std::uint8_t>& cls_b,
                            const std::vector<std::uint8_t>& mb_b,
                            const std::vector<double>& vy,
                            const std::string& what) {
      EXPECT_THROW(cls.add_block(v.data(), cls_b.data(), vy.data(), kCount),
                   slm::Error)
          << level << " " << what;
      EXPECT_THROW(mb.add_block(v.data(), mb_b.data(), vy.data(), kCount),
                   slm::Error)
          << level << " " << what;
      EXPECT_EQ(state_bytes(cls), cls_before) << level << " " << what;
      EXPECT_EQ(state_bytes(mb), mb_before) << level << " " << what;
    };
    auto cls_bad = b;
    cls_bad[last] = 2;
    auto mb_bad = b;
    mb_bad[last * kBytes + kBytes - 1] = 2;
    refuse(cls_bad, mb_bad, y, "class bit 2");
    auto fractional = y;
    fractional[last * kSamples + kSamples - 1] = 0.5;
    refuse(b, b, fractional, "fractional reading");
    auto out_of_range = y;
    out_of_range[last * kSamples] = static_cast<double>(kMaxAbsReading + 1);
    refuse(b, b, out_of_range, "reading beyond 2^20");
  }
}

// Welch t read-outs never move with the dispatch level either.
TEST(FoldDispatch, WelchTIdenticalAcrossLevels) {
  constexpr std::size_t kSamples = 6;
  Xoshiro256 rng(104);
  std::vector<std::vector<double>> traces(400);
  for (auto& tr : traces) {
    tr.resize(kSamples);
    for (auto& s : tr) s = static_cast<double>(rng.uniform_int(64));
  }
  std::vector<double> want;
  for (const DispatchLevel l : runnable_levels()) {
    ForcedLevel forced(l);
    WelchTTest t(kSamples);
    for (std::size_t i = 0; i < traces.size(); ++i) {
      t.add((i % 2) == 0, traces[i]);
    }
    std::vector<double> got(kSamples);
    for (std::size_t s = 0; s < kSamples; ++s) got[s] = t.t_statistic(s);
    if (want.empty()) {
      want = got;
      continue;
    }
    ASSERT_EQ(got, want) << "level " << dispatch_level_name(l);
  }
}

// Overflow budget: campaigns whose worst-case sum_yy could exceed 2^62
// are refused up front, and the engines refuse incrementally — before
// reading a single input byte, so a huge `count` with a small buffer
// throws instead of scanning.
TEST(FoldDispatch, OverflowBudgetRefused) {
  EXPECT_EQ(kMaxFoldTraces, std::size_t{1} << 22);
  EXPECT_NO_THROW(require_fold_budget(kMaxFoldTraces, "test"));
  EXPECT_THROW(require_fold_budget(kMaxFoldTraces + 1, "test"), slm::Error);

  const double y1[1] = {1.0};
  const std::uint8_t l1[MultiByteCpa::kBytes] = {};
  CpaEngine e(2, 1);
  EXPECT_THROW(e.add_traces(l1, y1, kMaxFoldTraces + 1), slm::Error);
  EXPECT_EQ(e.trace_count(), 0u);
  XorClassCpa c(1);
  EXPECT_THROW(c.add_block(l1, l1, y1, kMaxFoldTraces + 1), slm::Error);
  EXPECT_EQ(c.trace_count(), 0u);
}

}  // namespace
}  // namespace slm::sca
