#include "sca/cpa.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/aligned.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"
#include "sca/fold_kernels.hpp"

namespace slm::sca {
namespace {

// Per-thread staging scratch for the double -> int64 conversion: the
// readings and their squares are materialized once per block, so the
// dispatched hot loops are pure integer adds (no multiply — AVX2 has no
// 64x64 product).
struct StagedBlock {
  const std::int64_t* y;
  const std::int64_t* yy;
};

StagedBlock stage_block(const FoldKernels& k, const double* y,
                        std::size_t n) {
  thread_local AlignedVector<std::int64_t> yi;
  thread_local AlignedVector<std::int64_t> yyi;
  if (yi.size() < n) {
    yi.resize(n);
    yyi.resize(n);
  }
  k.stage_i64(y, n, yi.data(), yyi.data());
  return {yi.data(), yyi.data()};
}

// --- Class blocks -----------------------------------------------------
//
// add_block of XorClassCpa (one class table) and MultiByteCpa (sixteen)
// is one routine: `tables` class tables fed from count x tables
// trace-major labels (v[t * tables + j], b likewise) and count x samples
// readings. The class bits and the readings are all checked before the
// first accumulator write, so a refused block changes nothing.
//
// Blocks of fewer than kClassRows traces (the live engines' capture
// blocks) stage to int64 and scatter straight into each int64 class
// table. Chunk-sized blocks (store replay's) stage once to int32 rows,
// and each table takes one class_tile_i32 pass: the kernel reads that
// table's labels in place and scatters through a kClassRows x width
// int32 tile that stays in L1, widened into the table once per
// kClassTileSubBlock traces (exact: fold_kernels.hpp). The int64 path
// would stream the whole staged int64 block, and an int32 class index
// per trace, once per table. On a 64-trace block the tile's widen of
// all kClassRows rows would cost several times the scatter it saves.

// The chunk-sized path's staging: int32 rows padded to `width` lanes
// (pad lanes zero) and the block's int64 column sums. It goes through
// the dispatched int64 stager in L1-sized slices, so the validation and
// its errors are the small path's.
const std::int32_t* stage_rows_i32(const FoldKernels& k, const double* y,
                                   std::size_t count, std::size_t samples,
                                   std::size_t width, std::int64_t* col_y,
                                   std::int64_t* col_yy) {
  constexpr std::size_t kSlice = 256;
  thread_local AlignedVector<std::int32_t> rows;
  if (rows.size() < count * width) rows.resize(count * width);
  for (std::size_t t0 = 0; t0 < count; t0 += kSlice) {
    const std::size_t m = std::min(kSlice, count - t0);
    const StagedBlock st = stage_block(k, y + t0 * samples, m * samples);
    k.sum_cols2_i64(col_y, col_yy, st.y, st.yy, m, samples);
    for (std::size_t t = 0; t < m; ++t) {
      std::int32_t* row = rows.data() + (t0 + t) * width;
      const std::int64_t* yt = st.y + t * samples;
      for (std::size_t s = 0; s < samples; ++s) {
        row[s] = static_cast<std::int32_t>(yt[s]);
      }
      for (std::size_t s = samples; s < width; ++s) row[s] = 0;
    }
  }
  return rows.data();
}

void add_class_block(const char* who, const std::uint8_t* v,
                     const std::uint8_t* b, std::size_t tables,
                     const double* y, std::size_t count, std::size_t samples,
                     std::int64_t* sum_y, std::int64_t* sum_yy,
                     std::int64_t* class_n, std::int64_t* class_y) {
  std::uint8_t bits = 0;
  for (std::size_t i = 0; i < count * tables; ++i) bits |= b[i];
  SLM_REQUIRE(bits <= 1, std::string(who) + ": class bit must be 0/1");
  const FoldKernels& k = active_kernels();
  if (count < kClassRows) {
    const StagedBlock st = stage_block(k, y, count * samples);
    k.sum_cols2_i64(sum_y, sum_yy, st.y, st.yy, count, samples);
    thread_local AlignedVector<std::uint32_t> cls;
    cls.resize(count);
    for (std::size_t j = 0; j < tables; ++j) {
      std::int64_t* cn = class_n + j * kClassRows;
      for (std::size_t t = 0; t < count; ++t) {
        const std::size_t i = t * tables + j;
        cls[t] = static_cast<std::uint32_t>(
            (static_cast<std::size_t>(v[i]) << 1) | b[i]);
        cn[cls[t]] += 1;
      }
      k.scatter_rows_i64(class_y + j * kClassRows * samples, st.y,
                         cls.data(), count, samples);
    }
    return;
  }
  const std::size_t width =
      (samples + kClassTileLanes - 1) / kClassTileLanes * kClassTileLanes;
  thread_local AlignedVector<std::int64_t> col;
  col.assign(2 * samples, 0);
  const std::int32_t* rows = stage_rows_i32(k, y, count, samples, width,
                                            col.data(), col.data() + samples);
  k.add2_i64(sum_y, sum_yy, col.data(), col.data() + samples, samples);
  thread_local AlignedVector<std::int32_t> tile;
  if (tile.size() < kClassRows * width) {
    tile.assign(kClassRows * width, 0);  // the kernels leave it zeroed
  }
  for (std::size_t j = 0; j < tables; ++j) {
    k.class_tile_i32(class_n + j * kClassRows,
                     class_y + j * kClassRows * samples, v + j, b + j, tables,
                     rows, count, samples, width, tile.data());
  }
}

// --- Class fold -------------------------------------------------------
//
// fold() expands the 512 (v, b) class sums into 256 guesses. Under
// h_k = pattern[v ^ k] ^ b, class (v, 0) counts for guess k when
// pattern[v ^ k] == 1 and class (v, 1) when it is 0. With Y0[v], Y1[v]
// the b = 0 / b = 1 rows and D = Y0 - Y1:
//
//   sum_hy[k] = sum_v Y1[v] + sum_v pattern[v ^ k] * D[v]
//
// The second term is an XOR convolution. With W the unnormalized
// 256-point Walsh-Hadamard transform (W(W(x)) = 256 x) and the constant
// as the spectrum's DC term:
//
//   256 * sum_hy = W(W(pattern) * W(D) + 256 * sum_v Y1[v] * delta_0)
//
// That is 16 butterfly stages and one multiply per (guess, sample)
// instead of 256 x 256 row adds. sum_h is the same transform of the
// class counts.
//
// Exactness: all of it is int64 arithmetic, so the result is the
// direct loop's, bit for bit, as long as nothing wraps.
//   - Every class row holds at most class_n readings of magnitude
//     <= kMaxAbsReading and sum class_n = n <= kMaxFoldTraces (enforced
//     on add, merge and load), so each forward stage, a signed subset
//     sum of D, is <= sum_v |D[v]| <= kMaxFoldTraces * kMaxAbsReading
//     = 2^42.
//   - |W(pattern)| <= 256, and the DC entry P0 * (sum Y0 - sum Y1) +
//     256 * sum Y1 = P0 * sum Y0 + (256 - P0) * sum Y1 is <= 256 * 2^42
//     as well (its running sum stays below 2^51), so every spectrum
//     entry is <= 2^50.
//   - Inverse stage t sums 2^t spectrum entries: <= 2^58 < 2^63.
//   - The result is exactly 256x the convolution, so / 256 is exact.
constexpr std::uint64_t kMaxClassMass =
    static_cast<std::uint64_t>(kMaxFoldTraces) *
    static_cast<std::uint64_t>(kMaxAbsReading);
// 2^42 in, times 256 (spectrum) times 256 (inverse) = 2^58 out.
static_assert(kMaxClassMass <= (std::uint64_t{1} << 42),
              "fold budget outgrew the WHT class-fold bound: re-derive it");

// In-place unnormalized Walsh-Hadamard transform across 256 rows of
// `width` contiguous int64s (row v at x + v * width). At stage h the
// partners of rows i..i+h-1 are the next h rows, so every butterfly run
// is one contiguous h * width span. Stages go in pairs (radix 4,
// 256 = 4^4): each element is loaded and stored once per two stages.
void wht256(std::int64_t* x, std::size_t width) {
  const std::size_t total = 256 * width;
  for (std::size_t span = width; span < total; span <<= 2) {
    for (std::size_t i = 0; i < total; i += 4 * span) {
      std::int64_t* __restrict a = x + i;
      std::int64_t* __restrict b = a + span;
      std::int64_t* __restrict c = b + span;
      std::int64_t* __restrict d = c + span;
      for (std::size_t s = 0; s < span; ++s) {
        const std::int64_t ab = a[s] + b[s];
        const std::int64_t amb = a[s] - b[s];
        const std::int64_t cd = c[s] + d[s];
        const std::int64_t cmd = c[s] - d[s];
        a[s] = ab + cd;
        b[s] = amb + cmd;
        c[s] = ab - cd;
        d[s] = amb - cmd;
      }
    }
  }
}

// The fold of one class table: `cls` holds 512 class rows of `width`
// values (row (v << 1) | b), `out` receives the 256 guess rows. Width 1
// folds the counts into sum_h, width S the sums into sum_hy.
void fold_class_rows(const std::int64_t* spectrum, const std::int64_t* cls,
                     std::size_t width, std::int64_t* out) {
  for (std::size_t v = 0; v < 256; ++v) {
    const std::int64_t* y0 = cls + (2 * v) * width;
    const std::int64_t* y1 = y0 + width;
    std::int64_t* d = out + v * width;
    for (std::size_t s = 0; s < width; ++s) d[s] = y0[s] - y1[s];
  }
  wht256(out, width);
  for (std::size_t j = 0; j < 256; ++j) {
    std::int64_t* row = out + j * width;
    const std::int64_t p = spectrum[j];
    for (std::size_t s = 0; s < width; ++s) row[s] *= p;
  }
  for (std::size_t v = 0; v < 256; ++v) {
    const std::int64_t* y1 = cls + (2 * v + 1) * width;
    for (std::size_t s = 0; s < width; ++s) out[s] += 256 * y1[s];
  }
  wht256(out, width);
  for (std::size_t i = 0; i < 256 * width; ++i) out[i] /= 256;
}

// The fold of XorClassCpa and of each MultiByteCpa byte: class counts
// `cn` (512) and class sums `cy` (512 x samples) into a 256-guess
// engine's sum_h (256) and sum_hy (256 x samples).
void fold_classes(const std::uint8_t* pattern256, const std::int64_t* cn,
                  const std::int64_t* cy, std::size_t samples,
                  std::int64_t* sum_h, std::int64_t* sum_hy) {
  std::int64_t spectrum[256];
  for (std::size_t v = 0; v < 256; ++v) spectrum[v] = pattern256[v] ? 1 : 0;
  wht256(spectrum, 1);
  fold_class_rows(spectrum, cn, 1, sum_h);
  fold_class_rows(spectrum, cy, samples, sum_hy);
}

// The load() side of the class fold's exactness bound: refuses class
// state that no sequence of in-budget adds could produce, so a crafted
// checkpoint cannot push the transform past 2^63.
void require_class_state(std::size_t n, const std::int64_t* cn,
                         const std::int64_t* cy, std::size_t samples,
                         const char* who) {
  require_fold_budget(n, who);
  const auto traces = static_cast<std::int64_t>(n);
  std::int64_t total = 0;
  for (std::size_t c = 0; c < 512; ++c) {
    SLM_REQUIRE(cn[c] >= 0 && cn[c] <= traces,
                std::string(who) + ": class count out of range");
    total += cn[c];
    const std::int64_t limit = cn[c] * kMaxAbsReading;
    for (std::size_t s = 0; s < samples; ++s) {
      const std::int64_t y = cy[c * samples + s];
      SLM_REQUIRE(y >= -limit && y <= limit,
                  std::string(who) + ": class sum exceeds its count's budget");
    }
  }
  SLM_REQUIRE(total == traces,
              std::string(who) + ": class counts do not sum to the trace count");
}

}  // namespace

CpaEngine::CpaEngine(std::size_t guess_count, std::size_t sample_count)
    : guesses_(guess_count),
      samples_(sample_count),
      sum_y_(sample_count, 0),
      sum_yy_(sample_count, 0),
      sum_h_(guess_count, 0),
      sum_hy_(guess_count * sample_count, 0) {
  SLM_REQUIRE(guess_count > 0 && sample_count > 0,
              "CpaEngine: empty dimensions");
}

void CpaEngine::add_trace(const std::vector<std::uint8_t>& h,
                          const std::vector<double>& y) {
  SLM_REQUIRE(h.size() == guesses_, "CpaEngine: hypothesis count mismatch");
  SLM_REQUIRE(y.size() == samples_, "CpaEngine: sample count mismatch");
  require_fold_budget(n_ + 1, "CpaEngine");
  const FoldKernels& k = active_kernels();
  const StagedBlock st = stage_block(k, y.data(), samples_);
  ++n_;
  k.add2_i64(sum_y_.data(), sum_yy_.data(), st.y, st.yy, samples_);
  for (std::size_t g = 0; g < guesses_; ++g) {
    if (h[g]) {
      sum_h_[g] += 1;
      k.add_i64(&sum_hy_[g * samples_], st.y, samples_);
    }
  }
}

void CpaEngine::add_traces(const std::uint8_t* h, const double* y,
                           std::size_t count) {
  require_fold_budget(n_ + count, "CpaEngine");
  const FoldKernels& k = active_kernels();
  const StagedBlock st = stage_block(k, y, count * samples_);
  n_ += count;
  k.sum_cols2_i64(sum_y_.data(), sum_yy_.data(), st.y, st.yy, count,
                  samples_);
  // Guess-major rank-K update: row g stays hot while the block's
  // contributing traces are applied — ~samples_ int64s of working set.
  for (std::size_t g = 0; g < guesses_; ++g) {
    std::int64_t* row = &sum_hy_[g * samples_];
    for (std::size_t t = 0; t < count; ++t) {
      if (h[t * guesses_ + g]) {
        sum_h_[g] += 1;
        k.add_i64(row, st.y + t * samples_, samples_);
      }
    }
  }
}

void CpaEngine::merge(const CpaEngine& other) {
  SLM_REQUIRE(other.guesses_ == guesses_ && other.samples_ == samples_,
              "CpaEngine::merge: dimension mismatch");
  require_fold_budget(n_ + other.n_, "CpaEngine::merge");
  const FoldKernels& k = active_kernels();
  n_ += other.n_;
  k.add2_i64(sum_y_.data(), sum_yy_.data(), other.sum_y_.data(),
             other.sum_yy_.data(), samples_);
  k.add_i64(sum_h_.data(), other.sum_h_.data(), guesses_);
  k.add_i64(sum_hy_.data(), other.sum_hy_.data(), sum_hy_.size());
}

double CpaEngine::correlation(std::size_t guess, std::size_t sample) const {
  SLM_REQUIRE(guess < guesses_ && sample < samples_,
              "CpaEngine::correlation: index out of range");
  if (n_ < 2) return 0.0;
  // Read-out happens in double on the exact integer sums — every cast is
  // exact below 2^53 (overflow budget), and the expression is verbatim
  // the legacy all-double engine's, so the result is bit-identical to
  // every artifact that engine produced.
  const double n = static_cast<double>(n_);
  const double sh = static_cast<double>(sum_h_[guess]);
  const double sy = static_cast<double>(sum_y_[sample]);
  const double cov =
      n * static_cast<double>(sum_hy_[guess * samples_ + sample]) - sh * sy;
  const double var_h = n * sh - sh * sh;  // h is binary: sum_hh == sum_h
  const double var_y = n * static_cast<double>(sum_yy_[sample]) - sy * sy;
  const double denom = std::sqrt(var_h * var_y);
  return denom > 0.0 ? cov / denom : 0.0;
}

std::vector<double> CpaEngine::max_abs_correlation() const {
  std::vector<double> out(guesses_, 0.0);
  for (std::size_t k = 0; k < guesses_; ++k) {
    double best = 0.0;
    for (std::size_t s = 0; s < samples_; ++s) {
      const double r = std::abs(correlation(k, s));
      if (r > best) best = r;
    }
    out[k] = best;
  }
  return out;
}

std::size_t CpaEngine::best_guess() const {
  return argmax(max_abs_correlation());
}

std::size_t CpaEngine::rank_of(std::size_t guess) const {
  SLM_REQUIRE(guess < guesses_, "CpaEngine::rank_of: out of range");
  const auto corr = max_abs_correlation();
  std::size_t rank = 0;
  for (std::size_t k = 0; k < guesses_; ++k) {
    if (k != guess && corr[k] > corr[guess]) ++rank;
  }
  return rank;
}

void CpaEngine::save(ByteWriter& out) const {
  out.put_u64(guesses_);
  out.put_u64(samples_);
  out.put_u64(n_);
  out.put_f64_vector(sums_to_f64_exact(sum_y_, "CpaEngine::save"));
  out.put_f64_vector(sums_to_f64_exact(sum_yy_, "CpaEngine::save"));
  out.put_f64_vector(sums_to_f64_exact(sum_h_, "CpaEngine::save"));
  out.put_f64_vector(sums_to_f64_exact(sum_hy_, "CpaEngine::save"));
}

void CpaEngine::load(ByteReader& in) {
  const std::uint64_t guesses = in.get_u64();
  const std::uint64_t samples = in.get_u64();
  SLM_REQUIRE(guesses == guesses_ && samples == samples_,
              "CpaEngine::load: dimension mismatch");
  n_ = in.get_u64();
  sum_y_ = sums_from_f64_exact(in.get_f64_vector(), "CpaEngine::load");
  sum_yy_ = sums_from_f64_exact(in.get_f64_vector(), "CpaEngine::load");
  sum_h_ = sums_from_f64_exact(in.get_f64_vector(), "CpaEngine::load");
  sum_hy_ = sums_from_f64_exact(in.get_f64_vector(), "CpaEngine::load");
  SLM_REQUIRE(sum_y_.size() == samples_ && sum_yy_.size() == samples_ &&
                  sum_h_.size() == guesses_ &&
                  sum_hy_.size() == guesses_ * samples_,
              "CpaEngine::load: corrupt payload");
}

XorClassCpa::XorClassCpa(std::size_t sample_count)
    : samples_(sample_count),
      sum_y_(sample_count, 0),
      sum_yy_(sample_count, 0),
      class_n_(kClasses, 0),
      class_y_(kClasses * sample_count, 0) {
  SLM_REQUIRE(sample_count > 0, "XorClassCpa: empty sample dimension");
}

void XorClassCpa::add_trace(std::uint8_t v, std::uint8_t b,
                            const std::vector<double>& y) {
  SLM_REQUIRE(y.size() == samples_, "XorClassCpa: sample count mismatch");
  SLM_REQUIRE(b <= 1, "XorClassCpa: class bit must be 0/1");
  require_fold_budget(n_ + 1, "XorClassCpa");
  const FoldKernels& k = active_kernels();
  const StagedBlock st = stage_block(k, y.data(), samples_);
  ++n_;
  const std::size_t cls = (static_cast<std::size_t>(v) << 1) | b;
  class_n_[cls] += 1;
  k.add2_i64(sum_y_.data(), sum_yy_.data(), st.y, st.yy, samples_);
  k.add_i64(&class_y_[cls * samples_], st.y, samples_);
}

void XorClassCpa::add_block(const std::uint8_t* v, const std::uint8_t* b,
                            const double* y, std::size_t count) {
  // The budget first: an over-budget count is refused without touching
  // the (possibly smaller) input arrays.
  require_fold_budget(n_ + count, "XorClassCpa");
  add_class_block("XorClassCpa", v, b, 1, y, count, samples_, sum_y_.data(),
                  sum_yy_.data(), class_n_.data(), class_y_.data());
  n_ += count;
}

void XorClassCpa::merge(const XorClassCpa& other) {
  SLM_REQUIRE(other.samples_ == samples_, "XorClassCpa::merge: mismatch");
  require_fold_budget(n_ + other.n_, "XorClassCpa::merge");
  const FoldKernels& k = active_kernels();
  n_ += other.n_;
  k.add2_i64(sum_y_.data(), sum_yy_.data(), other.sum_y_.data(),
             other.sum_yy_.data(), samples_);
  k.add_i64(class_n_.data(), other.class_n_.data(), kClasses);
  k.add_i64(class_y_.data(), other.class_y_.data(), class_y_.size());
}

CpaEngine XorClassCpa::fold(const std::uint8_t* pattern256) const {
  CpaEngine e(256, samples_);
  e.n_ = n_;
  e.sum_y_ = sum_y_;
  e.sum_yy_ = sum_yy_;
  fold_classes(pattern256, class_n_.data(), class_y_.data(), samples_,
               e.sum_h_.data(), e.sum_hy_.data());
  return e;
}

void XorClassCpa::save(ByteWriter& out) const {
  out.put_u64(samples_);
  out.put_u64(n_);
  out.put_f64_vector(sums_to_f64_exact(sum_y_, "XorClassCpa::save"));
  out.put_f64_vector(sums_to_f64_exact(sum_yy_, "XorClassCpa::save"));
  out.put_f64_vector(sums_to_f64_exact(class_n_, "XorClassCpa::save"));
  out.put_f64_vector(sums_to_f64_exact(class_y_, "XorClassCpa::save"));
}

void XorClassCpa::load(ByteReader& in) {
  const std::uint64_t samples = in.get_u64();
  SLM_REQUIRE(samples == samples_, "XorClassCpa::load: dimension mismatch");
  n_ = in.get_u64();
  sum_y_ = sums_from_f64_exact(in.get_f64_vector(), "XorClassCpa::load");
  sum_yy_ = sums_from_f64_exact(in.get_f64_vector(), "XorClassCpa::load");
  class_n_ = sums_from_f64_exact(in.get_f64_vector(), "XorClassCpa::load");
  const std::vector<std::int64_t> class_y =
      sums_from_f64_exact(in.get_f64_vector(), "XorClassCpa::load");
  class_y_.assign(class_y.begin(), class_y.end());
  SLM_REQUIRE(sum_y_.size() == samples_ && sum_yy_.size() == samples_ &&
                  class_n_.size() == kClasses &&
                  class_y_.size() == kClasses * samples_,
              "XorClassCpa::load: corrupt payload");
  require_class_state(n_, class_n_.data(), class_y_.data(), samples_,
                      "XorClassCpa::load");
}

MultiByteCpa::MultiByteCpa(std::size_t sample_count)
    : samples_(sample_count),
      sum_y_(sample_count, 0),
      sum_yy_(sample_count, 0),
      class_n_(kBytes * kClasses, 0),
      class_y_(kBytes * kClasses * sample_count, 0) {
  SLM_REQUIRE(sample_count > 0, "MultiByteCpa: empty sample dimension");
}

void MultiByteCpa::add_trace(const std::uint8_t* v16, const std::uint8_t* b16,
                             const std::vector<double>& y) {
  SLM_REQUIRE(y.size() == samples_, "MultiByteCpa: sample count mismatch");
  for (std::size_t j = 0; j < kBytes; ++j) {
    SLM_REQUIRE(b16[j] <= 1, "MultiByteCpa: class bit must be 0/1");
  }
  require_fold_budget(n_ + 1, "MultiByteCpa");
  const FoldKernels& k = active_kernels();
  const StagedBlock st = stage_block(k, y.data(), samples_);
  ++n_;
  k.add2_i64(sum_y_.data(), sum_yy_.data(), st.y, st.yy, samples_);
  for (std::size_t j = 0; j < kBytes; ++j) {
    const std::size_t cls = (static_cast<std::size_t>(v16[j]) << 1) | b16[j];
    class_n_[j * kClasses + cls] += 1;
    k.add_i64(&class_y_[(j * kClasses + cls) * samples_], st.y, samples_);
  }
}

void MultiByteCpa::add_block(const std::uint8_t* v, const std::uint8_t* b,
                             const double* y, std::size_t count) {
  require_fold_budget(n_ + count, "MultiByteCpa");
  add_class_block("MultiByteCpa", v, b, kBytes, y, count, samples_,
                  sum_y_.data(), sum_yy_.data(), class_n_.data(),
                  class_y_.data());
  n_ += count;
}

void MultiByteCpa::merge(const MultiByteCpa& other) {
  SLM_REQUIRE(other.samples_ == samples_, "MultiByteCpa::merge: mismatch");
  require_fold_budget(n_ + other.n_, "MultiByteCpa::merge");
  const FoldKernels& k = active_kernels();
  n_ += other.n_;
  k.add2_i64(sum_y_.data(), sum_yy_.data(), other.sum_y_.data(),
             other.sum_yy_.data(), samples_);
  k.add_i64(class_n_.data(), other.class_n_.data(), class_n_.size());
  k.add_i64(class_y_.data(), other.class_y_.data(), class_y_.size());
}

CpaEngine MultiByteCpa::fold(std::size_t byte,
                             const std::uint8_t* pattern256) const {
  SLM_REQUIRE(byte < kBytes, "MultiByteCpa::fold: byte out of range");
  CpaEngine e(256, samples_);
  e.n_ = n_;
  e.sum_y_ = sum_y_;
  e.sum_yy_ = sum_yy_;
  fold_classes(pattern256, &class_n_[byte * kClasses],
               &class_y_[byte * kClasses * samples_], samples_,
               e.sum_h_.data(), e.sum_hy_.data());
  return e;
}

void MultiByteCpa::save(ByteWriter& out) const {
  out.put_u64(samples_);
  out.put_u64(n_);
  out.put_f64_vector(sums_to_f64_exact(sum_y_, "MultiByteCpa::save"));
  out.put_f64_vector(sums_to_f64_exact(sum_yy_, "MultiByteCpa::save"));
  out.put_f64_vector(sums_to_f64_exact(class_n_, "MultiByteCpa::save"));
  out.put_f64_vector(sums_to_f64_exact(class_y_, "MultiByteCpa::save"));
}

void MultiByteCpa::load(ByteReader& in) {
  const std::uint64_t samples = in.get_u64();
  SLM_REQUIRE(samples == samples_, "MultiByteCpa::load: dimension mismatch");
  n_ = in.get_u64();
  sum_y_ = sums_from_f64_exact(in.get_f64_vector(), "MultiByteCpa::load");
  sum_yy_ = sums_from_f64_exact(in.get_f64_vector(), "MultiByteCpa::load");
  class_n_ = sums_from_f64_exact(in.get_f64_vector(), "MultiByteCpa::load");
  const std::vector<std::int64_t> class_y =
      sums_from_f64_exact(in.get_f64_vector(), "MultiByteCpa::load");
  class_y_.assign(class_y.begin(), class_y.end());
  SLM_REQUIRE(sum_y_.size() == samples_ && sum_yy_.size() == samples_ &&
                  class_n_.size() == kBytes * kClasses &&
                  class_y_.size() == kBytes * kClasses * samples_,
              "MultiByteCpa::load: corrupt payload");
  for (std::size_t j = 0; j < kBytes; ++j) {
    require_class_state(n_, &class_n_[j * kClasses],
                        &class_y_[j * kClasses * samples_], samples_,
                        "MultiByteCpa::load");
  }
}

CpaProgressPoint snapshot_progress(const CpaEngine& engine,
                                   std::size_t correct_guess) {
  CpaProgressPoint p;
  p.traces = engine.trace_count();
  p.max_abs_corr = engine.max_abs_correlation();
  p.best_guess = argmax(p.max_abs_corr);
  p.correct_corr = p.max_abs_corr[correct_guess];
  std::size_t rank = 0;
  double best_wrong = 0.0;
  for (std::size_t k = 0; k < p.max_abs_corr.size(); ++k) {
    if (k == correct_guess) continue;
    if (p.max_abs_corr[k] > p.correct_corr) ++rank;
    if (p.max_abs_corr[k] > best_wrong) best_wrong = p.max_abs_corr[k];
  }
  p.correct_rank = rank;
  p.best_wrong_corr = best_wrong;
  return p;
}

}  // namespace slm::sca
