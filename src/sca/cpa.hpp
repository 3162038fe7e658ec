// Streaming Correlation Power Analysis engine.
//
// Maintains, for every key guess and every sample point, the running sums
// needed for Pearson correlation. Optimised for binary hypotheses: a
// trace update only touches the guesses whose hypothesis bit is 1, so a
// 256-guess x S-sample update costs ~128*S additions. 500k-trace
// campaigns finish in seconds.
//
// Integer-exact contract (load-bearing for RNG contract v2 and for the
// SIMD dispatch in sca/fold_kernels.hpp): sensor readings are
// integer-valued counts with |y| <= 2^20 and the binary hypotheses are
// 0/1, so every running sum is an exact int64 — accumulation IS integer
// arithmetic, not floating point that happens to stay exact. Addition
// order and grouping are therefore irrelevant by construction: any
// thread count, block size, vector width or serial/sharded engine lands
// on bit-identical accumulator state, and the AVX2/SSE2/scalar kernels
// are interchangeable. Correlations are evaluated at read-out time by
// casting the exact integer sums to double (exact below 2^53 — the
// overflow budget in fold_kernels.hpp keeps them there) and running the
// same double expression the legacy all-double engine used, so read-outs
// are bit-identical to every artifact the old engine produced.
// Campaign.ThreadAndBlockInvariant and tests/sca/fold_dispatch_test.cpp
// pin this property.
#pragma once

#include <cstdint>
#include <vector>

#include "common/aligned.hpp"
#include "common/binio.hpp"

namespace slm::sca {

class CpaEngine {
 public:
  CpaEngine(std::size_t guess_count, std::size_t sample_count);

  std::size_t guess_count() const { return guesses_; }
  std::size_t sample_count() const { return samples_; }
  std::size_t trace_count() const { return n_; }

  /// One trace: binary hypothesis per guess, measurement per sample.
  /// Readings must be integer-valued (|y| <= 2^20); throws otherwise,
  /// and throws before touching any accumulator when the trace would
  /// exceed the overflow budget (fold_kernels.hpp).
  void add_trace(const std::vector<std::uint8_t>& h,
                 const std::vector<double>& y);

  /// A block of `count` traces at once: h is count x guess_count
  /// hypothesis rows, y is count x sample_count reading rows, both
  /// trace-major. The readings are staged to int64 (values and squares)
  /// once, then the per-sample sums and the guess-major rank-K update
  /// run through the dispatched vector kernels — exact integer addition
  /// makes the result identical to `count` add_trace calls at any lane
  /// width, while each sum_hy_ row stays cache-resident for the block.
  void add_traces(const std::uint8_t* h, const double* y, std::size_t count);

  /// Fold another engine's traces into this one. The running sums are
  /// plain integer sums, so merging N shard engines that together saw
  /// the same traces as one serial engine reproduces the serial sums
  /// exactly. Dimensions must match.
  void merge(const CpaEngine& other);

  /// Pearson r for (guess, sample); 0 until enough traces.
  double correlation(std::size_t guess, std::size_t sample) const;

  /// max_s |r(guess, s)| — the "total correlation" per candidate that the
  /// paper's Fig. 9a-18a plot.
  std::vector<double> max_abs_correlation() const;

  /// Guess with the highest max-abs correlation.
  std::size_t best_guess() const;

  /// Rank of a guess under max-abs correlation (0 = best).
  std::size_t rank_of(std::size_t guess) const;

  /// Serialize / restore the running sums bit-exactly. The on-disk
  /// fields stay IEEE-754 doubles (no format bump): in-budget integer
  /// sums are below 2^53, so the int64 <-> double bridge is exact and
  /// verified in both directions. load() requires matching dimensions —
  /// checkpoints carry them in their header — and makes this engine
  /// indistinguishable from the one that was saved. Used by
  /// core/checkpoint.
  void save(ByteWriter& out) const;
  void load(ByteReader& in);

 private:
  friend class XorClassCpa;   // fold() reconstructs the sums directly
  friend class MultiByteCpa;  // per-byte fold(), same mechanism

  std::size_t guesses_;
  std::size_t samples_;
  std::size_t n_ = 0;
  std::vector<std::int64_t> sum_y_;    // [s]
  std::vector<std::int64_t> sum_yy_;   // [s]
  std::vector<std::int64_t> sum_h_;    // [k] (h binary: sum_hh == sum_h)
  std::vector<std::int64_t> sum_hy_;   // [k * samples_ + s]
};

/// Class-binned CPA accumulator for hypothesis families of the shape
///
///   h_k = pattern[v ^ k] ^ b,   v in [0, 256), b in {0, 1}
///
/// which every per-byte last-round bit model has (v = the targeted
/// ciphertext byte, b = the predicted-register ciphertext bit, pattern =
/// one S-box output bit). Instead of updating ~128 of 256 guess rows per
/// trace like CpaEngine::add_trace, a trace lands in one of 512 (v, b)
/// classes: per-class trace counts and per-sample reading sums. fold()
/// reconstructs the full CpaEngine sums from the class sums per
/// checkpoint. The guess expansion is an XOR convolution of the pattern
/// with the class rows, so fold() runs it as an exact integer
/// Walsh-Hadamard transform: ~16 x 256 x S adds and 256 x S multiplies,
/// instead of the direct loop's 256 x 256 x S adds (DESIGN.md §13).
///
/// Exactness: the accumulators are exact int64 sums of integer readings
/// (see the contract at the top of this header), and every transform
/// intermediate stays below 2^58 under the fold budget, so fold() yields
/// the trace-order sums CpaEngine would have produced — not merely
/// close, the same bits, at every dispatch level.
/// tests/sca/fold_reference.hpp keeps the direct loop as the oracle.
class XorClassCpa {
 public:
  explicit XorClassCpa(std::size_t sample_count);

  std::size_t sample_count() const { return samples_; }
  std::size_t trace_count() const { return n_; }

  /// One trace: class value v, class bit b, readings y (size sample_count).
  void add_trace(std::uint8_t v, std::uint8_t b,
                 const std::vector<double>& y);

  /// A block of `count` traces at once: per-trace class values/bits and
  /// trace-major count x sample_count readings. Every class bit and
  /// reading is checked before any accumulator changes. Blocks of fewer
  /// than 512 traces (capture blocks) stage to int64 and scatter each
  /// trace's row into its int64 class row. Larger blocks (store replay
  /// chunks) stage once to int32 and scatter through an L1-resident
  /// int32 class tile, widened into the int64 rows every 2047 traces
  /// (DESIGN.md §13). Exact integer addition makes both paths, and any
  /// block partition, land on the same sums.
  void add_block(const std::uint8_t* v, const std::uint8_t* b,
                 const double* y, std::size_t count);

  /// Fold another accumulator's traces into this one (shard merges).
  void merge(const XorClassCpa& other);

  /// Expand into a full 256-guess CpaEngine under the given 256-entry
  /// 0/1 pattern table.
  CpaEngine fold(const std::uint8_t* pattern256) const;

  /// Bit-exact checkpoint serialization, mirror of CpaEngine::save/load.
  /// load() also refuses class state outside the fold budget (a class
  /// sum beyond its count's reading bound, counts that do not sum to
  /// the trace count), which fold()'s exactness relies on.
  void save(ByteWriter& out) const;
  void load(ByteReader& in);

 private:
  static constexpr std::size_t kClasses = 512;  // (v << 1) | b

  std::size_t samples_;
  std::size_t n_ = 0;
  std::vector<std::int64_t> sum_y_;      // [s]
  std::vector<std::int64_t> sum_yy_;     // [s]
  std::vector<std::int64_t> class_n_;    // [class]
  // 64-byte aligned, so an 8-sample row is one cache line for the AVX2
  // fold kernels.
  AlignedVector<std::int64_t> class_y_;  // [class * samples_ + s]
};

/// Sixteen XorClassCpa accumulators fused behind one capture stream: the
/// full-key attack captures each trace once and labels it sixteen times,
/// one (v, b) class pair per targeted key byte. The reading sums that do
/// not depend on the byte (sum_y, sum_yy) are shared, so a trace costs
/// one shared pass plus sixteen class-row updates instead of sixteen
/// full campaigns.
///
/// Layout: the per-byte class tables are tiled byte-major —
/// class_n_[byte][class] and class_y_[byte][class][sample] — so
/// fold(byte, ...) reads one contiguous 512 x S tile, the shape
/// add_block scatters into.
///
/// Exactness: each byte's slice holds exactly the integer sums a
/// standalone XorClassCpa fed the same (v, b, y) stream would hold
/// (exact int64 addition is order-free), so fold(byte, pattern) is
/// bit-identical to the standalone engine's fold — the property the
/// fused-vs-single-byte equivalence tests pin.
class MultiByteCpa {
 public:
  static constexpr std::size_t kBytes = 16;

  explicit MultiByteCpa(std::size_t sample_count);

  std::size_t sample_count() const { return samples_; }
  std::size_t trace_count() const { return n_; }

  /// One trace: 16 class values, 16 class bits (index = key byte
  /// position), readings y (size sample_count).
  void add_trace(const std::uint8_t* v16, const std::uint8_t* b16,
                 const std::vector<double>& y);

  /// A block of `count` traces: v and b are count x 16 trace-major label
  /// rows (v[t * 16 + byte]), y is count x sample_count trace-major
  /// readings. The same routine as XorClassCpa::add_block, run over
  /// sixteen class tables: the readings are staged once, then each
  /// byte's table takes one scatter pass (int64 rows below 512 traces,
  /// the int32 class tile from 512 up). Each byte slice ends with the
  /// same exact sums as `count` add_trace calls.
  void add_block(const std::uint8_t* v, const std::uint8_t* b,
                 const double* y, std::size_t count);

  /// Fold another accumulator's traces into this one (shard merges).
  void merge(const MultiByteCpa& other);

  /// Expand one byte's slice into a full 256-guess CpaEngine under that
  /// byte's 256-entry 0/1 pattern table. Bit-identical to the fold of a
  /// standalone XorClassCpa fed the same per-byte stream.
  CpaEngine fold(std::size_t byte, const std::uint8_t* pattern256) const;

  /// Bit-exact checkpoint serialization, mirror of XorClassCpa::save/load
  /// (load() checks every byte slice's class state the same way).
  void save(ByteWriter& out) const;
  void load(ByteReader& in);

 private:
  static constexpr std::size_t kClasses = 512;  // (v << 1) | b

  std::size_t samples_;
  std::size_t n_ = 0;
  std::vector<std::int64_t> sum_y_;    // [s], shared across bytes
  std::vector<std::int64_t> sum_yy_;   // [s], shared across bytes
  std::vector<std::int64_t> class_n_;  // [byte * kClasses + class]
  // [(byte * kClasses + class) * samples_ + s], 64-byte aligned.
  AlignedVector<std::int64_t> class_y_;
};

/// One checkpoint of a CPA campaign's convergence (Figs. 9b-18b).
struct CpaProgressPoint {
  std::size_t traces = 0;
  std::vector<double> max_abs_corr;  ///< per guess
  std::size_t best_guess = 0;
  std::size_t correct_rank = 0;      ///< 0 = correct guess leads
  double correct_corr = 0.0;
  double best_wrong_corr = 0.0;
};

/// Evaluate a progress point from an engine, given the correct guess.
CpaProgressPoint snapshot_progress(const CpaEngine& engine,
                                   std::size_t correct_guess);

}  // namespace slm::sca
