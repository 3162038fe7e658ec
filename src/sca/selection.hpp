// Post-processing of benign-sensor toggle words (Sec. V-A of the paper):
// find the endpoints that fluctuate at all ("sensitive bits"), rank them
// by variance ("bits of interest", Figs. 8 and 16), and reduce a word to
// a scalar reading via the Hamming weight over selected bits.
#pragma once

#include <cstddef>
#include <vector>

#include "common/bitvec.hpp"
#include "common/stats.hpp"

namespace slm::sca {

struct BitStat {
  std::size_t index = 0;
  std::size_t ones = 0;        ///< samples in which the bit was 1
  std::size_t samples = 0;
  double mean = 0.0;
  double variance = 0.0;       ///< Bernoulli variance over the campaign
};

/// Streaming per-bit statistics over toggle words.
class BitSelector {
 public:
  explicit BitSelector(std::size_t bit_count);

  void add(const BitVec& toggle_word);

  /// Merge a pre-accumulated batch: `ones[i]` one-counts per bit over
  /// `samples` toggle words. Equivalent to `samples` add() calls — the
  /// compiled selection pre-pass accumulates counts directly and lands
  /// them here in one step.
  void add_batch(const std::vector<std::size_t>& ones, std::size_t samples);

  /// Add another selector's counts (same width); exact, so shards merge
  /// in any order to the same statistics.
  void merge(const BitSelector& other) { add_batch(other.ones_, other.samples_); }

  std::size_t bit_count() const { return ones_.size(); }
  std::size_t sample_count() const { return samples_; }

  BitStat stat(std::size_t i) const;
  std::vector<BitStat> stats() const;

  /// Bits that changed value at least once (the paper's "sensitive" set).
  std::vector<std::size_t> fluctuating_bits() const;

  /// Bits with variance >= min_variance, ordered by index.
  std::vector<std::size_t> bits_of_interest(double min_variance) const;

  /// Index of the highest-variance bit (the Fig. 12/18 single-bit pick).
  std::size_t highest_variance_bit() const;

  /// Per-bit variances (index-aligned).
  std::vector<double> variances() const;

 private:
  std::size_t samples_ = 0;
  std::vector<std::size_t> ones_;
};

/// Hamming weight of a word restricted to the given bit indices — the
/// paper's scalar sensor reading.
std::size_t hamming_weight_over(const BitVec& word,
                                const std::vector<std::size_t>& bits);

/// Fraction of `subset` contained in `superset` (used for the Fig. 7/15
/// claim that AES-sensitive bits are a subset of RO-sensitive bits).
double subset_fraction(const std::vector<std::size_t>& subset,
                       const std::vector<std::size_t>& superset);

}  // namespace slm::sca
