// Deterministic, fast random number generation for simulation campaigns.
//
// Campaign hot loops draw hundreds of millions of Gaussians (one per
// endpoint per sample), so the normal generator uses a precomputed
// inverse-CDF table with linear interpolation instead of Box-Muller:
// one 64-bit xoshiro draw per normal, no transcendental functions.
// Accuracy (~1e-3 in quantile) is far below the physical noise sigmas.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/dispatch.hpp"

namespace slm {

/// Domain separators for counter-keyed per-trace streams (determinism
/// contract v2, DESIGN.md §12). Each consumer of per-trace randomness
/// derives its stream from trace_stream(seed, domain, trace_index) with
/// its own domain constant, so the capture draws, fence draws, and mask
/// draws of the same trace never collide.
inline constexpr std::uint64_t kTraceDomainCapture = 0;
inline constexpr std::uint64_t kTraceDomainFence = 1;
inline constexpr std::uint64_t kTraceDomainMask = 2;

/// xoshiro256** by Blackman & Vigna — fast, high-quality, 2^256-1 period.
class Xoshiro256 {
 public:
  explicit Xoshiro256(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  /// Inline: capture draws plaintext bytes one call at a time.
  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n).
  std::uint64_t uniform_int(std::uint64_t n);

  /// Random bit.
  bool coin() { return (next() >> 63) != 0; }

  /// Split off an independent stream (jump-free: reseeds via splitmix).
  Xoshiro256 fork();

  /// Deterministic independent stream for shard `stream_index` of a
  /// campaign seeded with `seed`: the same (seed, index) pair always
  /// yields the same stream, and distinct indices land in decorrelated
  /// regions of the state space (splitmix-mixed before seeding, same
  /// machinery as fork()). This is what sharded campaigns use so that
  /// results depend only on (seed, shard count), never on scheduling.
  static Xoshiro256 stream(std::uint64_t seed, std::uint64_t stream_index);

  /// Deterministic stateless per-trace stream: the same machinery as
  /// stream(), keyed on BOTH a stream/domain index and a trace counter.
  /// trace_stream(seed, d, t) depends only on its three arguments — no
  /// sequential draw ordering across traces — which is what lets
  /// determinism contract v2 generate traces in any order, on any lane,
  /// and still produce bit-identical campaigns (DESIGN.md §12).
  static Xoshiro256 trace_stream(std::uint64_t seed,
                                 std::uint64_t stream_index,
                                 std::uint64_t trace_index);

  /// The full 256-bit generator state. Saving state() and restoring it
  /// with set_state() resumes the stream at the exact draw position —
  /// this is how campaign checkpoints capture "RNG stream positions"
  /// (see core/checkpoint and docs/OBSERVABILITY.md).
  std::array<std::uint64_t, 4> state() const { return s_; }
  void set_state(const std::array<std::uint64_t, 4>& s) { s_ = s; }

  // UniformRandomBitGenerator interface (usable with <random> and
  // std::shuffle).
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }
  result_type operator()() { return next(); }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> s_{};
};

/// Standard-normal generator backed by an inverse-CDF lookup table.
class FastNormal {
 public:
  FastNormal();

  /// One standard normal variate, consuming one RNG draw.
  double operator()(Xoshiro256& rng) const;

  /// Normal with the given mean and standard deviation.
  double operator()(Xoshiro256& rng, double mean, double sigma) const {
    return mean + sigma * (*this)(rng);
  }

  /// Fill `out[0..n)` with standard normals, consuming exactly n RNG
  /// draws in order — out[i] is bit-identical to the i-th operator()
  /// call on the same stream. Batched capture kernels draw their whole
  /// jitter block through this and stay on the per-call RNG contract.
  void fill(Xoshiro256& rng, double* out, std::size_t n) const;

  /// Lane-block fill: lane l < lanes writes n standard normals from its
  /// own stream rngs[l] to out[l * stride + i], i < n (stride >= n).
  /// Each lane's values and its final stream state are bit-identical to
  /// fill(rngs[l], out + l * stride, n), which is what the scalar level
  /// runs. The AVX2 level steps four lanes' xoshiro states per ymm and
  /// converts the index and fraction bits exactly (no FMA); SSE2 runs
  /// the scalar entry. DESIGN.md §8 has why the bits cannot differ.
  void fill_lanes(Xoshiro256* rngs, std::size_t lanes, double* out,
                  std::size_t n, std::size_t stride,
                  DispatchLevel level) const;

  /// Shared immutable instance (table is ~8 KiB, build it once).
  static const FastNormal& instance();

 private:
  static constexpr int kTableBits = 12;
  static constexpr int kTableSize = 1 << kTableBits;  // 4096 entries
  // A draw's table index is its top kTableBits bits; interpolation reads
  // quantile_[idx + 1], so the largest index must stay inside the table.
  static_assert((~std::uint64_t{0} >> (64 - kTableBits)) + 1 <=
                    static_cast<std::uint64_t>(kTableSize),
                "FastNormal: table index + 1 must not pass kTableSize");
  std::array<double, kTableSize + 1> quantile_{};
};

/// Lane-block byte draws: lane l < lanes writes the low byte of each of
/// its next n draws, rngs[l].next(), to out[l * stride + i], i < n
/// (stride >= n) — a capture block's plaintexts. Values and final states
/// are bit-identical at every level; AVX2 steps four lanes per ymm, SSE2
/// runs the scalar entry.
void fill_bytes_lanes(Xoshiro256* rngs, std::size_t lanes, std::uint8_t* out,
                      std::size_t n, std::size_t stride, DispatchLevel level);

}  // namespace slm
