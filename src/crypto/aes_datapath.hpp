// Cycle-accurate power model of the paper's AES hardware: a 32-bit
// datapath with four parallel S-boxes, so each round occupies four clock
// cycles (one state column per cycle) at 100 MHz.
//
// The model emits, per clock cycle, the Hamming distance of the state
// register column being overwritten — the canonical CMOS switching-power
// proxy — plus a data-independent base current. This is exactly the
// leakage the paper's last-round CPA exploits: at the cycle where column
// c of round 10 is written, the register flips state9[col c] -> ct[col c].
//
// Every entry runs one word-level core on packed 32-bit columns, each
// cycle's HD taken as popcount(register column ^ target column). It has
// two levels that give the same integers and the same current bits: the
// portable one runs the T-table rounds of Aes128::encrypt_columns, the
// AES-NI one builds the 11 round states with AESENC / AESENCLAST and, in
// the block entry, runs four unmasked traces at a time. Masked traces run
// the portable rounds at either level.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "crypto/aes128.hpp"

namespace slm::crypto {

struct DatapathConfig {
  double clock_mhz = 100.0;

  /// First-order boolean masking (hiding-in-the-datapath countermeasure,
  /// cf. the paper's related work [23, 26-28]): the state register holds
  /// two shares (state ^ m, m) with a fresh mask every round, so the
  /// register Hamming distance decorrelates from any unmasked state bit.
  /// Ciphertexts are unchanged; only the leakage model differs.
  bool masked = false;
  std::uint64_t mask_seed = 0x3a5c;

  /// Dynamic current per register bit flip (A per HD unit).
  double current_per_hd_a = 2.0e-3;

  /// Data-independent per-cycle current while the core is busy (A).
  double base_current_a = 0.080;

  /// Register state at the start of an encryption. Real hardware keeps
  /// the previous ciphertext; the model defaults to that behaviour.
  bool carry_previous_state = true;

  bool operator==(const DatapathConfig&) const = default;
};

class AesDatapathModel {
 public:
  /// Cycles per encryption: 4 load/ARK cycles + 10 rounds x 4 cycles.
  static constexpr std::size_t kCycles = 44;

  AesDatapathModel(const Block& key, const DatapathConfig& cfg);

  struct Encryption {
    Block plaintext{};
    Block ciphertext{};
    /// Hamming distance switched in each cycle (state register only).
    std::array<std::uint32_t, kCycles> cycle_hd{};
    /// Total current per cycle (base + HD-proportional), amps.
    std::array<double, kCycles> cycle_current{};
  };

  /// Run one encryption, updating the internal register state.
  Encryption encrypt(const Block& plaintext);

  /// Cycle index in which column `col` (0..3) of round `round` (1..10)
  /// is written; round 0 means the initial AddRoundKey/load.
  static std::size_t cycle_of(std::size_t round, std::size_t col);

  /// The cycle carrying the last-round leakage for state byte position
  /// `pos` (0..15): the write of column pos/4 in round 10.
  static std::size_t leakage_cycle_for_byte(std::size_t pos);

  double cycle_period_ns() const { return 1000.0 / cfg_.clock_mhz; }
  const DatapathConfig& config() const { return cfg_; }
  const Aes128& cipher() const { return aes_; }

  /// The mutable half of the model: the state register shares (which
  /// carry across encryptions and feed the Hamming-distance leakage) and
  /// the masking RNG position. encrypt_stateless and encrypt_block carry
  /// it in the caller's hands instead.
  struct RegisterSnapshot {
    Block register_state{};
    Block register_mask{};
    std::array<std::uint64_t, 4> mask_rng_state{};

    bool operator==(const RegisterSnapshot&) const = default;
  };
  RegisterSnapshot register_snapshot() const {
    return RegisterSnapshot{register_state_, register_mask_,
                            mask_rng_.state()};
  }

  /// Stateless variant for determinism contract v2 (DESIGN.md §12): run
  /// one encryption against a caller-owned register snapshot, advancing
  /// `regs` in place and leaving the model's internal state untouched.
  /// Mask draws come from the counter-keyed per-trace stream
  /// trace_stream(mask_seed, kTraceDomainMask, trace_index), so any lane
  /// can compute any trace's leakage without cross-trace RNG ordering.
  /// The per-cycle arithmetic is the exact expression sequence encrypt()
  /// evaluates, so with matching register/mask inputs the two paths are
  /// bit-identical.
  Encryption encrypt_stateless(const Block& plaintext,
                               std::uint64_t trace_index,
                               RegisterSnapshot& regs) const;

  /// The register snapshot left behind by trace `trace_index` under
  /// contract v2 (registers start zeroed at trace 0). Because every
  /// register share is fully overwritten during rounds 0..10, the
  /// outgoing snapshot depends only on (plaintext, trace_index) — this
  /// is what lets the sharded engines derive a chunk's incoming
  /// register state from the previous trace alone. It computes only
  /// that: the ciphertext and, masked, round 10's mask.
  RegisterSnapshot registers_after(const Block& plaintext,
                                   std::uint64_t trace_index) const;

  /// The levels of the core. Both compute the same HDs and currents;
  /// kAesni needs a CPU with AES-NI and AVX2.
  enum class Level : std::uint8_t { kPortable, kAesni };
  /// AES-NI and AVX2 present (CPUID, checked once per process).
  static bool aesni_supported();
  /// kAesni where aesni_supported() and the process-wide dispatch level
  /// (common/dispatch.hpp) is AVX2, else kPortable; so SLM_SIMD=scalar
  /// or sse2 runs the portable level. encrypt(), encrypt_stateless()
  /// and encrypt_block()'s default run this level.
  static Level active_level();

  /// What encrypt_block folds into each cycle's current after
  /// base + k * hd: a constant add (a constant fence's base current),
  /// then a scale (the victim-to-sensor coupling), each one rounded
  /// operation, so a current is ((base + k * hd) + add) * scale. The
  /// default folds nothing: x + (-0.0) and x * 1.0 return every double
  /// x as it is, -0.0 included.
  struct CurrentFold {
    double add = -0.0;
    double scale = 1.0;
  };

  /// Block entry of the core: traces first_trace .. first_trace + lanes
  /// - 1, each exactly as encrypt_stateless() runs it, with `regs`
  /// chained from lane to lane. Lane b's per-cycle current
  /// base + k * hd, folded by `fold`, goes to ic[c * stride + b]
  /// (cycle-major, the layout CycleResponseMatrix::voltages_block reads;
  /// stride >= lanes) and its ciphertext to ciphertexts[b]. `level` is a
  /// test and bench hook; callers keep the default.
  void encrypt_block(const Block* plaintexts, std::size_t lanes,
                     std::uint64_t first_trace, RegisterSnapshot& regs,
                     double* ic, std::size_t stride, Block* ciphertexts,
                     const CurrentFold& fold,
                     Level level = active_level()) const;

 private:
  Aes128 aes_;
  DatapathConfig cfg_;
  Block register_state_{};   // share 0; survives across encryptions
  Block register_mask_{};    // share 1 (masked mode only)
  Xoshiro256 mask_rng_{0};
};

}  // namespace slm::crypto
