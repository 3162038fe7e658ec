// The fold steps shared by the live capture engines (core/campaign.cpp)
// and store replay (store/replay.cpp): the checkpoint
// schedule, the label step and the full-key early-exit tracker. Written
// once, below both core and store, so a replay reproduces the live run's
// decisions bit for bit.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "crypto/aes128.hpp"
#include "sca/cpa.hpp"
#include "sca/model.hpp"
#include "sca/mtd.hpp"

namespace slm::sca {

/// Default log-spaced checkpoint schedule up to `traces`.
std::vector<std::size_t> default_checkpoints(std::size_t traces);

/// The one checkpoint-schedule rule: `requested` when non-empty, else
/// default_checkpoints(traces); sorted, with 0 and anything above
/// `traces` dropped, and always ending at `traces`. Every engine, store
/// replay, the CLI and serve fold at exactly these counts.
std::vector<std::size_t> checkpoint_schedule(
    const std::vector<std::size_t>& requested, std::size_t traces);

/// The models of all sixteen last-round key bytes at predicted bit `bit`.
std::vector<LastRoundBitModel> key_byte_models(std::size_t bit);

/// The label step: the class value and bit of `n` ciphertexts (16 bytes
/// each, back to back) under every model, trace-major — models.size()
/// labels per trace into v and b, the layout XorClassCpa::add_block (one
/// model) and MultiByteCpa::add_block (sixteen) take.
void label_classes(const std::vector<LastRoundBitModel>& models,
                   const std::uint8_t* ct, std::size_t n, std::uint8_t* v,
                   std::uint8_t* b);

/// Knobs of the fused full-key campaign (docs/FULLKEY.md). Early exit is
/// attacker-observable: a byte "converges" when its CPA winner has been
/// stable with a sufficient correlation margin over `stable` consecutive
/// checkpoints. Converged bytes freeze their reported result and stop
/// paying the per-checkpoint class fold (a 256-point Walsh-Hadamard
/// transform per sample, sca/cpa.hpp); the shared capture keeps
/// feeding their accumulator slice, so turning early exit off only adds
/// fold work — the accumulators (and therefore any later fold) are
/// unchanged.
struct FullKeyConfig {
  bool early_exit = true;

  /// Margin |r_best| - |r_second| a byte's winner must hold.
  double early_exit_margin = 0.08;

  /// Consecutive qualifying checkpoints (same winner as the previous
  /// checkpoint, margin met) before the byte freezes.
  std::size_t early_exit_stable = 2;

  /// Never freeze before this many traces (the margin estimate is noise
  /// at the head of the log-spaced schedule).
  std::size_t early_exit_min_traces = 1000;
};

/// Per-byte outcome of a fused full-key fold. `traces` is the trace
/// count this byte's reported result was folded at: the last
/// checkpoint, or the freeze point when early exit fired.
struct FullKeyByteResult {
  std::uint8_t correct = 0;     ///< true last-round key byte
  std::uint8_t recovered = 0;   ///< CPA winner
  bool success = false;
  bool early_exited = false;
  std::size_t traces = 0;
  MtdResult mtd;
  std::vector<CpaProgressPoint> progress;
  std::vector<double> final_max_abs_corr;  ///< per key candidate
};

/// The full-key early-exit tracker: folds a MultiByteCpa at each
/// checkpoint, one progress point per still-active byte, and applies the
/// minimum-trace, margin and stability gates of FullKeyConfig. The
/// results live in a caller-owned array of sixteen FullKeyByteResult.
class EarlyExitTracker {
 public:
  static constexpr std::size_t kBytes = MultiByteCpa::kBytes;

  /// Per-byte decision state. A checkpoint holds it verbatim so a
  /// resumed run freezes the same bytes at the same checkpoints.
  struct ByteState {
    bool converged = false;
    std::size_t stable = 0;
    std::size_t prev_best = 256;  ///< 256 = no previous checkpoint yet
  };

  /// A byte that froze at this checkpoint, with its winner margin.
  struct Freeze {
    std::size_t byte = 0;
    double margin = 0.0;
  };

  /// Models every byte at predicted bit `target_bit`; sets each byte's
  /// `correct` from the true last round key.
  EarlyExitTracker(const FullKeyConfig& cfg, std::size_t target_bit,
                   const crypto::Block& true_last_round_key,
                   std::array<FullKeyByteResult, kBytes>& bytes);

  const std::vector<LastRoundBitModel>& models() const { return models_; }

  /// Decision state, for checkpoint save and restore.
  std::array<ByteState, kBytes>& state() { return state_; }
  std::size_t converged() const;

  /// Fold every active byte at checkpoint `traces` and observe() it;
  /// returns the bytes that froze here, in byte order.
  std::vector<Freeze> fold_at(const MultiByteCpa& acc, std::size_t traces);

  /// Record byte j's progress point at checkpoint `traces` and apply the
  /// gates. Returns the winner margin when the byte froze here.
  std::optional<double> observe(std::size_t j, CpaProgressPoint p,
                                std::size_t traces);

  /// Freeze byte j's reported result (a gate fired, or a checkpoint
  /// restores a frozen byte).
  void freeze(std::size_t j, std::uint8_t recovered, std::size_t traces,
              std::vector<double> corr);

  /// Report every unfrozen byte at its last progress point (the schedule
  /// ends at the budget) and estimate every byte's MTD.
  void finish();

 private:
  FullKeyConfig cfg_;
  std::vector<LastRoundBitModel> models_;
  std::array<FullKeyByteResult, kBytes>& bytes_;
  std::array<ByteState, kBytes> state_{};
};

}  // namespace slm::sca
