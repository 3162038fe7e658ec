// High-level facade: "misuse this benign circuit, steal that key byte".
// This is the API the examples exercise; everything underneath is the
// composable machinery (AttackSetup / CpaCampaign / BitstreamChecker).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bitstream/checker.hpp"
#include "core/campaign.hpp"
#include "core/setup.hpp"

namespace slm::core {

struct KeyByteReport {
  std::size_t key_byte = 0;
  std::uint8_t true_value = 0;
  std::uint8_t recovered = 0;
  bool success = false;
  std::size_t traces = 0;
  /// Fused full-key campaigns only: this byte froze via early exit (its
  /// guess and margin stabilized before the trace budget ran out).
  bool early_exited = false;
  sca::MtdResult mtd;
  unsigned threads_used = 0;     ///< workers the campaign ran on
  double capture_seconds = 0.0;  ///< campaign wall time (traces/sec)
  std::size_t block_size = 0;    ///< effective trace-block size

  /// Observability passthrough (see CampaignResult): observer-gated
  /// kernel/CPA phase split, snapshot bookkeeping.
  double kernel_seconds = 0.0;
  double cpa_seconds = 0.0;
  double checkpoint_io_seconds = 0.0;
  double selection_seconds = 0.0;
  std::size_t resumed_from = 0;
  std::string snapshot_path;
};

/// Cross-cutting run options shared by every campaign entry point:
/// observability hooks and crash-safe checkpoint/resume. Defaults are
/// all-off — the zero-overhead path.
struct RunOptions {
  obs::CampaignObserver* observer = nullptr;  ///< borrowed, may be null
  std::string checkpoint_dir;                 ///< empty = no snapshots
  bool resume = false;                        ///< continue from snapshot
  std::size_t halt_after_traces = 0;          ///< simulated kill (0 = off)
  std::size_t block = 0;   ///< trace-block size (0 = SLM_BLOCK / default)
  bool simd = true;        ///< false forces the scalar block kernels
  /// Externally-owned worker pool (borrowed, may be null): shard the
  /// campaign over this pool instead of a private one, its size
  /// overriding the `threads` knob of CpaCampaign::run(threads). How
  /// `slm serve` multiplexes many tenants' jobs over one shared
  /// core::ThreadPool (see CampaignConfig::pool).
  ThreadPool* pool = nullptr;
  /// Borrowed set-up memo (may be null): reuse the PDN response matrix
  /// and the sensor pre-pass across campaigns that share their inputs
  /// (see CampaignConfig::setup_memo). `slm serve` lends its own.
  SetupMemo* setup_memo = nullptr;
  /// Non-empty: also persist every captured trace to an SLMTRC1 store
  /// at this path (`slm capture --store-out`; see docs/STORE.md).
  /// Incompatible with resume.
  std::string store_out;
};

/// Options for the full-key entry point: the fused engine's early-exit
/// knobs and the shared run options (observer / checkpointing / store).
struct FullKeyOptions {
  FullKeyConfig fused;
  RunOptions run;
};

class StealthyAttack {
 public:
  StealthyAttack(BenignCircuit circuit,
                 Calibration cal = Calibration::paper_defaults(),
                 std::uint64_t seed = 0x51);

  AttackSetup& setup() { return setup_; }

  // All recover_* calls take a `threads` knob: 0 (the default) uses
  // hardware_concurrency, 1 runs one shard on the calling thread, and
  // N > 1 shards the trace capture across N workers. The results are
  // bit-identical for every thread count; see DESIGN.md for the full
  // determinism contract.

  /// Recover one last-round key byte with the given sensor mode. The
  /// RunOptions overload attaches an observer and/or crash-safe
  /// checkpointing (`slm attack --checkpoint-dir/--resume/--trace-out`
  /// route through it); the default overload is the zero-overhead path.
  KeyByteReport recover_key_byte(std::size_t key_byte, std::size_t traces,
                                 SensorMode mode = SensorMode::kBenignHw,
                                 unsigned threads = 0);
  KeyByteReport recover_key_byte(std::size_t key_byte, std::size_t traces,
                                 SensorMode mode, unsigned threads,
                                 const RunOptions& opts);

  struct FullKeyReport {
    std::vector<KeyByteReport> bytes;     ///< one entry per key byte
    crypto::Block last_round_key{};       ///< assembled from the campaigns
    crypto::Block master_key{};           ///< inverse key schedule
    bool success = false;                 ///< all 16 bytes correct
    /// Traces of the one shared capture pass (16 single-byte campaigns
    /// would capture 16x as many at equal per-byte budgets).
    std::size_t traces_captured = 0;
    double capture_seconds = 0.0;  ///< campaign wall time (traces/sec)
    unsigned threads_used = 0;     ///< shards the campaign ran on
    std::size_t block_size = 0;
    std::size_t bytes_early_exited = 0;  ///< frozen before the budget
    std::size_t resumed_from = 0;        ///< snapshot resume point
    std::string snapshot_path;           ///< last snapshot written
  };

  /// The complete break: recover all 16 last-round key bytes and invert
  /// the key schedule back to the AES master key. The fused engine
  /// captures ONE shared trace stream and folds all 16 bytes' CPA sums
  /// out of it (sca::MultiByteCpa), with per-byte early exit once a
  /// byte's winning guess and margin stabilize. The result is bit-
  /// identical for any thread count, block size, and SIMD toggle — and
  /// per byte to a single-byte campaign over the same config.
  FullKeyReport recover_full_key(std::size_t traces,
                                 SensorMode mode = SensorMode::kTdcFull,
                                 unsigned threads = 0);
  FullKeyReport recover_full_key(std::size_t traces, SensorMode mode,
                                 unsigned threads,
                                 const FullKeyOptions& opts);

  /// The shared capture config of the full-key campaign: one seed plan
  /// for the whole key and a sampling window bracketing every byte's
  /// leakage cycle. The capture stream is model-independent, so a
  /// single-byte campaign that overrides only target_key_byte folds
  /// bit-identical sums for that byte.
  CampaignConfig fullkey_campaign_config(std::size_t traces,
                                         SensorMode mode) const;

  /// Run the bitstream checker over the benign circuit — the stealthiness
  /// claim: no findings under structural checks.
  bitstream::CheckReport check_stealthiness(
      const bitstream::CheckerOptions& opt = {}) const;

  /// Campaign configuration for one byte campaign (shared between the
  /// engines and fabric shard workers, which must run the byte-for-byte
  /// identical config).
  CampaignConfig byte_campaign_config(std::size_t key_byte,
                                      std::size_t traces,
                                      SensorMode mode) const;

 private:
  Calibration cal_;
  AttackSetup setup_;
  std::uint64_t seed_;
};

}  // namespace slm::core
