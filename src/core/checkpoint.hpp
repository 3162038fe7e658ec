// Crash-safe campaign snapshots: everything a CPA campaign needs to
// continue bit-exactly after a kill — per-shard positions and CPA
// accumulator sums and the progress curve so far. Every capture stream
// re-derives from (seed, trace index), so no RNG state is saved; the
// stream-state fields of the format stay zero.
//
// File format (docs/OBSERVABILITY.md documents it for operators):
//
//   magic   "SLMCKPT1"                 8 bytes
//   version u32                        currently 4 (version 2 added the
//                                      trace-block size, version 3 the
//                                      RNG determinism contract,
//                                      version 4 the full-key section);
//                                      readers reject other versions
//                                      (no silent migration of attack
//                                      state)
//   length  u64                        payload byte count
//   crc     u32                        CRC-32 of the payload
//   payload                            header + shards + progress,
//                                      little-endian, raw IEEE-754
//                                      doubles (see checkpoint.cpp).
//                                      The engines accumulate in int64
//                                      now; the sums bridge through
//                                      these double fields exactly
//                                      (every in-budget sum < 2^53), so
//                                      the format and old snapshots are
//                                      unchanged — no version bump.
//
// Durability contract: snapshots are written to `<dir>/campaign.ckpt`
// via a temp file + atomic rename, so the file is always either the
// previous complete snapshot or the new complete snapshot — a kill at
// any instant (including mid-write) never leaves a torn checkpoint.
// Corruption (bad magic/version/CRC/truncation) fails loudly on load.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "crypto/aes_datapath.hpp"
#include "sca/cpa.hpp"

namespace slm::core {

inline constexpr std::uint32_t kCheckpointVersion = 4;

/// Thrown when a campaign with `halt_after_traces` set reaches that
/// trace count at a checkpoint: the snapshot is on disk, the process
/// "dies". The kill-at-checkpoint integration tests and the
/// `slm attack --halt-after` flag use this to simulate a crash
/// deterministically; a real kill -9 is equivalent because snapshots
/// are atomic.
class CampaignHalted : public Error {
 public:
  CampaignHalted(std::size_t traces, std::string snapshot_path)
      : Error("campaign halted after " + std::to_string(traces) +
              " traces; snapshot at '" + snapshot_path + "'"),
        traces_(traces),
        snapshot_path_(std::move(snapshot_path)) {}

  std::size_t traces() const { return traces_; }
  const std::string& snapshot_path() const { return snapshot_path_; }

 private:
  std::size_t traces_;
  std::string snapshot_path_;
};

/// Thrown on resuming a snapshot written under another RNG contract
/// than v2 — in practice the retired sequential-stream contract v1,
/// whose trace streams no engine can continue. The CLI maps it to its
/// own exit code (6) so drills and operators can tell "wrong contract"
/// apart from "halted" (5) or "key not recovered" (4).
class CheckpointContractMismatch : public Error {
 public:
  explicit CheckpointContractMismatch(std::uint32_t snapshot_contract)
      : Error("resume: snapshot was written under RNG contract v" +
              std::to_string(snapshot_contract) +
              "; contract v1 (sequential streams) is retired and only v2 "
              "snapshots resume — start fresh") {}
};

/// One shard's capture state. `accumulator` is the opaque payload of
/// XorClassCpa::save (MultiByteCpa::save for full-key snapshots); `rng`,
/// `victim` and `fence_rng` held the retired contract v1's stream state
/// and stay zero.
struct CheckpointShard {
  std::uint64_t position = 0;  ///< traces this shard has captured
  std::array<std::uint64_t, 4> rng{};
  crypto::AesDatapathModel::RegisterSnapshot victim{};
  bool has_fence = false;
  std::array<std::uint64_t, 4> fence_rng{};
  std::vector<std::uint8_t> accumulator;
};

/// Per-byte convergence state of a fused full-key campaign (see
/// docs/FULLKEY.md): the progress curve recorded so far, the early-exit
/// counters, and — once the byte has converged — the frozen result. The
/// shared capture keeps accumulating for frozen bytes (the accumulator
/// blob lives in CheckpointShard as usual); only the per-checkpoint fold
/// stops, so this state is what lets a resumed run report the same
/// per-byte trace counts as an uninterrupted one.
struct FullKeyByteCheckpoint {
  bool converged = false;
  std::uint64_t stable = 0;          ///< consecutive qualifying checkpoints
  std::uint64_t prev_best = 256;     ///< best guess last checkpoint; 256 = none
  std::uint64_t frozen_traces = 0;   ///< trace count at convergence
  std::uint8_t recovered = 0;        ///< frozen winner (converged only)
  std::vector<double> frozen_corr;   ///< per-guess |r| at convergence
  std::vector<sca::CpaProgressPoint> progress;
};

/// A complete, self-validating campaign snapshot.
struct CampaignCheckpoint {
  // Identity block — resume refuses to continue under a different
  // configuration (seed, budget, sensor mode, shard count, sampling
  // window, kernel path, CPA target), because the result would silently
  // differ from the uninterrupted run.
  std::uint64_t seed = 0;
  std::uint64_t total_traces = 0;
  std::uint32_t mode = 0;
  std::uint32_t shards = 0;
  std::uint64_t samples = 0;
  std::uint64_t target_key_byte = 0;
  std::uint64_t target_bit = 0;
  std::uint64_t single_bit = 0;
  /// Always true: `false` marked the retired reference-kernel
  /// (CpaEngine) accumulators, which resume refuses.
  bool compiled = true;

  /// Effective trace-block size of the run that wrote the snapshot —
  /// informational run metadata (it matches CampaignResult::block_size
  /// and the bench JSON). Resume does NOT require it to match: block
  /// size never affects results, only how the loop is tiled.
  std::uint64_t block = 0;

  /// RNG determinism contract of the run that wrote the snapshot (2 =
  /// counter-keyed per-trace streams; 1 = the retired sequential
  /// streams, which resume refuses). See DESIGN.md §12.
  std::uint32_t rng_contract = 2;

  /// Fused full-key snapshot (format version 4): the shard accumulators
  /// are sca::MultiByteCpa blobs and `fullkey_bytes` carries the 16
  /// per-byte convergence states; `progress` stays empty. Resume REQUIRES
  /// a match — a single-byte run cannot continue a full-key snapshot or
  /// vice versa.
  bool fullkey = false;

  std::uint64_t traces_done = 0;
  std::vector<CheckpointShard> shard_state;
  std::vector<sca::CpaProgressPoint> progress;
  std::vector<FullKeyByteCheckpoint> fullkey_bytes;  ///< 16 when fullkey
};

/// `<dir>/campaign.ckpt` — the one live snapshot of a campaign.
std::string checkpoint_file(const std::string& dir);

/// Serialize + CRC + atomically replace `<dir>/campaign.ckpt`
/// (creating `dir` if needed). Returns the byte size written.
std::size_t save_checkpoint(const std::string& dir,
                            const CampaignCheckpoint& ck);

/// Load and verify `<dir>/campaign.ckpt`. Returns nullopt when the file
/// does not exist (fresh start); throws slm::Error on bad magic,
/// version mismatch, CRC failure, or truncation.
std::optional<CampaignCheckpoint> load_checkpoint(const std::string& dir);

struct CampaignConfig;

/// Refuse to resume under a different configuration: seed, trace budget,
/// sensor mode, shard count, sample count, CPA target and resolved single
/// bit must all match the snapshot, or the resumed run would silently
/// diverge from the uninterrupted one. `cfg.single_bit` must already be
/// resolved (post resolve_sensor_bits). A snapshot of a retired path —
/// contract v1 (CheckpointContractMismatch) or the reference kernels
/// (compiled = 0) — is refused by name.
void require_checkpoint_matches(const CampaignCheckpoint& ck,
                                const CampaignConfig& cfg,
                                std::uint32_t shards, std::size_t samples,
                                bool fullkey = false);

}  // namespace slm::core
