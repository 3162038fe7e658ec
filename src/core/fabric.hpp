// Distributed campaign fabric (docs/DISTRIBUTED.md): shard workers that
// capture any contiguous trace range of a contract-v2 campaign and emit
// CRC'd `SLMSNAP1` accumulator snapshots, plus the merge/coordinate side
// — a range ledger that refuses overlaps and finds gaps, order-invariant
// snapshot merging, and a local multi-process coordinator that reissues
// dead or incomplete shards' exact trace ranges. Because contract v2
// derives every trace from (seed, trace_index) and the CPA accumulators
// are integer-valued sums, a merged fabric run is byte-identical to a
// one-shard engine run for every split (tests/core/fabric_test.cpp,
// tools/fabric_smoke.cmake).
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/campaign.hpp"
#include "core/setup.hpp"
#include "sca/cpa.hpp"

namespace slm::obs {
class CampaignObserver;
}

namespace slm::core {

/// `SLMSNAP1` wire version (independent of kCheckpointVersion: snapshots
/// carry only identity + covered ranges + one accumulator blob, no
/// engine-topology state, so they survive thread/block-count changes).
inline constexpr std::uint32_t kSnapshotVersion = 1;

/// A snapshot file is structurally unusable: missing, truncated, wrong
/// magic/version, CRC failure, or a malformed payload. CLI exit code 7.
class SnapshotFormatError : public Error {
 public:
  using Error::Error;
};

/// Snapshots describe different campaigns (seed / contract / config
/// fingerprint mismatch) and must never be merged. CLI exit code 8.
class SnapshotMismatch : public Error {
 public:
  using Error::Error;
};

/// Trace-range bookkeeping violation: overlapping ranges (a silent
/// double-count), out-of-bounds or empty ranges, or a merge --report on
/// incomplete coverage. CLI exit code 9.
class SnapshotRangeError : public Error {
 public:
  using Error::Error;
};

/// Half-open range of global zero-based trace indices [begin, end).
struct TraceRange {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;

  std::uint64_t count() const { return end - begin; }
  bool operator==(const TraceRange& o) const {
    return begin == o.begin && end == o.end;
  }
};

/// Split [0, total) into `shards` contiguous ranges — the same
/// `i*total/N` arithmetic the sharded engine uses per segment, so a
/// worker's range is always computable from (total, N, i) alone. Shard
/// ranges may be empty when shards > total.
std::vector<TraceRange> plan_shards(std::uint64_t total, unsigned shards);

/// Coverage ledger over [0, total): which global traces are accounted
/// for by at least one snapshot. cover() refuses any overlap with an
/// SnapshotRangeError — a double-counted range would silently bias every
/// correlation, so it can never be "mostly fine".
class RangeLedger {
 public:
  explicit RangeLedger(std::uint64_t total);

  /// Add a covered range; throws SnapshotRangeError on empty/
  /// out-of-bounds/overlapping input. Adjacent ranges coalesce.
  void cover(TraceRange r);

  bool complete() const { return covered() == total_; }
  std::uint64_t covered() const;
  std::uint64_t total() const { return total_; }

  /// Coalesced covered ranges, sorted ascending.
  const std::vector<TraceRange>& ranges() const { return ranges_; }

  /// The gaps: exactly the ranges a coordinator must (re)issue.
  std::vector<TraceRange> missing() const;

 private:
  std::uint64_t total_;
  std::vector<TraceRange> ranges_;
};

/// Everything that determines a trace's value under contract v2. Two
/// snapshots merge only if ALL of this matches; the fingerprint is the
/// CRC-32 of its canonical serialization. Thread count, block size, and
/// shard index are deliberately absent — under v2 they cannot change a
/// single reading, and the whole point of the fabric is merging across
/// them.
struct SnapshotIdentity {
  std::uint32_t circuit = 0;       ///< BenignCircuit
  std::uint32_t mode = 0;          ///< SensorMode
  std::uint64_t seed = 0;
  std::uint64_t total_traces = 0;  ///< full campaign budget, not the range
  std::uint64_t samples = 0;
  std::uint64_t target_key_byte = 0;
  std::uint64_t target_bit = 0;
  std::uint64_t single_bit = 0;    ///< resolved (post-selection) bit
  std::uint8_t compiled = 1;        ///< 0 = retired reference kernels
  std::uint32_t rng_contract = 2;  ///< 1 = retired sequential streams
  std::uint8_t fullkey = 0;

  std::uint32_t fingerprint() const;
  bool operator==(const SnapshotIdentity& o) const;
};

/// One shard's (or one merge's) worth of campaign state: identity,
/// covered trace ranges, and the raw accumulator blob (MultiByteCpa for
/// full-key, XorClassCpa otherwise — the existing save/load formats,
/// unchanged).
struct AccumulatorSnapshot {
  SnapshotIdentity id;
  std::vector<TraceRange> ranges;       ///< sorted, disjoint
  std::vector<std::uint8_t> accumulator;
  std::string source;                   ///< load path, for diagnostics only
};

/// Write `snap` as an SLMSNAP1 file (atomic tmp+rename, CRC'd framed
/// envelope shared with SLMCKPT1). Returns bytes written.
std::size_t save_snapshot(const std::string& path,
                          const AccumulatorSnapshot& snap);

/// Load and fully validate an SLMSNAP1 file. Throws SnapshotFormatError
/// (missing/corrupt/foreign file, fingerprint inconsistency) or
/// SnapshotRangeError (unsorted/overlapping/out-of-bounds ranges).
AccumulatorSnapshot load_snapshot(const std::string& path);

/// Merge snapshots in the given order (any order: bit-identical, the
/// accumulators are integer-valued sums). Throws SnapshotMismatch when
/// identities differ, SnapshotRangeError when covered ranges overlap.
/// Gaps are allowed — a coordinator merges partial snapshots and fills
/// the holes later; `merge --report` is what insists on completeness.
AccumulatorSnapshot merge_snapshots(
    const std::vector<AccumulatorSnapshot>& parts);

/// Fold a snapshot's accumulator into per-guess CPA sums for one key
/// byte (any byte for full-key snapshots; the snapshot's own target byte
/// otherwise). Bit-identical to the engines' checkpoint fold.
sca::CpaEngine fold_snapshot_byte(const AccumulatorSnapshot& snap,
                                  std::size_t key_byte);

/// One worker assignment: capture [range.begin, range.end) of the
/// campaign and write snapshots to `snapshot_out`.
struct FabricJob {
  TraceRange range;
  std::string snapshot_out;
  /// Also snapshot every N traces within the range (0 = final only).
  /// Each intermediate snapshot covers [range.begin, boundary) — the
  /// file is always a complete, mergeable prefix of the assignment.
  std::uint64_t snapshot_every = 0;
  /// Halt (throw CampaignHalted) after this many traces INTO the range,
  /// right after the covering snapshot lands — the deterministic stand-
  /// in for a worker dying mid-range (0 = off).
  std::uint64_t halt_after = 0;
};

/// Captures any contiguous trace range of a contract-v2 campaign,
/// bit-identically to the traces the serial engine would assign those
/// indices. Runs the selection pre-pass once (deterministic from the
/// config seed, so every worker of a campaign resolves the same bits).
class FabricWorker {
 public:
  /// `cfg` must be the exact campaign config of the serial run being
  /// distributed (StealthyAttack::byte_campaign_config /
  /// fullkey_campaign_config build it).
  FabricWorker(AttackSetup& setup, const CampaignConfig& cfg, bool fullkey);

  /// The campaign identity (selection pre-pass runs on first call).
  const SnapshotIdentity& identity();

  /// Capture the job's range and write the snapshot(s). Returns the
  /// final snapshot; throws CampaignHalted after a halt_after boundary.
  AccumulatorSnapshot run(const FabricJob& job);

 private:
  AttackSetup& setup_;
  CpaCampaign campaign_;
  bool fullkey_;
  bool resolved_ = false;
  std::vector<std::size_t> bits_;
  SnapshotIdentity id_;
};

/// Shared coordinator-side view of worker progress, written by the
/// per-worker JSONL monitor threads and read concurrently by the
/// coordinator loop (raced under TSan by the fabric_tsan ctest entry).
class FabricProgress {
 public:
  void reset(std::size_t workers);
  void update(std::size_t worker, std::uint64_t covered_end);
  std::uint64_t covered(std::size_t worker) const;
  std::uint64_t total_covered() const;

 private:
  mutable std::mutex m_;
  std::vector<std::uint64_t> covered_;
};

struct CoordinateOptions {
  std::string slm_binary;               ///< worker executable (slm)
  std::vector<std::string> worker_args; ///< attack config args, verbatim
  std::string work_dir;                 ///< snapshots + worker JSONL live here
  std::uint64_t total_traces = 0;
  unsigned shards = 4;
  std::uint64_t snapshot_every = 0;
  unsigned max_reissue_rounds = 4;
  /// Fault injection: pass --halt-after to this first-round shard so it
  /// dies mid-range (-1 = off); kill_after is range-relative traces.
  int kill_shard = -1;
  std::uint64_t kill_after = 0;
  obs::CampaignObserver* observer = nullptr;
};

struct CoordinateResult {
  std::string merged_path;
  unsigned workers_spawned = 0;
  unsigned worker_failures = 0;
  unsigned ranges_reissued = 0;
  std::size_t snapshots_merged = 0;
};

/// Drive `opt.shards` local `slm attack --range --snapshot-out` worker
/// subprocesses to full coverage of [0, total_traces): spawn a round,
/// track per-shard progress from each worker's JSONL event stream,
/// reap, salvage whatever complete snapshot prefix a dead worker left
/// behind, and reissue exactly the missing ranges until the ledger is
/// complete; then merge everything into `work_dir`/merged.snap.
CoordinateResult coordinate_local(const CoordinateOptions& opt);

}  // namespace slm::core
