// Sharded, deterministic, multi-threaded CPA campaigns.
//
// ParallelCampaign splits every checkpoint segment of the global trace
// sequence into contiguous per-shard chunks. Every trace's draws derive
// statelessly from (seed, trace index), the capture path itself is
// shared read-only (netlists, sensors, the PDN response matrix, the
// victim model), and every shard feeds a private accumulator. At every
// checkpoint the shard accumulators are merged in fixed shard order
// over integer-exact sums and a CpaProgressPoint is snapshotted, so the
// convergence curves of Figs. 9b-18b survive sharding bit for bit: the
// results are identical for ANY thread count, block size, and SIMD
// toggle (DESIGN.md §7/§12). One shard is CpaCampaign::run itself.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/campaign.hpp"
#include "core/setup.hpp"

namespace slm::core {

/// Resolve a user-facing thread knob: 0 = all hardware threads.
unsigned resolve_threads(unsigned requested);

/// Minimal fork-join pool: run_indexed(n, fn) executes fn(0..n-1) across
/// the workers and blocks until all are done. Reused across checkpoint
/// segments so a 20-checkpoint campaign spawns its threads once.
class ThreadPool {
 public:
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const;

  /// Run fn(i) for every i in [0, n); rethrows the first worker
  /// exception (remaining tasks still drain).
  void run_indexed(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  struct Impl;
  Impl* impl_;
};

class ParallelCampaign {
 public:
  /// `threads` = 0 picks hardware_concurrency; 1 runs the one-shard
  /// engine on the calling thread, exactly CpaCampaign::run.
  ParallelCampaign(AttackSetup& setup, const CampaignConfig& cfg,
                   unsigned threads = 0);

  unsigned threads() const { return threads_; }

  /// Run the campaign; result.threads_used / capture_seconds report the
  /// realised parallelism and capture-loop throughput.
  CampaignResult run();

  /// Sharded fused full-key campaign: the shared capture stream is split
  /// across worker shards exactly like run(), each shard feeds a private
  /// sca::MultiByteCpa, and the coordinator merges in fixed shard order
  /// and runs the per-byte folds / early-exit logic at checkpoints.
  /// Results are bit-identical for any thread count, block size, and
  /// SIMD toggle — and per byte to 16 single-byte campaigns over the
  /// same config.
  FullKeyRunResult run_fullkey(const FullKeyConfig& fk = {});

 private:
  AttackSetup& setup_;
  CampaignConfig cfg_;
  unsigned threads_;
};

}  // namespace slm::core
