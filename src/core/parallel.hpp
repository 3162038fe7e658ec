// The thread knob and the fork-join pool the sharded campaign engine
// runs on. CpaCampaign::run(threads) splits every checkpoint segment of
// the global trace sequence into contiguous per-shard chunks and runs
// them on a ThreadPool; the results are identical for ANY thread count,
// block size, and SIMD toggle (DESIGN.md §7/§12).
#pragma once

#include <cstddef>
#include <functional>

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

}  // namespace slm::core
