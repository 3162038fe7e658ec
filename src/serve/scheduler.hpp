// Bounded multi-tenant fair-share scheduler for the `slm serve` daemon.
//
// The scheduling unit is one TIMESLICE of one job (the daemon halts a
// running campaign at a checkpoint boundary, requeues it, and resumes
// it later — see daemon.hpp), so "fair share" is enforced in trace
// counts actually served, not in jobs started: next() always hands out
// a job of the tenant with the LEAST cumulative service. All state is
// mutex-guarded — the spool-watcher thread admits concurrently with the
// serve loop popping (serve_tsan races exactly this surface).
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "serve/job.hpp"

namespace slm::serve {

/// A job queued for (more) execution. `traces_done` is its checkpoint
/// resume point — 0 for a fresh job, the halt checkpoint after a
/// preemption, whatever `campaign.ckpt` says after a daemon restart.
struct QueuedJob {
  JobSpec spec;
  std::string dir;               ///< per-job results directory
  std::uint64_t traces_done = 0;
  std::uint64_t seq = 0;  ///< admission order; assigned by the scheduler
  /// Monotonic seconds (obs::monotonic_seconds) of admission and of the
  /// last time the job became runnable (admission or requeue), for the
  /// daemon's turnaround and queue-wait histograms.
  double admitted_at = 0.0;
  double ready_at = 0.0;
};

/// One tenant's standing for `slm status`: service received so far (in
/// traces) and jobs still queued.
struct TenantShare {
  std::string tenant;
  std::uint64_t charged = 0;
  std::size_t pending = 0;
};

class FairShareScheduler {
 public:
  explicit FairShareScheduler(std::size_t capacity = kDefaultQueueCapacity);

  std::size_t capacity() const { return capacity_; }
  std::size_t depth() const;
  bool empty() const { return depth() == 0; }

  /// Admit a NEW job unless the queue is at capacity: the check and the
  /// insertion are one critical section, so a concurrent requeue() can
  /// never invalidate a caller's earlier depth() reading. Returns false
  /// (leaving the queue untouched) when full; assigns the admission
  /// sequence number on success.
  bool try_admit(QueuedJob job);

  /// try_admit that throws QueueFullError instead of returning false —
  /// for callers (CLI edge, tests) that want refusal as an exception.
  /// The daemon's spool watcher must use try_admit: an exception
  /// escaping that thread would std::terminate the whole process.
  void admit(QueuedJob job);

  /// Put a preempted job back. Exempt from the capacity check — the job
  /// was already admitted, and bouncing it would lose its checkpoint.
  /// Keeps the original seq, so a tenant's preempted job stays ahead of
  /// its later submissions at equal priority.
  void requeue(QueuedJob job);

  /// Pop the next job to run: the one whose tenant has the smallest
  /// cumulative charged service; ties broken by higher priority, then
  /// admission order. Deterministic — no clocks, no randomness — so a
  /// replayed spool schedules identically. nullopt when empty.
  std::optional<QueuedJob> next();

  /// Account `traces` of service to `tenant` (called after each slice).
  void charge(const std::string& tenant, std::uint64_t traces);

  /// Per-tenant standings, sorted by tenant name. Includes tenants with
  /// charged service but nothing queued right now.
  std::vector<TenantShare> shares() const;

 private:
  mutable std::mutex m_;
  std::size_t capacity_;
  std::uint64_t next_seq_ = 0;
  std::vector<QueuedJob> queue_;
  std::unordered_map<std::string, std::uint64_t> charged_;
};

}  // namespace slm::serve
