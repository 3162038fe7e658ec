// The layer walk: a workload's inputs driven block by block through the
// layers' public calls, each call inside a Span, folding its own
// readings. Under RNG contract v2 every reading is a pure function of
// (seed, trace index), so the walk lands on the exact results of the
// library entry points it mirrors — the benchmark checks that, so the
// walk cannot be timing dead code.
//
// Covered engines: the serial and sharded v2 capture with the benign-HW
// (deferred block) and full-TDC sensors, the single-byte and fused
// full-key folds with early exit, checkpoint save/resume, the trace
// store writer, and the fused store replay.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/attack.hpp"
#include "store/replay.hpp"
#include "trace.hpp"

namespace slmperf {

/// Where a walk slice snapshots and stops (serve timeslices). With a
/// non-empty ckpt_dir the walk resumes from `<ckpt_dir>/campaign.ckpt`
/// when present and snapshots at every checkpoint, as the engines do.
struct SliceSpec {
  std::string ckpt_dir;
  std::size_t halt_after = 0;  ///< 0 = run to the end
};

/// Per-walk counters the layer table derives ratios from.
struct WalkCounts {
  double selection_traces = 0.0;  ///< bits-of-interest pre-pass traces
  double useful_traces = 0.0;     ///< traces folded into the attack
  double folds = 0.0;             ///< per-byte checkpoint folds due
  double folds_skipped = 0.0;     ///< ... of which early exit skipped
};

struct ByteWalkResult {
  bool completed = false;
  std::size_t traces_done = 0;
  slm::core::KeyByteReport report;  ///< set when completed
};

/// Single-byte CPA campaign (mirrors CpaCampaign::run at threads = 1).
/// `store_out` non-empty also records an SLMTRC1 store.
ByteWalkResult walk_byte_campaign(Tracer& tr, slm::core::AttackSetup& setup,
                                  const slm::core::CampaignConfig& cfg,
                                  const SliceSpec& slice,
                                  const std::string& store_out,
                                  WalkCounts& counts);

struct KeyWalkResult {
  bool completed = false;
  std::size_t traces_done = 0;
  slm::core::StealthyAttack::FullKeyReport report;  ///< set when completed
};

/// Fused full-key campaign over `threads` shards (mirrors
/// ParallelCampaign::run_fullkey; threads = 1 is the serial engine).
KeyWalkResult walk_fullkey(Tracer& tr, slm::core::AttackSetup& setup,
                           const slm::core::CampaignConfig& cfg,
                           const slm::core::FullKeyConfig& fk,
                           unsigned threads, const SliceSpec& slice,
                           WalkCounts& counts);

/// Open an attack-kind store and run the fused one-pass replay (mirrors
/// TraceStoreReader + store::replay_all with default options).
slm::store::ReplayAllResult walk_replay(
    Tracer& tr, const std::string& path,
    const std::vector<std::size_t>& checkpoints,
    const slm::crypto::Block& true_last_round_key, WalkCounts& counts);

}  // namespace slmperf
