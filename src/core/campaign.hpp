// CPA capture campaign: the workstation loop of the paper (send random
// plaintext, record ciphertext + sensor trace, repeat), fused with the
// analysis so half-million-trace runs stream in seconds.
//
// Per trace: the AES datapath model produces per-cycle switching currents;
// the linear PDN response matrix turns them into supply voltages at the
// sensor sampling instants; the selected sensor (TDC or benign circuit,
// full word or single bit) turns voltages into readings; the CPA engine
// accumulates correlations against the last-round single-bit model.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/setup.hpp"
#include "defense/active_fence.hpp"
#include "pdn/cycle_response.hpp"
#include "sca/cpa.hpp"
#include "sca/fold.hpp"
#include "sca/selection.hpp"
#include "sca/tvla.hpp"
#include "sca/model.hpp"
#include "sca/mtd.hpp"

namespace slm::obs {
class CampaignObserver;
}

namespace slm::store {
enum class StoreKind : std::uint8_t;
struct StoreIdentity;
class TraceStoreWriter;
}

namespace slm::core {

class SetupMemo;
class ThreadPool;

enum class SensorMode {
  kTdcFull,         ///< TDC reading (all stages)          - Fig. 9
  kTdcSingleBit,    ///< one TDC thermometer bit           - Fig. 11
  kBenignHw,        ///< HW over benign bits of interest   - Figs. 10, 17
  kBenignSingleBit, ///< one benign path endpoint          - Figs. 12, 13, 18
  kRoCounter,       ///< RO counter sensor (related work [3]) - ablations
};

const char* sensor_mode_name(SensorMode m);

/// RNG determinism contract of a campaign (DESIGN.md §7/§12). Every
/// trace's draws derive statelessly from (seed, domain, trace_index) via
/// Xoshiro256::trace_stream, so results depend on the seed alone —
/// bit-identical across any thread count, block size, and SIMD toggle.
/// That is contract v2, the only one the engines run. The sequential-
/// stream contract v1 is retired: its golden fixture stays as frozen
/// data, checked by a test-side reference capture.
enum class RngContract {
  kDefault = 0,  ///< resolves to v2
  kV1 = 1,       ///< retired; refused by resolve_contract
  kV2 = 2,
};

const char* rng_contract_name(RngContract c);

/// CampaignConfig::rng_contract resolution: kDefault and kV2 resolve to
/// kV2; kV1 is refused with an error naming its retirement.
RngContract resolve_contract(RngContract requested);

struct CampaignConfig {
  std::size_t traces = 500000;
  SensorMode mode = SensorMode::kBenignHw;

  /// Bit index for the single-bit modes (TDC stage or global endpoint).
  /// kAutoBit picks the highest-variance endpoint from a selection
  /// pre-pass (how the paper picks bit 21 / bit 28).
  static constexpr std::size_t kAutoBit = static_cast<std::size_t>(-1);
  std::size_t single_bit = 0;

  /// CPA target: last-round key byte (paper: 3, "the 4th byte") and
  /// predicted state bit (paper: 0, "the 1st bit").
  std::size_t target_key_byte = 3;
  std::size_t target_bit = 0;

  /// Sensor sampling window (absolute ns from encryption start). The
  /// default brackets the last-round leakage cycles plus PDN settling.
  double window_start_ns = 400.0;
  double window_end_ns = 465.0;

  /// Progress snapshot trace counts (clipped to `traces`); empty =
  /// default log-spaced schedule.
  std::vector<std::size_t> checkpoints;

  /// Traces for the bits-of-interest pre-pass (benign modes).
  std::size_t selection_traces = 4000;
  double selection_min_variance = 0.15;

  /// Keep only the K highest-variance bits of interest (0 = no cap).
  /// The glitchier the circuit (C6288), the more the Hamming weight
  /// profits from discarding endpoints with variance but no slope.
  std::size_t selection_top_k = 0;

  /// Active-fence countermeasure around the victim (hiding defence).
  /// The fence is on whenever base_current_a or random_current_a is
  /// positive, so the default (base 0.05 A, random 0) is a constant DC
  /// draw; only base_current_a = random_current_a = 0 turns it off. A
  /// constant fence draws nothing in capture (DESIGN.md §8, §12).
  defense::ActiveFenceConfig fence{};

  /// Trace-block size for the block-batched capture pipeline (see
  /// DESIGN.md §11): each trace's draws come from its own counter-keyed
  /// stream, then the RNG-free kernels (CycleResponseMatrix::
  /// voltages_block, BenignSensorBank::toggle_hw_block, XorClassCpa::
  /// add_block) run over the whole block. 0 = auto (SLM_BLOCK env var,
  /// else kDefaultBlockTraces). Blocks clamp at checkpoint edges, so any
  /// value — 1 included — yields bit-identical results and snapshots.
  std::size_t block = 0;

  /// Lane-parallel dispatch for the block kernels. false — or
  /// SLM_SIMD=0/scalar in the environment — forces the per-lane scalar
  /// reference loops; SLM_SIMD also selects the fold dispatch level
  /// (sca/fold_kernels.hpp: scalar, sse2, avx2, unset = auto). Results
  /// are bit-identical at every level — the fold accumulators are exact
  /// int64 sums, so lane width never matters; the knob exists to
  /// isolate vectorizer miscompiles and to measure the SIMD win.
  bool simd = true;

  std::uint64_t seed = 0xc0ffee;

  /// RNG determinism contract (see RngContract above): kDefault and kV2
  /// run contract v2; the retired kV1 is refused.
  RngContract rng_contract = RngContract::kDefault;

  /// Optional observability hook (metrics, spans, JSONL events). Null is
  /// the documented zero-overhead path: the capture loops only ever test
  /// this pointer, so the no-observer serial run stays byte-identical to
  /// the pre-observability code (golden_trace_test enforces it). The
  /// pointer is borrowed — the caller keeps the observer alive for the
  /// duration of run().
  obs::CampaignObserver* observer = nullptr;

  /// Directory for crash-safe snapshots (`<dir>/campaign.ckpt`, written
  /// atomically at every checkpoint). Empty disables checkpointing.
  std::string checkpoint_dir;

  /// Resume from `<checkpoint_dir>/campaign.ckpt` when it exists: the
  /// campaign restores the accumulators and progress, re-derives every
  /// stream from (seed, trace index), and continues bit-exactly as if
  /// never interrupted. Missing file = fresh start; corrupt file or
  /// mismatched configuration = loud error.
  bool resume = false;

  /// Ops/testing knob: after the snapshot at the first checkpoint whose
  /// trace count is >= this value, throw CampaignHalted — a
  /// deterministic stand-in for kill -9 (snapshots are atomic, so a real
  /// kill at any instant leaves the same on-disk state). 0 disables.
  std::size_t halt_after_traces = 0;

  /// Capture-once trace store (docs/STORE.md): when set, the campaign
  /// records every trace's readings, plaintext and ciphertext and writes
  /// a fingerprinted `SLMTRC1` file here on completion (atomic rename),
  /// for `slm attack --from-store` replay at fold speed. Incompatible
  /// with `resume` (a resumed run never regenerates the earlier traces);
  /// a halted run destroys the writer and leaves no store file.
  std::string store_out;

  /// Externally-owned worker pool (borrowed, may be null). When set,
  /// CpaCampaign::run(threads) shards over THIS pool instead of
  /// constructing a private one — the `slm serve` daemon multiplexes
  /// every tenant's campaigns over one shared core::ThreadPool this way.
  /// The pool's size overrides the `threads` argument; the results are
  /// bit-identical either way (thread count is repro-irrelevant).
  ThreadPool* pool = nullptr;

  /// Externally-owned set-up memo (borrowed, may be null; see
  /// core/setup_memo.hpp). When set, the constructor looks the PDN
  /// response matrix up before building it, and the run looks the
  /// sensor pre-pass up before running it. A hit restores exactly the
  /// state a rerun would leave, so results are byte-identical either
  /// way. `slm serve` lends one memo to every campaign it runs.
  SetupMemo* setup_memo = nullptr;
};

/// What every engine run reports besides its analysis, filled by the one
/// engine loop for CampaignResult and FullKeyRunResult alike.
struct CampaignRun {
  SensorMode mode = SensorMode::kBenignHw;
  std::size_t traces_run = 0;  ///< shared capture traces
  std::vector<std::size_t> bits_of_interest; ///< kBenignHw only
  std::vector<double> sample_times_ns;

  /// Single-bit index actually used after kAutoBit resolution (single-
  /// bit modes only; 0 otherwise).
  std::size_t single_bit = 0;

  /// How the sensor pre-pass was resolved: "ran", "reused" (a
  /// CampaignConfig::setup_memo hit) or "none" (the mode needs none).
  std::string prepass;

  /// Shards that ran and campaign wall time (selection pre-pass
  /// included, the constructor's set-up not), for traces/sec reporting
  /// in the benches and the CLI.
  unsigned threads_used = 0;
  double capture_seconds = 0.0;

  /// Effective trace-block size after --block / SLM_BLOCK resolution —
  /// run metadata in the same spirit as threads_used, so bench JSON and
  /// checkpoint headers report the block the campaign actually ran with.
  std::size_t block_size = 0;

  /// Phase-time split, filled only when cfg.observer != nullptr (the
  /// per-trace timers are observer-gated to keep the disabled path
  /// untouched). kernel = victim + PDN + sensor capture; cpa =
  /// accumulate / fold / merge; checkpoint_io = snapshot writes.
  /// kernel/cpa sum worker-thread time over the shards (CPU seconds, not
  /// wall clock, once there is more than one shard). selection_seconds
  /// (the bits-of-interest pre-pass) is coarse-grained and always filled.
  double kernel_seconds = 0.0;
  double cpa_seconds = 0.0;
  double checkpoint_io_seconds = 0.0;
  double selection_seconds = 0.0;

  /// Traces restored from a snapshot (0 = fresh run) and the snapshot
  /// file last written (empty when checkpointing is off).
  std::size_t resumed_from = 0;
  std::string snapshot_path;
};

struct CampaignResult : CampaignRun {
  std::uint8_t correct_guess = 0;   ///< true last-round key byte
  std::uint8_t recovered_guess = 0; ///< CPA winner at the end
  bool key_recovered = false;
  sca::MtdResult mtd;
  std::vector<sca::CpaProgressPoint> progress;
  std::vector<double> final_max_abs_corr;    ///< per key candidate
};

// The full-key early-exit knobs and per-byte outcome are the shared
// fold layer's (sca/fold.hpp), so store replay uses the same types.
using FullKeyConfig = sca::FullKeyConfig;
using FullKeyByteResult = sca::FullKeyByteResult;

/// Outcome of a fused full-key campaign: one shared capture stream, 16
/// per-byte CPA results.
struct FullKeyRunResult : CampaignRun {
  std::array<FullKeyByteResult, 16> bytes;

  bool all_recovered() const {
    for (const auto& b : bytes) {
      if (!b.success) return false;
    }
    return true;
  }
};

// Engine internals, defined in core/campaign.cpp: the sensor dispatch
// plan, the resolved per-run capture plan, one shard's block buffers and
// the shard itself.
struct SensorPlan;
struct CapturePlan;
struct CaptureBuffers;
template <class Acc>
struct Shard;
struct SensorBitsKey;  // core/setup_memo.hpp

class CpaCampaign {
 public:
  CpaCampaign(AttackSetup& setup, const CampaignConfig& cfg);

  /// Run the full campaign over `threads` shards: 0 = all hardware
  /// threads, 1 = one shard on the calling thread. A borrowed cfg.pool
  /// overrides `threads` with its size, and there are never more shards
  /// than traces; result.threads_used reports the shards that ran. The
  /// results are bit-identical for any shard count (DESIGN.md §7/§12).
  CampaignResult run(unsigned threads = 1);

  /// Run the fused full-key campaign: ONE capture stream (identical
  /// trace readings to run() under the same config, because generation
  /// is model-independent), sixteen per-byte class accumulators
  /// (sca::MultiByteCpa), per-byte folds at checkpoints with optional
  /// early exit. cfg.target_key_byte is ignored; the sampling window
  /// must bracket every byte's leakage cycle (StealthyAttack::
  /// fullkey_campaign_config builds such a config). `threads` shards
  /// the capture exactly like run(threads).
  FullKeyRunResult run_fullkey(const FullKeyConfig& fk = {},
                               unsigned threads = 1);

  /// The sampling instants the campaign will use.
  const std::vector<double>& sample_times_ns() const { return sample_times_; }

  /// Bits-of-interest pre-pass only (exposed for the Fig. 7/8 benches).
  std::vector<std::size_t> select_bits_of_interest();

  /// Full per-bit statistics from the selection pre-pass.
  sca::BitSelector run_selection_pass();

  /// The single-bit index actually used (after kAutoBit resolution).
  std::size_t resolved_single_bit() const { return cfg_.single_bit; }

  /// Non-specific leakage assessment with the configured sensor: fixed-
  /// vs-random plaintexts, Welch's t-test per sample point. Uses the
  /// same physics as run() but needs no key hypothesis at all.
  sca::WelchTTest run_tvla(std::size_t traces_per_population);

  /// The `SLMTRC1` fingerprint this campaign's capture would stamp into
  /// a store of `traces` traces: (seed, rng contract, trace count,
  /// CRC-32 of the attack/sensor config). Replay builds the same
  /// identity from its own flags and refuses a store that differs.
  store::StoreIdentity store_identity(store::StoreKind kind,
                                      std::size_t traces) const;

 private:
  using Regs = crypto::AesDatapathModel::RegisterSnapshot;

  /// The one engine loop: picks the shard count from `threads` (see
  /// run), then the shards capture contiguous chunks of every checkpoint
  /// segment and merge in fixed shard order at each checkpoint, where
  /// `an` (the byte or full-key analysis in core/campaign.cpp) folds,
  /// reports and saves its state.
  template <class Analysis>
  void run_engine(unsigned threads, Analysis& an);

  /// The one block capture loop: traces [g0, g1) captured (capture_block)
  /// and folded (fold_block) into sh.acc a block at a time, starting
  /// from registers_before(g0) and carrying the victim register chain
  /// from block to block. The phase timers in `sh` run only with an
  /// observer attached. Run by the shards of run_engine only.
  template <class Acc>
  void capture_range(const CapturePlan& plan,
                     const std::vector<sca::LastRoundBitModel>& models,
                     std::size_t g0, std::size_t g1, Shard<Acc>& sh,
                     store::TraceStoreWriter* store) const;

  /// The capture body every engine runs: traces [g, g + bn) (bn <=
  /// plan.block) from their counter-keyed streams into buf.y and buf.ct,
  /// plus their rows in `store` when set. Each step runs over the whole
  /// block: plaintext draws, the block victim (AesDatapathModel::
  /// encrypt_block), fence and coupling, one PDN voltages_block call,
  /// then the sensor (toggle_hw_block for benign HW, else a per-trace
  /// read after that trace's env noise). Each trace's stream is drawn in
  /// make_voltages' order. `regs` carries the victim register chain.
  void capture_block(const CapturePlan& plan, std::size_t g, std::size_t bn,
                     Regs& regs, CaptureBuffers& buf,
                     store::TraceStoreWriter* store) const;

  /// Victim register state entering trace g (zero at g = 0): derivable
  /// from trace g - 1 alone, because the state register is fully
  /// overwritten every encryption.
  Regs registers_before(std::size_t g) const;

  /// Resolve the sensor plan and the block/SIMD knobs for a capture.
  CapturePlan capture_plan(const std::vector<std::size_t>& bits) const;

  /// Supply voltages at the sample instants for one encryption of the
  /// sequential pre-passes (selection, TDC stage, TVLA), drawing fence
  /// currents from the fence's own stream. Capture runs the same
  /// per-element arithmetic a block at a time (capture_block).
  void make_voltages(const crypto::AesDatapathModel::Encryption& enc,
                     Xoshiro256& rng, std::vector<double>& v_out) const;

  /// Read the configured sensor at the `n` sample voltages `v` into
  /// y[0, n) (per-call sampling).
  void read_sensor(const double* v, std::size_t n,
                   const std::vector<std::size_t>& bits, Xoshiro256& rng,
                   double* y) const;

  /// The configured sensor's compiled plan and its normals per sample,
  /// for capture_block's read-out from pre-drawn normals.
  SensorPlan make_sensor_plan(const std::vector<std::size_t>& bits) const;

  /// Resolve kAutoBit / bits-of-interest before a capture loop; returns
  /// the bits of interest (benign HW only, empty otherwise). Consults
  /// cfg.setup_memo when the resolution needs a pre-pass.
  std::vector<std::size_t> resolve_sensor_bits();

  /// resolve_sensor_bits without the memo: the pre-pass itself.
  std::vector<std::size_t> run_sensor_prepass();

  /// The set-up memo key of the sensor pre-pass, taken at pass start.
  SensorBitsKey sensor_bits_key() const;

  /// Count one set-up memo lookup on the observer, when attached.
  void count_memo_lookup(bool hit) const;

  // run_engine's steps.
  std::optional<CampaignCheckpoint> load_resume(unsigned shards,
                                                bool fullkey) const;
  void write_snapshot(const CampaignCheckpoint& ck, std::string* path,
                      double* io_seconds) const;
  void halt_if_due(std::size_t done, const std::string& path) const;
  template <class Acc>
  void capture_segment(ThreadPool* pool, const CapturePlan& plan,
                       const std::vector<sca::LastRoundBitModel>& models,
                       std::vector<Shard<Acc>>& shards, std::size_t covered,
                       std::size_t cp, store::TraceStoreWriter* store) const;

  AttackSetup& setup_;
  CampaignConfig cfg_;
  std::vector<double> sample_times_;
  pdn::CycleResponseMatrix response_;
  /// Mutable: the sequential pre-passes advance the fence's own stream;
  /// capture only ever uses it statelessly (trace_rng / cycle_current).
  mutable std::optional<defense::ActiveFence> fence_;
  /// How the last resolve_sensor_bits got its answer: "ran" the
  /// pre-pass, "reused" a memo entry, or "none" needed (run_start).
  const char* prepass_ = "none";
};

// The checkpoint schedule rule lives in the shared fold layer; every
// engine, store replay, the CLI and serve fold at its counts.
using sca::checkpoint_schedule;
using sca::default_checkpoints;

/// Finalize a capture's trace-store writer and emit the slm.store.*
/// write metrics and the store_write event (shared by every engine).
void finalize_trace_store(store::TraceStoreWriter& writer,
                          obs::CampaignObserver* observer);

/// Default trace-block size of the block-batched pipeline: big enough to
/// amortize kernel dispatch and fill the SIMD lanes, small enough that a
/// block of (readings + draws) stays in L2.
inline constexpr std::size_t kDefaultBlockTraces = 64;

/// CampaignConfig::block resolution: an explicit request wins, else the
/// SLM_BLOCK environment variable, else kDefaultBlockTraces.
std::size_t resolve_block(std::size_t requested);

/// CampaignConfig::simd resolution: an explicit `false` wins, else the
/// SLM_SIMD dispatch level decides (the scalar level — SLM_SIMD=0 or
/// SLM_SIMD=scalar — forces the scalar sensor fallback).
bool resolve_simd(bool requested);

}  // namespace slm::core
