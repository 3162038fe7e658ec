#include "core/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>

#include "common/aligned.hpp"
#include "common/dispatch.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "core/checkpoint.hpp"
#include "core/parallel.hpp"
#include "core/setup_memo.hpp"
#include "crypto/aes_datapath.hpp"
#include "obs/observer.hpp"
#include "sca/fold_kernels.hpp"
#include "sca/selection.hpp"
#include "sensors/benign_sensor.hpp"
#include "store/trace_store.hpp"

namespace slm::core {

// Engine internals (forward-declared in core/campaign.hpp): the sensor
// read-out, the resolved capture plan of a pass, one shard's block
// buffers and accumulator, the shards' workers, and the fold step that
// labels a block's ciphertexts and adds the block to a CPA accumulator.

/// What capture_block reads out of each sample: a campaign sensor's
/// reading into buf.y (one per SensorMode, see readout_of), or, for
/// the selection pre-pass, every benign endpoint's toggle counted into
/// buf.ones.
enum class Readout : std::uint8_t {
  kTdcFull,
  kTdcSingleBit,
  kBenignHw,
  kBenignSingleBit,
  kRoCounter,
  kToggleCounts,
};

Readout readout_of(SensorMode m) {
  switch (m) {
    case SensorMode::kTdcFull:
      return Readout::kTdcFull;
    case SensorMode::kTdcSingleBit:
      return Readout::kTdcSingleBit;
    case SensorMode::kBenignHw:
      return Readout::kBenignHw;
    case SensorMode::kBenignSingleBit:
      return Readout::kBenignSingleBit;
    case SensorMode::kRoCounter:
      return Readout::kRoCounter;
  }
  throw Error("readout_of: unknown sensor mode");
}

/// Precompiled sensor read-out for CpaCampaign::capture_block: the
/// read-out, the benign modes' compiled plans, and how many standard
/// normals each sample's reading takes from the trace's stream (after
/// its env-noise draw).
struct SensorPlan {
  Readout readout = Readout::kTdcFull;
  sensors::BenignSensorBank::CompiledHwPlan hw;
  sensors::BenignSensorBank::CompiledBitPlan bit;
  std::size_t draws_per_sample = 0;
};

/// Everything the capture body needs besides the trace range, resolved
/// once per pass (see CpaCampaign::capture_plan).
struct CapturePlan {
  SensorPlan sensor;
  /// Trace domain of the pass's counter-keyed streams (common/rng.hpp).
  std::uint64_t domain = kTraceDomainCapture;
  /// TVLA: the plaintext every even trace encrypts, after its draw.
  std::optional<crypto::Block> fixed_even;
  std::size_t block = 0;          ///< resolved trace-block size
  bool simd = true;               ///< resolved lane-parallel dispatch
  /// Level of the lane-block draws (scalar when simd is off).
  DispatchLevel draw_level = DispatchLevel::kScalar;
  /// Level of the victim core (portable when simd is off).
  crypto::AesDatapathModel::Level victim_level =
      crypto::AesDatapathModel::Level::kPortable;
};

/// One shard's block buffers. capture_block fills `y` (readings, trace-
/// major) or `ones` (the block's toggle counts per endpoint) and `ct`
/// (ciphertexts); fold_block fills the class labels.
struct CaptureBuffers {
  std::vector<double> y;
  std::vector<std::size_t> ones;
  std::vector<crypto::Block> ct;
  std::vector<std::uint8_t> cls_v;
  std::vector<std::uint8_t> cls_b;
  // Staging: each trace's capture stream and plaintext, cycle-major
  // currents and lane-major voltages (64-byte aligned for the AVX2 PDN
  // tile), env-noise and sensor draws.
  std::vector<Xoshiro256> rng;
  std::vector<crypto::Block> pt;
  AlignedVector<double> ic;
  AlignedVector<double> v;
  std::vector<double> zv;
  std::vector<double> z;
};

/// One shard's mutable half of the pipeline: its accumulator, block
/// buffers and observer-gated phase timers (accumulated thread-locally,
/// read by the coordinator only between segments). Every pass runs one
/// per worker.
template <class Acc>
struct Shard {
  explicit Shard(Acc blank) : acc(std::move(blank)) {}
  Acc acc;
  std::size_t position = 0;
  CaptureBuffers buf;
  double kernel_s = 0.0;
  double cpa_s = 0.0;
  std::size_t blocks = 0;
};

/// The shards a pass splits its trace range over and the pool that runs
/// them: the borrowed cfg.pool, a private pool, or none for one shard
/// (the calling thread).
struct Workers {
  Workers(unsigned count, ThreadPool* borrowed)
      : shards(count), pool(count == 1 ? nullptr : borrowed) {
    if (count > 1 && pool == nullptr) pool = &owned.emplace(count);
  }

  const unsigned shards;
  ThreadPool* pool;
  std::optional<ThreadPool> owned;
};

/// The TDC auto-stage probe's accumulator: counts of the full-TDC
/// readings 0..stages, and how many 0 readings had stage 0 firing.
struct ReadingCounts {
  explicit ReadingCounts(std::size_t bins) : counts(bins, 0) {}
  void merge(const ReadingCounts& o) {
    for (std::size_t k = 0; k < counts.size(); ++k) counts[k] += o.counts[k];
    zero_fired += o.zero_fired;
  }
  std::vector<std::uint64_t> counts;
  std::uint64_t zero_fired = 0;
};

/// The engines' fold step: label ciphertexts buf.ct[0, n) under every
/// model (sca::label_classes) and add the block's readings to `acc` — an
/// XorClassCpa for one model, a MultiByteCpa for sixteen.
template <class Acc>
void fold_block(const std::vector<sca::LastRoundBitModel>& models,
                std::size_t n, CaptureBuffers& buf, Acc& acc) {
  static_assert(sizeof(crypto::Block) == 16);
  buf.cls_v.resize(n * models.size());
  buf.cls_b.resize(n * models.size());
  sca::label_classes(models,
                     reinterpret_cast<const std::uint8_t*>(buf.ct.data()), n,
                     buf.cls_v.data(), buf.cls_b.data());
  acc.add_block(buf.cls_v.data(), buf.cls_b.data(), buf.y.data(), n);
}

const char* sensor_mode_name(SensorMode m) {
  switch (m) {
    case SensorMode::kTdcFull:
      return "tdc-full";
    case SensorMode::kTdcSingleBit:
      return "tdc-single-bit";
    case SensorMode::kBenignHw:
      return "benign-hw";
    case SensorMode::kBenignSingleBit:
      return "benign-single-bit";
    case SensorMode::kRoCounter:
      return "ro-counter";
  }
  return "?";
}

std::size_t resolve_block(std::size_t requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("SLM_BLOCK")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return kDefaultBlockTraces;
}

bool resolve_simd(bool requested) {
  if (!requested) return false;
  // SLM_SIMD names a fold dispatch level now (sca/fold_kernels.hpp:
  // 0/scalar, sse2, avx2, unset = auto). The scalar level also forces
  // the scalar sensor kernels, preserving the historical SLM_SIMD=0
  // behavior; any vector level leaves the batch kernels on.
  return sca::active_dispatch() != sca::DispatchLevel::kScalar;
}

const char* rng_contract_name(RngContract c) {
  switch (c) {
    case RngContract::kV1:
      return "v1";
    case RngContract::kV2:
      return "v2";
    case RngContract::kDefault:
      break;
  }
  return "default";
}

RngContract resolve_contract(RngContract requested) {
  SLM_REQUIRE(requested != RngContract::kV1,
              "RNG contract v1 (sequential streams) is retired — campaigns "
              "run contract v2 (counter-keyed per-trace streams) only");
  return RngContract::kV2;
}

CpaCampaign::CpaCampaign(AttackSetup& setup, const CampaignConfig& cfg)
    : setup_(setup), cfg_(cfg) {
  SLM_REQUIRE(cfg_.traces > 0, "CpaCampaign: zero traces");
  // Refuse up front any budget whose worst-case integer sums could
  // overflow the int64 fold accumulators.
  sca::require_fold_budget(cfg_.traces, "CpaCampaign");
  if (cfg_.fence.random_current_a > 0.0 || cfg_.fence.base_current_a > 0.0) {
    fence_.emplace(cfg_.fence);
  }
  SLM_REQUIRE(cfg_.window_start_ns < cfg_.window_end_ns,
              "CpaCampaign: bad sampling window");

  const Calibration& cal = setup_.calibration();

  // Sensor sampling instants: every second overclock cycle (150 MS/s).
  const double ts = cal.sensor_sample_period_ns();
  for (double t = 0.0; t <= cfg_.window_end_ns; t += ts) {
    if (t >= cfg_.window_start_ns) sample_times_.push_back(t);
  }
  SLM_REQUIRE(!sample_times_.empty(), "CpaCampaign: empty sampling window");

  // Victim activity cycles.
  const double cyc = 1000.0 / cal.aes_clock_mhz;
  std::vector<double> cycle_starts;
  cycle_starts.reserve(crypto::AesDatapathModel::kCycles);
  for (std::size_t c = 0; c < crypto::AesDatapathModel::kCycles; ++c) {
    cycle_starts.push_back(static_cast<double>(c) * cyc);
  }

  SetupMemo* const memo = cfg_.setup_memo;
  std::optional<ResponseKey> key;
  if (memo != nullptr) {
    key.emplace(ResponseKey{cal.pdn, sample_times_, cycle_starts, cyc});
    if (std::optional<pdn::CycleResponseMatrix> hit = memo->find(*key)) {
      count_memo_lookup(true);
      response_ = std::move(*hit);
      return;
    }
    count_memo_lookup(false);
  }
  response_ = pdn::CycleResponseMatrix::build(cal.pdn, sample_times_,
                                              cycle_starts, cyc);
  if (memo != nullptr) memo->insert(std::move(*key), response_);
}

void CpaCampaign::count_memo_lookup(bool hit) const {
  if (cfg_.observer == nullptr) return;
  cfg_.observer->metrics().add(hit ? "slm.campaign.setup_memo_hits_total"
                                   : "slm.campaign.setup_memo_misses_total");
}

store::StoreIdentity CpaCampaign::store_identity(store::StoreKind kind,
                                                 std::size_t traces) const {
  store::StoreIdentity id;
  id.kind = static_cast<std::uint8_t>(kind);
  id.circuit = static_cast<std::uint8_t>(setup_.circuit_kind());
  id.mode = static_cast<std::uint8_t>(cfg_.mode);
  id.rng_contract =
      static_cast<std::uint8_t>(resolve_contract(cfg_.rng_contract));
  id.seed = cfg_.seed;
  id.trace_count = traces;
  id.samples = sample_times_.size();
  id.target_key_byte = cfg_.target_key_byte;
  id.target_bit = cfg_.target_bit;

  // Everything else that shapes the captured readings or their labels:
  // sampling window, requested endpoint bit (pre-resolution, so capture
  // and replay hash the same value), selection knobs, fence config, and
  // the victim's key via its last round key.
  ByteWriter w;
  w.put_f64(cfg_.window_start_ns);
  w.put_f64(cfg_.window_end_ns);
  w.put_u64(static_cast<std::uint64_t>(cfg_.single_bit));
  w.put_u64(cfg_.selection_traces);
  w.put_f64(cfg_.selection_min_variance);
  w.put_u64(cfg_.selection_top_k);
  w.put_f64(cfg_.fence.base_current_a);
  w.put_f64(cfg_.fence.random_current_a);
  w.put_u64(cfg_.fence.seed);
  const crypto::Block lrk = setup_.victim().cipher().last_round_key();
  w.put_bytes(lrk.data(), lrk.size());
  id.config_hash = crc32(w.bytes().data(), w.size());
  return id;
}

void finalize_trace_store(store::TraceStoreWriter& writer,
                          obs::CampaignObserver* observer) {
  const double t0 = obs::monotonic_seconds();
  const auto stats = writer.finalize();
  const double seconds = obs::monotonic_seconds() - t0;
  log_info() << "store: wrote " << writer.path() << " (" << stats.traces
             << " traces, " << stats.chunks << " chunks, "
             << stats.bytes_written << " bytes)";
  if (observer != nullptr) {
    observer->metrics().add("slm.store.traces_written",
                            static_cast<double>(stats.traces));
    observer->metrics().add("slm.store.bytes_written",
                            static_cast<double>(stats.bytes_written));
    observer->metrics().observe("slm.store.write_seconds", seconds);
    observer->event("store_write",
                    obs::JsonWriter()
                        .field("path", writer.path())
                        .field("traces", static_cast<std::uint64_t>(stats.traces))
                        .field("bytes",
                               static_cast<std::uint64_t>(stats.bytes_written))
                        .field("seconds", seconds));
  }
}

SensorPlan CpaCampaign::make_sensor_plan(
    Readout readout, const std::vector<std::size_t>& bits) const {
  SensorPlan plan;
  plan.readout = readout;
  switch (readout) {
    case Readout::kBenignHw:
      plan.hw = setup_.sensor().compile_hw_plan(bits);
      plan.draws_per_sample = plan.hw.draws_per_sample;
      break;
    case Readout::kBenignSingleBit:
      plan.bit = setup_.sensor().compile_bit_plan(cfg_.single_bit);
      plan.draws_per_sample = 2;  // common jitter, endpoint jitter
      break;
    case Readout::kToggleCounts:
      // Each instance's common jitter, then one draw per endpoint.
      plan.draws_per_sample =
          setup_.sensor().instance_count() + setup_.sensor_bits();
      break;
    case Readout::kTdcFull:
    case Readout::kTdcSingleBit:
    case Readout::kRoCounter:
      plan.draws_per_sample = 1;
      break;
  }
  return plan;
}

std::vector<std::size_t> CpaCampaign::resolve_sensor_bits(unsigned threads) {
  const bool auto_bit = cfg_.single_bit == CampaignConfig::kAutoBit &&
                        (cfg_.mode == SensorMode::kBenignSingleBit ||
                         cfg_.mode == SensorMode::kTdcSingleBit);
  if (cfg_.mode != SensorMode::kBenignHw && !auto_bit) {
    prepass_ = "none";  // only the range checks run
    return run_sensor_prepass(threads);
  }
  prepass_ = "ran";
  SetupMemo* const memo = cfg_.setup_memo;
  if (memo == nullptr) return run_sensor_prepass(threads);
  SensorBitsKey key = sensor_bits_key();
  if (std::optional<SensorBits> hit = memo->find(key)) {
    count_memo_lookup(true);
    prepass_ = "reused";
    cfg_.single_bit = hit->single_bit;
    log_info() << "campaign: sensor pre-pass reused from the set-up memo ("
               << hit->bits.size() << " bits of interest, bit "
               << cfg_.single_bit << ")";
    return std::move(hit->bits);
  }
  count_memo_lookup(false);
  std::vector<std::size_t> bits = run_sensor_prepass(threads);
  memo->insert(std::move(key), SensorBits{bits, cfg_.single_bit});
  return bits;
}

SensorBitsKey CpaCampaign::sensor_bits_key() const {
  SensorBitsKey key;
  key.circuit = setup_.circuit_kind();
  key.cal = setup_.calibration();
  key.platform_seed = setup_.seed();
  key.mode = cfg_.mode;
  key.single_bit = cfg_.single_bit;
  key.seed = cfg_.seed;
  key.selection_traces = cfg_.selection_traces;
  key.selection_min_variance = cfg_.selection_min_variance;
  key.selection_top_k = cfg_.selection_top_k;
  key.sample_times_ns = sample_times_;
  key.fence = cfg_.fence;
  return key;
}

std::vector<std::size_t> CpaCampaign::run_sensor_prepass(unsigned threads) {
  std::vector<std::size_t> bits;
  if (cfg_.mode == SensorMode::kBenignHw) {
    bits = select_bits_of_interest(threads);
    log_info() << "campaign: " << bits.size() << " bits of interest selected";
    SLM_REQUIRE(!bits.empty(),
                "CpaCampaign: no bits of interest — sensor not sensitive "
                "at this operating point");
  }
  if (cfg_.mode == SensorMode::kBenignSingleBit) {
    if (cfg_.single_bit == CampaignConfig::kAutoBit) {
      cfg_.single_bit = run_selection_pass(threads).highest_variance_bit();
      log_info() << "campaign: auto-selected endpoint bit "
                 << cfg_.single_bit;
    }
    SLM_REQUIRE(cfg_.single_bit < setup_.sensor_bits(),
                "CpaCampaign: single_bit out of range");
  }
  if (cfg_.mode == SensorMode::kTdcSingleBit) {
    if (cfg_.single_bit == CampaignConfig::kAutoBit) {
      cfg_.single_bit = tdc_stage(threads);
      log_info() << "campaign: auto-selected TDC stage " << cfg_.single_bit;
    }
    SLM_REQUIRE(cfg_.single_bit < setup_.calibration().tdc.stages,
                "CpaCampaign: TDC bit out of range");
  }
  return bits;
}

std::size_t CpaCampaign::tdc_stage(unsigned threads) const {
  // The paper picks "the highest variant bit ... close to the idle
  // value". The highest-variance thermometer stage is the one whose
  // firing probability sits closest to 1/2 at the operating point, so
  // probe the stages around the mean depth directly (the floored
  // reading's mean alone is biased by half a stage). Stage k >= 1 fires
  // iff the full reading is >= k, so one histogram serves those stages.
  // A 0 reading covers every noisy depth below 1, clamped ones included,
  // so stage 0 is counted from the sample's own voltage and draw.
  constexpr std::size_t kProbeTraces = 256;
  const std::size_t stages = setup_.calibration().tdc.stages;
  const std::size_t samples = sample_times_.size();
  const sensors::TdcSensor& tdc = setup_.tdc();
  const ReadingCounts h = run_pass(
      threads, capture_plan(Readout::kTdcFull, {}, kTraceDomainTdcStage),
      kProbeTraces, ReadingCounts(stages + 1),
      [samples, &tdc](std::size_t, std::size_t bn, CaptureBuffers& buf,
                      ReadingCounts& acc) {
        for (std::size_t i = 0; i < bn * samples; ++i) {
          const auto reading = static_cast<std::size_t>(buf.y[i]);
          ++acc.counts[reading];
          if (reading == 0 &&
              tdc.sample_bit_from_draw(0, buf.v[i], buf.z[i])) {
            ++acc.zero_fired;
          }
        }
      },
      nullptr);
  std::uint64_t total = 0;
  std::uint64_t depth_sum = 0;
  for (std::size_t k = 0; k <= stages; ++k) {
    total += h.counts[k];
    depth_sum += k * h.counts[k];
  }
  const std::size_t centre = static_cast<std::size_t>(depth_sum / total);
  std::size_t best_stage = centre;
  double best_dist = 1.0;
  for (std::size_t cand = (centre > 3 ? centre - 3 : 0);
       cand <= centre + 3 && cand < stages; ++cand) {
    std::uint64_t ones = cand == 0 ? h.zero_fired : 0;
    for (std::size_t k = std::max<std::size_t>(cand, 1); k <= stages; ++k) {
      ones += h.counts[k];
    }
    const double p = static_cast<double>(ones) / static_cast<double>(total);
    if (std::abs(p - 0.5) < best_dist) {
      best_dist = std::abs(p - 0.5);
      best_stage = cand;
    }
  }
  return best_stage;
}

unsigned CpaCampaign::shard_count(unsigned threads, std::size_t traces) const {
  return static_cast<unsigned>(std::min<std::size_t>(
      cfg_.pool != nullptr ? cfg_.pool->size() : resolve_threads(threads),
      std::max<std::size_t>(1, traces)));
}

sca::WelchTTest CpaCampaign::run_tvla(std::size_t traces_per_population,
                                      unsigned threads) {
  SLM_REQUIRE(traces_per_population >= 2, "run_tvla: too few traces");
  const std::size_t traces = 2 * traces_per_population;
  sca::require_fold_budget(traces, "run_tvla");
  std::unique_ptr<store::TraceStoreWriter> store_writer;
  if (!cfg_.store_out.empty()) {
    store_writer = std::make_unique<store::TraceStoreWriter>(
        cfg_.store_out, store_identity(store::StoreKind::kTvla, traces));
    store_writer->set_capture_threads(shard_count(threads, traces));
  }
  const std::vector<std::size_t> bits = resolve_sensor_bits(threads);
  if (store_writer) store_writer->set_resolved_single_bit(cfg_.single_bit);

  CapturePlan plan = capture_plan(readout_of(cfg_.mode), bits,
                                  kTraceDomainTvla);
  plan.fixed_even = crypto::block_from_hex("da39a3ee5e6b4b0d3255bfef95601890");
  const std::size_t samples = sample_times_.size();
  sca::WelchTTest ttest = run_pass(
      threads, plan, traces, sca::WelchTTest(samples),
      [samples](std::size_t g, std::size_t bn, CaptureBuffers& buf,
                sca::WelchTTest& acc) {
        for (std::size_t b = 0; b < bn; ++b) {
          acc.add((g + b) % 2 == 0, buf.y.data() + b * samples);
        }
      },
      store_writer.get());
  if (store_writer) finalize_trace_store(*store_writer, cfg_.observer);
  return ttest;
}

sca::BitSelector CpaCampaign::run_selection_pass(unsigned threads) const {
  const std::size_t samples = sample_times_.size();
  return run_pass(
      threads, capture_plan(Readout::kToggleCounts, {}, kTraceDomainSelection),
      cfg_.selection_traces, sca::BitSelector(setup_.sensor_bits()),
      [samples](std::size_t, std::size_t bn, CaptureBuffers& buf,
                sca::BitSelector& acc) { acc.add_batch(buf.ones, bn * samples); },
      nullptr);
}

std::vector<std::size_t> CpaCampaign::select_bits_of_interest(
    unsigned threads) const {
  const auto selector = run_selection_pass(threads);
  auto bits = selector.bits_of_interest(cfg_.selection_min_variance);
  if (cfg_.selection_top_k > 0 && bits.size() > cfg_.selection_top_k) {
    std::sort(bits.begin(), bits.end(), [&](std::size_t a, std::size_t b) {
      return selector.stat(a).variance > selector.stat(b).variance;
    });
    bits.resize(cfg_.selection_top_k);
    std::sort(bits.begin(), bits.end());
  }
  return bits;
}

CpaCampaign::Regs CpaCampaign::registers_before(const CapturePlan& plan,
                                                 std::size_t g) const {
  if (g == 0) return Regs{};
  crypto::Block pt;
  if (plan.fixed_even && (g - 1) % 2 == 0) {
    pt = *plan.fixed_even;
  } else {
    Xoshiro256 prev = Xoshiro256::trace_stream(cfg_.seed, plan.domain, g - 1);
    for (auto& b : pt) b = static_cast<std::uint8_t>(prev.next());
  }
  return setup_.victim().registers_after(pt, g - 1);
}

CapturePlan CpaCampaign::capture_plan(Readout readout,
                                      const std::vector<std::size_t>& bits,
                                      std::uint64_t domain) const {
  CapturePlan plan;
  plan.sensor = make_sensor_plan(readout, bits);
  plan.domain = domain;
  plan.block = resolve_block(cfg_.block);
  plan.simd = resolve_simd(cfg_.simd);
  plan.draw_level = plan.simd ? active_dispatch() : DispatchLevel::kScalar;
  plan.victim_level = plan.simd ? crypto::AesDatapathModel::active_level()
                                : crypto::AesDatapathModel::Level::kPortable;
  return plan;
}

void CpaCampaign::capture_block(const CapturePlan& plan, std::size_t g,
                                std::size_t bn, Regs& regs,
                                CaptureBuffers& buf,
                                store::TraceStoreWriter* store) const {
  const std::size_t block = plan.block;
  const std::size_t samples = sample_times_.size();
  const std::size_t ncyc = response_.cycle_count();
  buf.y.resize(block * samples);
  buf.ct.resize(block);
  buf.pt.resize(block);
  buf.rng.resize(block);
  buf.ic.resize(ncyc * block);
  buf.v.resize(block * samples);
  // Plaintexts: the first draws of each trace's counter-keyed stream,
  // which the lane keeps for its noise and sensor draws below.
  for (std::size_t b = 0; b < bn; ++b) {
    buf.rng[b] = Xoshiro256::trace_stream(cfg_.seed, plan.domain, g + b);
  }
  static_assert(sizeof(crypto::Block) == 16);
  fill_bytes_lanes(buf.rng.data(), bn,
                   reinterpret_cast<std::uint8_t*>(buf.pt.data()), 16, 16,
                   plan.draw_level);
  if (plan.fixed_even) {
    for (std::size_t b = g % 2; b < bn; b += 2) buf.pt[b] = *plan.fixed_even;
  }
  // The victim writes each trace's per-cycle currents cycle-major
  // (ic[c * block + b]), so the lane-inner PDN kernel is unit-stride.
  // The active fence sits in the victim region and rides on the same
  // coupling path. A constant fence (random_current_a == 0) adds
  // base + u * 0.0, which is base for every finite u in [0, 1), so it
  // draws nothing: the victim folds base and the coupling into its
  // current table. A randomised fence draws per cycle from the trace's
  // fence stream, cycle-ascending, before the coupling.
  const double coupling = setup_.effective_coupling();
  const bool random_fence =
      fence_ && fence_->config().random_current_a != 0.0;
  crypto::AesDatapathModel::CurrentFold fold;
  if (!random_fence) {
    if (fence_) fold.add = fence_->config().base_current_a;
    fold.scale = coupling;
  }
  setup_.victim().encrypt_block(buf.pt.data(), bn, g, regs, buf.ic.data(),
                                block, buf.ct.data(), fold, plan.victim_level);
  if (store != nullptr) {
    for (std::size_t b = 0; b < bn; ++b) {
      store->record_meta(g + b, buf.pt[b], buf.ct[b]);
    }
  }
  if (random_fence) {
    for (std::size_t b = 0; b < bn; ++b) {
      Xoshiro256 frng = fence_->trace_rng(g + b);
      for (std::size_t c = 0; c < ncyc; ++c) {
        double& i = buf.ic[c * block + b];
        i += fence_->cycle_current(frng);
        i *= coupling;
      }
    }
  }
  // The scalar matvec is a latency-bound FP-add chain, so this is where
  // blocking pays most.
  response_.voltages_block(buf.ic.data(), bn, block, buf.v.data(),
                           plan.simd);
  // Every lane's draws, in its stream's order: the env noise of each
  // sample, then the sensor's draws_per_sample normals per sample. The
  // sensor is then evaluated from the draws, with no stream in hand.
  const std::size_t n = bn * samples;
  const std::size_t dps = plan.sensor.draws_per_sample;
  buf.zv.resize(block * samples);
  buf.z.resize(block * samples * dps);
  const FastNormal& normal = FastNormal::instance();
  normal.fill_lanes(buf.rng.data(), bn, buf.zv.data(), samples, samples,
                    plan.draw_level);
  normal.fill_lanes(buf.rng.data(), bn, buf.z.data(), samples * dps,
                    samples * dps, plan.draw_level);
  const double env_noise_v = setup_.calibration().env_noise_v;
  for (std::size_t i = 0; i < n; ++i) {
    buf.v[i] += 0.0 + env_noise_v * buf.zv[i];
  }
  const double* v = buf.v.data();
  const double* z = buf.z.data();
  double* y = buf.y.data();
  switch (plan.sensor.readout) {
    case Readout::kBenignHw:
      setup_.sensor().toggle_hw_block(plan.sensor.hw, v, n, z, y, plan.simd);
      break;
    case Readout::kBenignSingleBit:
      setup_.sensor().toggle_bit_block(plan.sensor.bit, v, n, z, y);
      break;
    case Readout::kToggleCounts:
      buf.ones.assign(setup_.sensor_bits(), 0);
      setup_.sensor().toggle_accumulate_block(v, n, z, buf.ones.data());
      break;
    case Readout::kTdcFull:
      for (std::size_t i = 0; i < n; ++i) {
        y[i] = static_cast<double>(setup_.tdc().sample_from_draw(v[i], z[i]));
      }
      break;
    case Readout::kTdcSingleBit:
      for (std::size_t i = 0; i < n; ++i) {
        y[i] = setup_.tdc().sample_bit_from_draw(cfg_.single_bit, v[i], z[i])
                   ? 1.0
                   : 0.0;
      }
      break;
    case Readout::kRoCounter:
      for (std::size_t i = 0; i < n; ++i) {
        y[i] = static_cast<double>(
            setup_.ro_sensor().sample_from_draw(v[i], z[i]));
      }
      break;
  }
  if (store != nullptr) store->record_readings_block(g, buf.y.data(), bn);
}

namespace {

// The shard accumulators merged in fixed shard order — bit-exact for any
// order, because the sums are integers. One shard is its own merge.
template <class Acc>
const Acc& merged_acc(const std::vector<Shard<Acc>>& shards,
                      std::optional<Acc>& scratch, std::size_t samples) {
  if (shards.size() == 1) return shards[0].acc;
  scratch.emplace(samples);
  for (const Shard<Acc>& sh : shards) scratch->merge(sh.acc);
  return *scratch;
}

template <class Acc>
std::string shard_positions(const std::vector<Shard<Acc>>& shards) {
  std::string out = "[";
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(shards[i].position);
  }
  return out + ']';
}

// The byte analysis: one model over XorClassCpa shards; a progress point
// and a `checkpoint` event at every checkpoint.
struct ByteAnalysis {
  using Acc = sca::XorClassCpa;
  static constexpr bool kFullKey = false;

  ByteAnalysis(const CampaignConfig& cfg, const crypto::Block& lrk)
      : models{sca::LastRoundBitModel(cfg.target_key_byte, cfg.target_bit)} {
    result.correct_guess = models[0].correct_guess(lrk);
  }

  void resume(const CampaignCheckpoint& ck) { result.progress = ck.progress; }

  void fold(const Acc& acc, std::size_t /*cp*/, obs::CampaignObserver*) {
    result.progress.push_back(sca::snapshot_progress(
        acc.fold(models[0].pattern().data()), result.correct_guess));
  }

  void note(obs::CampaignObserver& ob, std::size_t /*cp*/, double seg_rate,
            const std::string& shard_traces) const {
    const sca::CpaProgressPoint& p = result.progress.back();
    ob.metrics().set("slm.cpa.best_guess", static_cast<double>(p.best_guess));
    ob.metrics().set("slm.cpa.correct_corr", p.correct_corr);
    ob.metrics().set("slm.cpa.corr_margin", p.correct_corr - p.best_wrong_corr);
    ob.event("checkpoint",
             obs::JsonWriter()
                 .field("traces", static_cast<std::uint64_t>(p.traces))
                 .field("best_guess", static_cast<std::uint64_t>(p.best_guess))
                 .field("correct_rank",
                        static_cast<std::uint64_t>(p.correct_rank))
                 .field("correct_corr", p.correct_corr)
                 .field("best_wrong_corr", p.best_wrong_corr)
                 .field("corr_margin", p.correct_corr - p.best_wrong_corr)
                 .field("traces_per_sec", seg_rate)
                 .raw("shard_traces", shard_traces));
  }

  void save(CampaignCheckpoint& ck) const { ck.progress = result.progress; }

  // The winner is the last progress point's, as for every full-key byte.
  void finish() {
    const sca::CpaProgressPoint& p = result.progress.back();
    result.final_max_abs_corr = p.max_abs_corr;
    result.recovered_guess = static_cast<std::uint8_t>(p.best_guess);
    result.key_recovered = result.recovered_guess == result.correct_guess;
    result.mtd = sca::estimate_mtd(result.progress);
  }

  CampaignResult result;
  const std::vector<sca::LastRoundBitModel> models;
};

// The full-key analysis: sixteen models over MultiByteCpa shards, the
// shared early-exit tracker and `fullkey_*` events. Only the labels
// consult a model, so the capture stream is the byte analysis's.
struct FullKeyAnalysis {
  using Acc = sca::MultiByteCpa;
  static constexpr bool kFullKey = true;

  FullKeyAnalysis(const CampaignConfig& cfg, const FullKeyConfig& fk,
                  const crypto::Block& lrk)
      : tracker(fk, cfg.target_bit, lrk, result.bytes),
        models(tracker.models()) {}

  void resume(const CampaignCheckpoint& ck) {
    for (std::size_t j = 0; j < sca::MultiByteCpa::kBytes; ++j) {
      const FullKeyByteCheckpoint& fb = ck.fullkey_bytes[j];
      tracker.state()[j] = {fb.converged, static_cast<std::size_t>(fb.stable),
                            static_cast<std::size_t>(fb.prev_best)};
      result.bytes[j].progress = fb.progress;
      if (fb.converged) {
        tracker.freeze(j, fb.recovered,
                       static_cast<std::size_t>(fb.frozen_traces),
                       fb.frozen_corr);
      }
    }
  }

  void fold(const Acc& acc, std::size_t cp, obs::CampaignObserver* ob) {
    for (const sca::EarlyExitTracker::Freeze& f : tracker.fold_at(acc, cp)) {
      if (ob == nullptr) continue;
      ob->metrics().add("slm.fullkey.converged_total");
      ob->metrics().observe("slm.fullkey.convergence_traces",
                            static_cast<double>(cp));
      ob->event("fullkey_byte_converged",
                obs::JsonWriter()
                    .field("byte", static_cast<std::uint64_t>(f.byte))
                    .field("traces", static_cast<std::uint64_t>(cp))
                    .field("guess", static_cast<std::uint64_t>(
                                        result.bytes[f.byte].recovered))
                    .field("margin", f.margin));
    }
  }

  void note(obs::CampaignObserver& ob, std::size_t cp, double seg_rate,
            const std::string& shard_traces) const {
    const std::size_t converged = tracker.converged();
    ob.metrics().set("slm.fullkey.bytes_converged",
                     static_cast<double>(converged));
    ob.event("fullkey_checkpoint",
             obs::JsonWriter()
                 .field("traces", static_cast<std::uint64_t>(cp))
                 .field("bytes_converged",
                        static_cast<std::uint64_t>(converged))
                 .field("bytes_active",
                        static_cast<std::uint64_t>(sca::MultiByteCpa::kBytes -
                                                   converged))
                 .field("traces_per_sec", seg_rate)
                 .raw("shard_traces", shard_traces));
  }

  void save(CampaignCheckpoint& ck) {
    for (std::size_t j = 0; j < sca::MultiByteCpa::kBytes; ++j) {
      const sca::EarlyExitTracker::ByteState& s = tracker.state()[j];
      const FullKeyByteResult& br = result.bytes[j];
      FullKeyByteCheckpoint fb;
      fb.converged = s.converged;
      fb.stable = s.stable;
      fb.prev_best = s.prev_best;
      if (s.converged) {
        fb.frozen_traces = br.traces;
        fb.recovered = br.recovered;
        fb.frozen_corr = br.final_max_abs_corr;
      }
      fb.progress = br.progress;
      ck.fullkey_bytes.push_back(std::move(fb));
    }
  }

  void finish() { tracker.finish(); }

  FullKeyRunResult result;
  sca::EarlyExitTracker tracker;
  const std::vector<sca::LastRoundBitModel>& models;
};

}  // namespace

template <class Acc, class Fold>
void CpaCampaign::capture_range(const CapturePlan& plan, std::size_t g0,
                                std::size_t g1, Shard<Acc>& sh,
                                store::TraceStoreWriter* store,
                                const Fold& fold) const {
  if (g0 >= g1) return;
  const bool timed = cfg_.observer != nullptr;
  Regs regs = registers_before(plan, g0);
  for (std::size_t g = g0; g < g1;) {
    const std::size_t bn = std::min(plan.block, g1 - g);
    const double t0 = timed ? obs::monotonic_seconds() : 0.0;
    capture_block(plan, g, bn, regs, sh.buf, store);
    const double t1 = timed ? obs::monotonic_seconds() : 0.0;
    fold(g, bn, sh.buf, sh.acc);
    if (timed) {
      sh.kernel_s += t1 - t0;
      sh.cpa_s += obs::monotonic_seconds() - t1;
    }
    ++sh.blocks;
    sh.position += bn;
    g += bn;
  }
}

template <class Acc, class Fold>
void CpaCampaign::capture_split(const Workers& w, const CapturePlan& plan,
                                std::vector<Shard<Acc>>& shards,
                                std::size_t g0, std::size_t g1,
                                store::TraceStoreWriter* store,
                                const Fold& fold) const {
  const std::size_t n = g1 - g0;
  const std::size_t T = shards.size();
  // Shard i owns traces [g0 + i n / T, g0 + (i + 1) n / T): no cross-shard
  // RNG ordering at all, and every shard stores its own rows.
  const std::function<void(std::size_t)> body = [&](std::size_t i) {
    capture_range(plan, g0 + i * n / T, g0 + (i + 1) * n / T, shards[i],
                  store, fold);
  };
  if (w.pool == nullptr) {
    body(0);
  } else {
    w.pool->run_indexed(T, body);
  }
}

template <class Acc, class Fold>
Acc CpaCampaign::run_pass(unsigned threads, const CapturePlan& plan,
                          std::size_t traces, const Acc& blank,
                          const Fold& fold,
                          store::TraceStoreWriter* store) const {
  const Workers w(shard_count(threads, traces), cfg_.pool);
  std::vector<Shard<Acc>> shards(w.shards, Shard<Acc>(blank));
  capture_split(w, plan, shards, 0, traces, store, fold);
  Acc total = blank;
  for (const Shard<Acc>& sh : shards) total.merge(sh.acc);
  return total;
}

template <class Acc, class Fold>
void CpaCampaign::capture_segment(const Workers& w, const CapturePlan& plan,
                                  std::vector<Shard<Acc>>& shards,
                                  std::size_t covered, std::size_t cp,
                                  store::TraceStoreWriter* store,
                                  const Fold& fold) const {
  obs::CampaignObserver* const ob = cfg_.observer;
  {
    std::optional<obs::CampaignObserver::Span> span;
    if (ob != nullptr) span.emplace(ob->span("capture"));
    capture_split(w, plan, shards, covered, cp, store, fold);
  }
  if (ob != nullptr) {
    // Per-shard block counts, batched to the checkpoint boundary like the
    // phase timers (workers never touch the registry mid-segment).
    double nb = 0.0;
    for (Shard<Acc>& sh : shards) {
      nb += static_cast<double>(sh.blocks);
      sh.blocks = 0;
    }
    if (nb > 0.0) ob->metrics().add("slm.kernel.blocks_total", nb);
  }
}

std::optional<CampaignCheckpoint> CpaCampaign::load_resume(unsigned shards,
                                                           bool fullkey) const {
  if (!cfg_.resume || cfg_.checkpoint_dir.empty()) return std::nullopt;
  std::optional<CampaignCheckpoint> ck = load_checkpoint(cfg_.checkpoint_dir);
  if (!ck) return std::nullopt;
  // The selection pre-pass re-ran from its own deterministic seed
  // streams and every capture stream re-derives from (seed, trace
  // index), so the accumulators and progress are all a snapshot holds.
  require_checkpoint_matches(*ck, cfg_, shards, sample_times_.size(),
                             fullkey);
  for (const CheckpointShard& cs : ck->shard_state) {
    SLM_REQUIRE(cs.has_fence == fence_.has_value(),
                "resume: fence configuration differs from snapshot");
  }
  const std::string path = checkpoint_file(cfg_.checkpoint_dir);
  log_info() << (fullkey ? "fullkey" : "campaign") << ": resumed from "
             << path << " at trace " << ck->traces_done << "/" << cfg_.traces
             << " across " << shards << " shards";
  if (obs::CampaignObserver* const ob = cfg_.observer) {
    ob->metrics().add("slm.checkpoint.resumes_total");
    ob->event("resume",
              obs::JsonWriter()
                  .field("traces_done", ck->traces_done)
                  .field("shards", static_cast<std::uint64_t>(shards))
                  .field("path", path));
  }
  return ck;
}

void CpaCampaign::write_snapshot(const CampaignCheckpoint& ck,
                                 std::string* path, double* io_seconds) const {
  obs::CampaignObserver* const ob = cfg_.observer;
  std::optional<obs::CampaignObserver::Span> span;
  if (ob != nullptr) span.emplace(ob->span("checkpoint"));
  const double s0 = obs::monotonic_seconds();
  const std::size_t bytes = save_checkpoint(cfg_.checkpoint_dir, ck);
  *path = checkpoint_file(cfg_.checkpoint_dir);
  const double io = obs::monotonic_seconds() - s0;
  *io_seconds += io;
  if (ob != nullptr) {
    ob->metrics().add("slm.checkpoint.snapshots_total");
    ob->metrics().add("slm.checkpoint.bytes_total",
                      static_cast<double>(bytes));
    ob->metrics().observe("slm.checkpoint.write_seconds", io);
    ob->event("snapshot",
              obs::JsonWriter()
                  .field("traces", ck.traces_done)
                  .field("bytes", static_cast<std::uint64_t>(bytes))
                  .field("seconds", io)
                  .field("path", *path));
  }
}

void CpaCampaign::halt_if_due(std::size_t done, const std::string& path) const {
  if (cfg_.halt_after_traces == 0 || done < cfg_.halt_after_traces) return;
  if (cfg_.observer != nullptr) {
    cfg_.observer->event("halt",
                         obs::JsonWriter()
                             .field("traces", static_cast<std::uint64_t>(done))
                             .field("path", path));
  }
  throw CampaignHalted(done, path);
}

template <class Analysis>
void CpaCampaign::run_engine(unsigned threads, Analysis& an) {
  using Acc = typename Analysis::Acc;
  constexpr bool fullkey = Analysis::kFullKey;
  const double wall_start = obs::monotonic_seconds();
  const unsigned shard_count = this->shard_count(threads, cfg_.traces);
  obs::CampaignObserver* const ob = cfg_.observer;
  const bool timed = ob != nullptr;
  (void)resolve_contract(cfg_.rng_contract);
  CampaignRun& result = an.result;
  result.mode = cfg_.mode;
  result.sample_times_ns = sample_times_;

  // The store fingerprint hashes the *requested* endpoint bit, so the
  // writer is created before bit resolution mutates cfg_.single_bit — a
  // replay-side CpaCampaign never resolves and must hash the same value.
  std::unique_ptr<store::TraceStoreWriter> store_writer;
  if (!cfg_.store_out.empty()) {
    // A resumed run never regenerates the traces captured before the
    // snapshot, so its store would be silently short.
    SLM_REQUIRE(!cfg_.resume,
                "store_out: cannot combine with resume — traces captured "
                "before the snapshot would be missing from the store");
    store_writer = std::make_unique<store::TraceStoreWriter>(
        cfg_.store_out,
        store_identity(fullkey ? store::StoreKind::kFullKey
                               : store::StoreKind::kByteCampaign,
                       cfg_.traces));
    store_writer->set_capture_threads(shard_count);
  }
  {
    const double t0 = obs::monotonic_seconds();
    std::optional<obs::CampaignObserver::Span> span;
    if (ob != nullptr) span.emplace(ob->span("selection"));
    result.bits_of_interest = resolve_sensor_bits(threads);
    result.selection_seconds = obs::monotonic_seconds() - t0;
  }
  result.single_bit = cfg_.single_bit;
  result.prepass = prepass_;
  if (store_writer) store_writer->set_resolved_single_bit(cfg_.single_bit);

  // Built after the pre-pass, whose own workers are gone by now, so a
  // run never holds two idle private pools.
  const Workers workers(shard_count, cfg_.pool);
  const CapturePlan plan = capture_plan(
      readout_of(cfg_.mode), result.bits_of_interest, kTraceDomainCapture);
  result.block_size = plan.block;
  const std::size_t samples = sample_times_.size();
  // Each shard bins its traces into (ciphertext-class, base-bit) cells;
  // the merge folds them into full per-guess CPA sums at checkpoints only
  // (see sca::XorClassCpa).
  std::vector<Shard<Acc>> shards(shard_count, Shard<Acc>(Acc(samples)));
  if (const auto ck = load_resume(shard_count, fullkey)) {
    for (std::size_t i = 0; i < shards.size(); ++i) {
      const CheckpointShard& cs = ck->shard_state[i];
      shards[i].position = static_cast<std::size_t>(cs.position);
      ByteReader acc(cs.accumulator.data(), cs.accumulator.size());
      shards[i].acc.load(acc);
      SLM_REQUIRE(acc.done(), "resume: trailing accumulator bytes");
    }
    an.resume(*ck);
    result.resumed_from = static_cast<std::size_t>(ck->traces_done);
    result.traces_run = result.resumed_from;
  }
  if (ob != nullptr) {
    ob->metrics().set("slm.campaign.traces_target",
                      static_cast<double>(cfg_.traces));
    ob->metrics().set("slm.kernel.block_size", static_cast<double>(plan.block));
    obs::JsonWriter w;
    w.field("mode", sensor_mode_name(cfg_.mode));
    if (fullkey) {
      ob->metrics().set("slm.fullkey.bytes_total",
                        static_cast<double>(sca::MultiByteCpa::kBytes));
      w.field("fullkey", true);
    }
    ob->event("run_start",
              w.field("traces", static_cast<std::uint64_t>(cfg_.traces))
                  .field("seed", static_cast<std::uint64_t>(cfg_.seed))
                  .field("threads", static_cast<std::uint64_t>(shard_count))
                  .field("compiled", true)
                  .field("block", static_cast<std::uint64_t>(plan.block))
                  .field("rng_contract", rng_contract_name(RngContract::kV2))
                  .field("prepass", prepass_)
                  .field("resumed_from",
                         static_cast<std::uint64_t>(result.resumed_from)));
  }

  double ckpt_io_s = 0.0;
  std::size_t seg_traces = result.resumed_from;
  double seg_time = timed ? obs::monotonic_seconds() : 0.0;
  const auto fold = [&an](std::size_t, std::size_t bn, CaptureBuffers& buf,
                          Acc& acc) { fold_block(an.models, bn, buf, acc); };
  std::size_t covered = result.resumed_from;
  for (const std::size_t cp :
       checkpoint_schedule(cfg_.checkpoints, cfg_.traces)) {
    if (cp <= result.resumed_from) continue;
    capture_segment(workers, plan, shards, covered, cp, store_writer.get(),
                    fold);
    covered = cp;
    result.traces_run = cp;
    {
      // Merge in fixed shard order, then fold on the coordinator.
      std::optional<obs::CampaignObserver::Span> span;
      if (ob != nullptr) span.emplace(ob->span("merge"));
      const double m0 = timed ? obs::monotonic_seconds() : 0.0;
      std::optional<Acc> scratch;
      an.fold(merged_acc(shards, scratch, samples), cp, ob);
      // Booked against shard 0 so the sum over shards counts it once.
      if (timed) shards[0].cpa_s += obs::monotonic_seconds() - m0;
    }
    if (ob != nullptr) {
      // Capture rate since the previous checkpoint event.
      const double now = obs::monotonic_seconds();
      const double seg_rate =
          now > seg_time
              ? static_cast<double>(cp - seg_traces) / (now - seg_time)
              : 0.0;
      seg_traces = cp;
      seg_time = now;
      ob->metrics().add("slm.campaign.checkpoints_total");
      ob->metrics().set("slm.campaign.traces_done", static_cast<double>(cp));
      ob->metrics().observe("slm.campaign.segment_traces_per_sec", seg_rate);
      an.note(*ob, cp, seg_rate, shard_positions(shards));
    }
    if (!cfg_.checkpoint_dir.empty()) {
      CampaignCheckpoint ck;
      ck.seed = cfg_.seed;
      ck.total_traces = cfg_.traces;
      ck.mode = static_cast<std::uint32_t>(cfg_.mode);
      ck.shards = shard_count;
      ck.samples = samples;
      ck.target_key_byte = cfg_.target_key_byte;
      ck.target_bit = cfg_.target_bit;
      ck.single_bit = cfg_.single_bit;
      ck.compiled = true;
      ck.block = plan.block;
      ck.rng_contract = static_cast<std::uint32_t>(RngContract::kV2);
      ck.fullkey = fullkey;
      ck.traces_done = cp;
      for (const Shard<Acc>& sh : shards) {
        CheckpointShard cs;
        cs.position = sh.position;
        cs.has_fence = fence_.has_value();
        ByteWriter acc;
        sh.acc.save(acc);
        cs.accumulator = acc.bytes();
        ck.shard_state.push_back(std::move(cs));
      }
      an.save(ck);
      write_snapshot(ck, &result.snapshot_path, &ckpt_io_s);
    }
    halt_if_due(cp, result.snapshot_path);
  }

  an.finish();
  if (store_writer) finalize_trace_store(*store_writer, ob);
  result.checkpoint_io_seconds = ckpt_io_s;
  for (const Shard<Acc>& sh : shards) {
    result.kernel_seconds += sh.kernel_s;
    result.cpa_seconds += sh.cpa_s;
  }
  if (ob != nullptr) {
    ob->metrics().set("slm.campaign.kernel_seconds", result.kernel_seconds);
    ob->metrics().set("slm.campaign.cpa_seconds", result.cpa_seconds);
    ob->metrics().set("slm.campaign.checkpoint_io_seconds",
                      result.checkpoint_io_seconds);
    ob->metrics().set("slm.campaign.selection_seconds",
                      result.selection_seconds);
  }
  result.threads_used = shard_count;
  result.capture_seconds = obs::monotonic_seconds() - wall_start;
}

CampaignResult CpaCampaign::run(unsigned threads) {
  ByteAnalysis an(cfg_, setup_.victim().cipher().last_round_key());
  run_engine(threads, an);
  return std::move(an.result);
}

FullKeyRunResult CpaCampaign::run_fullkey(const FullKeyConfig& fk,
                                          unsigned threads) {
  FullKeyAnalysis an(cfg_, fk, setup_.victim().cipher().last_round_key());
  run_engine(threads, an);
  return std::move(an.result);
}

}  // namespace slm::core
