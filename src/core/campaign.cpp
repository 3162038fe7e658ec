#include "core/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "core/capture.hpp"
#include "core/checkpoint.hpp"
#include "core/parallel.hpp"
#include "core/setup_memo.hpp"
#include "obs/observer.hpp"
#include "sca/fold_kernels.hpp"
#include "sca/selection.hpp"
#include "store/trace_store.hpp"

namespace slm::core {

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

void CpaCampaign::make_voltages(
    const crypto::AesDatapathModel::Encryption& enc, Xoshiro256& rng,
    std::vector<double>& v_out) const {
  const Calibration& cal = setup_.calibration();
  // Victim current as seen by the attacker region (coupling-attenuated).
  static thread_local std::vector<double> i_cycles;
  i_cycles.assign(enc.cycle_current.begin(), enc.cycle_current.end());
  if (fence_) {
    // The active fence sits in the victim region: its randomised draw
    // rides on the same coupling path and masks the victim's signal.
    for (double& i : i_cycles) i += fence_->next_cycle_current();
  }
  const double coupling = setup_.effective_coupling();
  for (double& i : i_cycles) i *= coupling;

  response_.voltages(i_cycles, v_out);
  // One batched draw block; identical values and stream order to the
  // per-sample normal(rng, 0.0, sigma) calls (see FastNormal::fill).
  static thread_local std::vector<double> z;
  z.resize(v_out.size());
  FastNormal::instance().fill(rng, z.data(), z.size());
  for (std::size_t s = 0; s < v_out.size(); ++s) {
    v_out[s] += 0.0 + cal.env_noise_v * z[s];
  }
}

void CpaCampaign::read_sensor(const double* v, std::size_t n,
                              const std::vector<std::size_t>& bits,
                              Xoshiro256& rng, double* y) const {
  switch (cfg_.mode) {
    case SensorMode::kTdcFull:
      for (std::size_t s = 0; s < n; ++s) {
        y[s] = static_cast<double>(setup_.tdc().sample(v[s], rng));
      }
      break;
    case SensorMode::kTdcSingleBit:
      for (std::size_t s = 0; s < n; ++s) {
        y[s] =
            setup_.tdc().sample_bit(cfg_.single_bit, v[s], rng) ? 1.0 : 0.0;
      }
      break;
    case SensorMode::kBenignHw:
      for (std::size_t s = 0; s < n; ++s) {
        y[s] = static_cast<double>(
            setup_.sensor().sample_toggle_hw(bits, v[s], rng));
      }
      break;
    case SensorMode::kBenignSingleBit:
      for (std::size_t s = 0; s < n; ++s) {
        y[s] = setup_.sensor().sample_toggle_bit(cfg_.single_bit, v[s], rng)
                   ? 1.0
                   : 0.0;
      }
      break;
    case SensorMode::kRoCounter:
      for (std::size_t s = 0; s < n; ++s) {
        y[s] = static_cast<double>(setup_.ro_sensor().sample(v[s], rng));
      }
      break;
  }
}

SensorPlan CpaCampaign::make_sensor_plan(
    const std::vector<std::size_t>& bits) const {
  SensorPlan plan;
  switch (cfg_.mode) {
    case SensorMode::kBenignHw:
      plan.hw = setup_.sensor().compile_hw_plan(bits);
      plan.draws_per_sample = plan.hw.draws_per_sample;
      break;
    case SensorMode::kBenignSingleBit:
      plan.bit = setup_.sensor().compile_bit_plan(cfg_.single_bit);
      plan.draws_per_sample = 2;  // common jitter, endpoint jitter
      break;
    case SensorMode::kTdcFull:
    case SensorMode::kTdcSingleBit:
    case SensorMode::kRoCounter:
      plan.draws_per_sample = 1;
      break;
  }
  return plan;
}

std::vector<std::size_t> CpaCampaign::resolve_sensor_bits() {
  const bool auto_bit = cfg_.single_bit == CampaignConfig::kAutoBit &&
                        (cfg_.mode == SensorMode::kBenignSingleBit ||
                         cfg_.mode == SensorMode::kTdcSingleBit);
  if (cfg_.mode != SensorMode::kBenignHw && !auto_bit) {
    prepass_ = "none";  // only the range checks run
    return run_sensor_prepass();
  }
  prepass_ = "ran";
  SetupMemo* const memo = cfg_.setup_memo;
  if (memo == nullptr) return run_sensor_prepass();
  SensorBitsKey key = sensor_bits_key();
  if (std::optional<SensorBits> hit = memo->find(key)) {
    count_memo_lookup(true);
    prepass_ = "reused";
    // Leave the setup exactly as the pass would have: a later stateful
    // pass (TVLA's loop, the next campaign on this setup) reads it.
    setup_.victim().restore_registers(hit->registers);
    if (fence_) fence_->set_rng_state(*hit->fence_state);
    cfg_.single_bit = hit->single_bit;
    log_info() << "campaign: sensor pre-pass reused from the set-up memo ("
               << hit->bits.size() << " bits of interest, bit "
               << cfg_.single_bit << ")";
    return std::move(hit->bits);
  }
  count_memo_lookup(false);
  std::vector<std::size_t> bits = run_sensor_prepass();
  memo->insert(std::move(key),
               SensorBits{bits, cfg_.single_bit,
                          setup_.victim().register_snapshot(),
                          fence_ ? std::optional(fence_->rng_state())
                                 : std::nullopt});
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
  if (fence_) key.fence_state = fence_->rng_state();
  key.registers = setup_.victim().register_snapshot();
  return key;
}

std::vector<std::size_t> CpaCampaign::run_sensor_prepass() {
  std::vector<std::size_t> bits;
  if (cfg_.mode == SensorMode::kBenignHw) {
    bits = select_bits_of_interest();
    log_info() << "campaign: " << bits.size() << " bits of interest selected";
    SLM_REQUIRE(!bits.empty(),
                "CpaCampaign: no bits of interest — sensor not sensitive "
                "at this operating point");
  }
  if (cfg_.mode == SensorMode::kBenignSingleBit) {
    if (cfg_.single_bit == CampaignConfig::kAutoBit) {
      cfg_.single_bit = run_selection_pass().highest_variance_bit();
      log_info() << "campaign: auto-selected endpoint bit "
                 << cfg_.single_bit;
    }
    SLM_REQUIRE(cfg_.single_bit < setup_.sensor_bits(),
                "CpaCampaign: single_bit out of range");
  }
  if (cfg_.mode == SensorMode::kTdcSingleBit) {
    if (cfg_.single_bit == CampaignConfig::kAutoBit) {
      // The paper picks "the highest variant bit ... close to the idle
      // value". The highest-variance thermometer stage is the one whose
      // firing probability sits closest to 1/2 at the operating point,
      // so probe the stages around the mean depth directly (the floored
      // reading's mean alone is biased by half a stage).
      Xoshiro256 pre_rng(cfg_.seed ^ 0x7dc0u);
      std::vector<double> v;
      std::vector<double> voltages;
      OnlineMeanVar depth;
      for (std::size_t t = 0; t < 256; ++t) {
        crypto::Block pt;
        for (auto& b : pt) b = static_cast<std::uint8_t>(pre_rng.next());
        const auto enc = setup_.victim().encrypt(pt);
        make_voltages(enc, pre_rng, v);
        for (double vs : v) {
          voltages.push_back(vs);
          depth.add(static_cast<double>(setup_.tdc().sample(vs, pre_rng)));
        }
      }
      const std::size_t stages = setup_.calibration().tdc.stages;
      const auto centre = static_cast<std::size_t>(depth.mean());
      std::size_t best_stage = centre;
      double best_dist = 1.0;
      for (std::size_t cand = (centre > 3 ? centre - 3 : 0);
           cand <= centre + 3 && cand < stages; ++cand) {
        std::size_t ones = 0;
        for (double vs : voltages) {
          if (setup_.tdc().sample_bit(cand, vs, pre_rng)) ++ones;
        }
        const double p = static_cast<double>(ones) /
                         static_cast<double>(voltages.size());
        if (std::abs(p - 0.5) < best_dist) {
          best_dist = std::abs(p - 0.5);
          best_stage = cand;
        }
      }
      cfg_.single_bit = best_stage;
      log_info() << "campaign: auto-selected TDC stage " << cfg_.single_bit;
    }
    SLM_REQUIRE(cfg_.single_bit < setup_.calibration().tdc.stages,
                "CpaCampaign: TDC bit out of range");
  }
  return bits;
}

sca::WelchTTest CpaCampaign::run_tvla(std::size_t traces_per_population) {
  SLM_REQUIRE(traces_per_population >= 2, "run_tvla: too few traces");
  sca::require_fold_budget(2 * traces_per_population, "run_tvla");
  std::unique_ptr<store::TraceStoreWriter> store_writer;
  if (!cfg_.store_out.empty()) {
    store_writer = std::make_unique<store::TraceStoreWriter>(
        cfg_.store_out,
        store_identity(store::StoreKind::kTvla, 2 * traces_per_population));
  }
  const std::vector<std::size_t> bits = resolve_sensor_bits();
  if (store_writer) store_writer->set_resolved_single_bit(cfg_.single_bit);

  sca::WelchTTest ttest(sample_times_.size());
  Xoshiro256 rng(cfg_.seed ^ 0x77a1u);
  const crypto::Block fixed_pt =
      crypto::block_from_hex("da39a3ee5e6b4b0d3255bfef95601890");
  std::vector<double> v;
  std::vector<double> y;
  for (std::size_t t = 0; t < 2 * traces_per_population; ++t) {
    const bool fixed = (t % 2) == 0;
    crypto::Block pt = fixed_pt;
    if (!fixed) {
      for (auto& b : pt) b = static_cast<std::uint8_t>(rng.next());
    }
    const auto enc = setup_.victim().encrypt(pt);
    make_voltages(enc, rng, v);
    y.resize(v.size());
    read_sensor(v.data(), v.size(), bits, rng, y.data());
    ttest.add(fixed, y);
    if (store_writer) {
      store_writer->record_meta(t, pt, enc.ciphertext);
      store_writer->record_readings(t, y.data());
    }
  }
  if (store_writer) finalize_trace_store(*store_writer, cfg_.observer);
  return ttest;
}

sca::BitSelector CpaCampaign::run_selection_pass() {
  Xoshiro256 rng(cfg_.seed ^ 0xb17561ec7u);
  sca::BitSelector selector(setup_.sensor_bits());
  std::vector<double> v;
  // Per-bit toggle counts over every sample; the per-sample reference
  // (BitSelector::add over sample_toggles words) lives in the tests.
  std::vector<std::size_t> ones(setup_.sensor_bits(), 0);
  std::size_t samples = 0;
  for (std::size_t t = 0; t < cfg_.selection_traces; ++t) {
    crypto::Block pt;
    for (auto& b : pt) b = static_cast<std::uint8_t>(rng.next());
    const auto enc = setup_.victim().encrypt(pt);
    make_voltages(enc, rng, v);
    setup_.sensor().toggle_accumulate_batch(v.data(), v.size(), rng,
                                            ones.data());
    samples += v.size();
  }
  selector.add_batch(ones, samples);
  return selector;
}

std::vector<std::size_t> CpaCampaign::select_bits_of_interest() {
  const auto selector = run_selection_pass();
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

CpaCampaign::Regs CpaCampaign::registers_before(std::size_t g) const {
  if (g == 0) return Regs{};
  Xoshiro256 prev =
      Xoshiro256::trace_stream(cfg_.seed, kTraceDomainCapture, g - 1);
  crypto::Block pt;
  for (auto& b : pt) b = static_cast<std::uint8_t>(prev.next());
  return setup_.victim().registers_after(pt, g - 1);
}

CapturePlan CpaCampaign::capture_plan(
    const std::vector<std::size_t>& bits) const {
  CapturePlan plan;
  plan.sensor = make_sensor_plan(bits);
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
    buf.rng[b] =
        Xoshiro256::trace_stream(cfg_.seed, kTraceDomainCapture, g + b);
  }
  static_assert(sizeof(crypto::Block) == 16);
  fill_bytes_lanes(buf.rng.data(), bn,
                   reinterpret_cast<std::uint8_t*>(buf.pt.data()), 16, 16,
                   plan.draw_level);
  // The victim writes each trace's per-cycle currents cycle-major
  // (ic[c * block + b]), so the lane-inner PDN kernel is unit-stride.
  setup_.victim().encrypt_block(buf.pt.data(), bn, g, regs, buf.ic.data(),
                                block, buf.ct.data(), plan.victim_level);
  if (store != nullptr) {
    for (std::size_t b = 0; b < bn; ++b) {
      store->record_meta(g + b, buf.pt[b], buf.ct[b]);
    }
  }
  // make_voltages' per-element arithmetic: the fence draw (from the
  // trace's fence stream, cycle-ascending) rides on the coupling path.
  // A constant fence (random_current_a == 0) adds base + u * 0.0, which
  // is base for every finite u in [0, 1), so it draws nothing here; the
  // sequential pre-passes still step the fence's own stream, whose state
  // the set-up memo keys on and restores.
  const double coupling = setup_.effective_coupling();
  if (fence_ && fence_->config().random_current_a != 0.0) {
    for (std::size_t b = 0; b < bn; ++b) {
      Xoshiro256 frng = fence_->trace_rng(g + b);
      for (std::size_t c = 0; c < ncyc; ++c) {
        double& i = buf.ic[c * block + b];
        i += fence_->cycle_current(frng);
        i *= coupling;
      }
    }
  } else if (fence_) {
    const double base = fence_->config().base_current_a;
    for (std::size_t c = 0; c < ncyc; ++c) {
      double* ic = buf.ic.data() + c * block;
      for (std::size_t b = 0; b < bn; ++b) {
        ic[b] += base;
        ic[b] *= coupling;
      }
    }
  } else {
    for (std::size_t c = 0; c < ncyc; ++c) {
      double* ic = buf.ic.data() + c * block;
      for (std::size_t b = 0; b < bn; ++b) ic[b] *= coupling;
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
  switch (cfg_.mode) {
    case SensorMode::kBenignHw:
      setup_.sensor().toggle_hw_block(plan.sensor.hw, v, n, z, y, plan.simd);
      break;
    case SensorMode::kBenignSingleBit:
      setup_.sensor().toggle_bit_block(plan.sensor.bit, v, n, z, y);
      break;
    case SensorMode::kTdcFull:
      for (std::size_t i = 0; i < n; ++i) {
        y[i] = static_cast<double>(setup_.tdc().sample_from_draw(v[i], z[i]));
      }
      break;
    case SensorMode::kTdcSingleBit:
      for (std::size_t i = 0; i < n; ++i) {
        y[i] = setup_.tdc().sample_bit_from_draw(cfg_.single_bit, v[i], z[i])
                   ? 1.0
                   : 0.0;
      }
      break;
    case SensorMode::kRoCounter:
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

template <class Acc>
void CpaCampaign::capture_range(
    const CapturePlan& plan, const std::vector<sca::LastRoundBitModel>& models,
    std::size_t g0, std::size_t g1, Shard<Acc>& sh,
    store::TraceStoreWriter* store) const {
  if (g0 >= g1) return;
  const bool timed = cfg_.observer != nullptr;
  Regs regs = registers_before(g0);
  for (std::size_t g = g0; g < g1;) {
    const std::size_t bn = std::min(plan.block, g1 - g);
    const double t0 = timed ? obs::monotonic_seconds() : 0.0;
    capture_block(plan, g, bn, regs, sh.buf, store);
    const double t1 = timed ? obs::monotonic_seconds() : 0.0;
    fold_block(models, bn, sh.buf, sh.acc);
    if (timed) {
      sh.kernel_s += t1 - t0;
      sh.cpa_s += obs::monotonic_seconds() - t1;
    }
    ++sh.blocks;
    sh.position += bn;
    g += bn;
  }
}

// The fabric worker runs the loop over both accumulators too.
template void CpaCampaign::capture_range(
    const CapturePlan&, const std::vector<sca::LastRoundBitModel>&,
    std::size_t, std::size_t, Shard<sca::XorClassCpa>&,
    store::TraceStoreWriter*) const;
template void CpaCampaign::capture_range(
    const CapturePlan&, const std::vector<sca::LastRoundBitModel>&,
    std::size_t, std::size_t, Shard<sca::MultiByteCpa>&,
    store::TraceStoreWriter*) const;

template <class Acc>
void CpaCampaign::capture_segment(
    ThreadPool* pool, const CapturePlan& plan,
    const std::vector<sca::LastRoundBitModel>& models,
    std::vector<Shard<Acc>>& shards, std::size_t covered, std::size_t cp,
    store::TraceStoreWriter* store) const {
  obs::CampaignObserver* const ob = cfg_.observer;
  const std::size_t n = cp - covered;
  const std::size_t T = shards.size();
  // Shard i owns global traces [g0, g1) of the segment [covered, cp): no
  // cross-shard RNG ordering at all, and every shard stores its own rows.
  const std::function<void(std::size_t)> body = [&](std::size_t i) {
    capture_range(plan, models, covered + i * n / T,
                  covered + (i + 1) * n / T, shards[i], store);
  };
  {
    std::optional<obs::CampaignObserver::Span> span;
    if (ob != nullptr) span.emplace(ob->span("capture"));
    if (pool == nullptr) {
      body(0);
    } else {
      pool->run_indexed(T, body);
    }
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
  // A borrowed pool fixes the shard count: the split must match the
  // workers running it, or run_indexed would starve shards. Never more
  // shards than traces: each shard must own at least one trace or its
  // accumulator would merge as an empty no-op anyway.
  const unsigned shard_count = static_cast<unsigned>(std::min<std::size_t>(
      cfg_.pool != nullptr ? cfg_.pool->size() : resolve_threads(threads),
      std::max<std::size_t>(1, cfg_.traces)));
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
    result.bits_of_interest = resolve_sensor_bits();
    result.selection_seconds = obs::monotonic_seconds() - t0;
  }
  result.single_bit = cfg_.single_bit;
  result.prepass = prepass_;
  if (store_writer) store_writer->set_resolved_single_bit(cfg_.single_bit);

  const CapturePlan plan = capture_plan(result.bits_of_interest);
  result.block_size = plan.block;
  const std::size_t samples = sample_times_.size();
  // Each shard bins its traces into (ciphertext-class, base-bit) cells;
  // the merge folds them into full per-guess CPA sums at checkpoints only
  // (see sca::XorClassCpa).
  std::vector<Shard<Acc>> shards(shard_count, Shard<Acc>(samples));
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
  // One shard runs on the calling thread; more on the borrowed pool or a
  // private one of `shard_count` workers.
  std::optional<ThreadPool> owned_pool;
  ThreadPool* pool = shard_count == 1 ? nullptr : cfg_.pool;
  if (shard_count > 1 && pool == nullptr) {
    pool = &owned_pool.emplace(shard_count);
  }
  std::size_t covered = result.resumed_from;
  for (const std::size_t cp :
       checkpoint_schedule(cfg_.checkpoints, cfg_.traces)) {
    if (cp <= result.resumed_from) continue;
    capture_segment(pool, plan, an.models, shards, covered, cp,
                    store_writer.get());
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
