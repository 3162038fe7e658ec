#include "walk.hpp"

#include <algorithm>
#include <array>
#include <filesystem>
#include <memory>
#include <optional>

#include "common/binio.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/checkpoint.hpp"
#include "core/parallel.hpp"
#include "defense/active_fence.hpp"
#include "pdn/cycle_response.hpp"
#include "sca/model.hpp"
#include "sca/mtd.hpp"
#include "sca/tvla.hpp"
#include "store/trace_store.hpp"

namespace slmperf {

namespace core = slm::core;
namespace crypto = slm::crypto;
namespace sca = slm::sca;
namespace store = slm::store;
using slm::Xoshiro256;
using Regs = crypto::AesDatapathModel::RegisterSnapshot;

namespace {

constexpr std::size_t kBytes = sca::MultiByteCpa::kBytes;

// The immutable half of a campaign's capture path, built the way the
// CpaCampaign constructor and its bit resolution build it.
struct Capture {
  core::AttackSetup& setup;
  core::CampaignConfig cfg;
  std::unique_ptr<core::CpaCampaign> campaign;
  slm::pdn::CycleResponseMatrix response;
  slm::sensors::BenignSensorBank::CompiledHwPlan plan;
  std::optional<slm::defense::ActiveFence> fence;
  bool hw = false;
  std::size_t samples = 0;
  std::size_t ncyc = 0;
  std::size_t dps = 0;
  std::size_t block = 0;
  bool simd = true;
  double coupling = 0.0;
  double env_noise_v = 0.0;

  // Victim current seen by the attacker: the fence's per-cycle draw
  // (from the trace's fence stream) rides on the coupling path.
  void stage_currents(const crypto::AesDatapathModel::Encryption& enc,
                      std::size_t g, double* out, std::size_t stride) const {
    std::optional<Xoshiro256> frng;
    if (fence) frng.emplace(fence->trace_rng(g));
    for (std::size_t c = 0; c < ncyc; ++c) {
      double i = enc.cycle_current[c];
      if (fence) i += fence->cycle_current(*frng);
      i *= coupling;
      out[c * stride] = i;
    }
  }

  Capture(Lane& L, core::AttackSetup& s, const core::CampaignConfig& c,
          WalkCounts& counts)
      : setup(s), cfg(c) {
    SLM_REQUIRE(core::resolve_contract(cfg.rng_contract) ==
                    core::RngContract::kV2,
                "layer walk: only RNG contract v2 is walked");
    SLM_REQUIRE(cfg.mode == core::SensorMode::kBenignHw ||
                    cfg.mode == core::SensorMode::kTdcFull,
                "layer walk: only the benign-HW and full-TDC sensors");
    if (cfg.fence.random_current_a > 0.0 || cfg.fence.base_current_a > 0.0) {
      fence.emplace(cfg.fence);
    }
    {
      Span sp(L, Layer::kCampaignCtor);
      campaign = std::make_unique<core::CpaCampaign>(setup, cfg);
      sp.add(1, 0);
    }
    // The constructor's private PDN matrix, rebuilt from public calls.
    // Walk-only work: outside every layer span, so it shows in
    // trace_overhead_s rather than in core.campaign_ctor_s.
    const auto& cal = setup.calibration();
    const double cyc = 1000.0 / cal.aes_clock_mhz;
    std::vector<double> starts;
    for (std::size_t k = 0; k < crypto::AesDatapathModel::kCycles; ++k) {
      starts.push_back(static_cast<double>(k) * cyc);
    }
    response = slm::pdn::CycleResponseMatrix::build(
        cal.pdn, campaign->sample_times_ns(), starts, cyc);
    samples = campaign->sample_times_ns().size();
    ncyc = response.cycle_count();
    block = core::resolve_block(cfg.block);
    SLM_REQUIRE(block > 1, "layer walk: the block pipeline needs block > 1");
    simd = core::resolve_simd(cfg.simd);
    coupling = setup.effective_coupling();
    env_noise_v = setup.calibration().env_noise_v;
    if (cfg.mode == core::SensorMode::kBenignHw) {
      hw = true;
      Span sp(L, Layer::kSelection);
      const auto bits = campaign->select_bits_of_interest();
      SLM_REQUIRE(!bits.empty(), "layer walk: no bits of interest");
      plan = setup.sensor().compile_hw_plan(bits);
      dps = plan.draws_per_sample;
      sp.add(1, static_cast<double>(cfg.selection_traces));
      counts.selection_traces += static_cast<double>(cfg.selection_traces);
    }
  }
};

struct BlockBuf {
  std::vector<Xoshiro256> rng;
  std::vector<crypto::Block> pt;
  std::vector<crypto::AesDatapathModel::Encryption> enc;
  std::vector<double> ic, v, zv, z, y, icyc, vs;

  explicit BlockBuf(const Capture& cx)
      : rng(cx.block), pt(cx.block), enc(cx.block),
        ic(cx.ncyc * cx.block), v(cx.block * cx.samples),
        zv(cx.block * cx.samples), z(cx.block * cx.samples * cx.dps),
        y(cx.block * cx.samples), icyc(cx.ncyc) {}
};

// Register state the v2 chain carries into trace g.
Regs regs_at(Lane& L, const Capture& cx, std::size_t g) {
  Span sp(L, Layer::kEncrypt);
  if (g == 0) return Regs{};
  Xoshiro256 prev =
      Xoshiro256::trace_stream(cx.cfg.seed, slm::kTraceDomainCapture, g - 1);
  crypto::Block pt;
  for (auto& b : pt) b = static_cast<std::uint8_t>(prev.next());
  sp.add(1, 1);
  return cx.setup.victim().registers_after(pt, g - 1);
}

// Traces [g0, g0 + bn) into bf.y (trace-major) and bf.enc. Each trace's
// draws come from its own counter-keyed stream in the engines' order
// (plaintext, env noise, sensor draws), so grouping the block by layer
// leaves every reading bit-identical.
void capture_block(Lane& L, const Capture& cx, std::size_t g0,
                   std::size_t bn, Regs& regs, BlockBuf& bf) {
  const std::size_t S = cx.samples;
  const double n = static_cast<double>(bn);
  {
    Span sp(L, Layer::kRng);
    for (std::size_t b = 0; b < bn; ++b) {
      bf.rng[b] = Xoshiro256::trace_stream(cx.cfg.seed,
                                           slm::kTraceDomainCapture, g0 + b);
      for (auto& p : bf.pt[b]) p = static_cast<std::uint8_t>(bf.rng[b].next());
    }
    sp.add(n, n);
  }
  {
    Span sp(L, Layer::kEncrypt);
    for (std::size_t b = 0; b < bn; ++b) {
      bf.enc[b] = cx.setup.victim().encrypt_stateless(bf.pt[b], g0 + b, regs);
    }
    sp.add(n, n);
  }
  const auto& fast_normal = slm::FastNormal::instance();
  if (cx.hw) {
    {
      Span sp(L, Layer::kRng);
      for (std::size_t b = 0; b < bn; ++b) {
        fast_normal.fill(bf.rng[b], bf.zv.data() + b * S, S);
        fast_normal.fill(bf.rng[b], bf.z.data() + b * S * cx.dps, S * cx.dps);
      }
      sp.add(2 * n, n);
    }
    {
      Span sp(L, Layer::kVoltages);
      for (std::size_t b = 0; b < bn; ++b) {
        cx.stage_currents(bf.enc[b], g0 + b, bf.ic.data() + b, cx.block);
      }
      cx.response.voltages_block(bf.ic.data(), bn, cx.block, bf.v.data(),
                                 cx.simd);
      for (std::size_t i = 0; i < bn * S; ++i) {
        bf.v[i] += 0.0 + cx.env_noise_v * bf.zv[i];
      }
      sp.add(1, n);
    }
    {
      Span sp(L, Layer::kSensor);
      cx.setup.sensor().toggle_hw_block(cx.plan, bf.v.data(), bn * S,
                                        bf.z.data(), bf.y.data(), cx.simd);
      sp.add(1, n);
    }
    return;
  }
  {
    Span sp(L, Layer::kRng);
    for (std::size_t b = 0; b < bn; ++b) {
      fast_normal.fill(bf.rng[b], bf.zv.data() + b * S, S);
    }
    sp.add(n, n);
  }
  {
    Span sp(L, Layer::kVoltages);
    for (std::size_t b = 0; b < bn; ++b) {
      cx.stage_currents(bf.enc[b], g0 + b, bf.icyc.data(), 1);
      cx.response.voltages(bf.icyc, bf.vs);
      for (std::size_t s = 0; s < S; ++s) {
        bf.v[b * S + s] = bf.vs[s] + (0.0 + cx.env_noise_v * bf.zv[b * S + s]);
      }
    }
    sp.add(n, n);
  }
  {
    Span sp(L, Layer::kSensor);
    for (std::size_t b = 0; b < bn; ++b) {
      for (std::size_t s = 0; s < S; ++s) {
        bf.y[b * S + s] = static_cast<double>(
            cx.setup.tdc().sample(bf.v[b * S + s], bf.rng[b]));
      }
    }
    sp.add(n * static_cast<double>(S), n);
  }
}

// The fused engines' per-byte checkpoint fold and early-exit machine
// (CpaCampaign::run_fullkey, ParallelCampaign, store replay).
struct KeyFolds {
  struct Byte {
    bool converged = false;
    std::size_t stable = 0;
    std::size_t prev_best = 256;
    std::uint8_t correct = 0;
    std::uint8_t recovered = 0;
    std::size_t traces = 0;
    std::vector<double> final_corr;
    std::vector<sca::CpaProgressPoint> progress;
  };
  std::array<Byte, kBytes> b;
  std::vector<sca::LastRoundBitModel> models;
  core::FullKeyConfig fk;

  KeyFolds(std::size_t target_bit, const crypto::Block& lrk,
           const core::FullKeyConfig& f)
      : fk(f) {
    for (std::size_t j = 0; j < kBytes; ++j) {
      models.emplace_back(j, target_bit);
      b[j].correct = models[j].correct_guess(lrk);
    }
  }

  void fold_at(Lane& L, const sca::MultiByteCpa& acc, std::size_t done,
               WalkCounts& counts) {
    Span sp(L, Layer::kFoldCheckpoint);
    double folds = 0.0;
    for (std::size_t j = 0; j < kBytes; ++j) {
      counts.folds += 1.0;
      Byte& s = b[j];
      if (s.converged) {
        counts.folds_skipped += 1.0;
        continue;
      }
      folds += 1.0;
      const sca::CpaEngine folded = acc.fold(j, models[j].pattern().data());
      sca::CpaProgressPoint p = sca::snapshot_progress(folded, s.correct);
      const double margin = sca::winner_margin(p);
      const bool qualify = fk.early_exit && done >= fk.early_exit_min_traces &&
                           s.prev_best == p.best_guess &&
                           margin >= fk.early_exit_margin;
      s.stable = qualify ? s.stable + 1 : 0;
      s.prev_best = p.best_guess;
      s.progress.push_back(std::move(p));
      if (qualify && s.stable >= fk.early_exit_stable) {
        const sca::CpaProgressPoint& fp = s.progress.back();
        s.converged = true;
        s.recovered = static_cast<std::uint8_t>(fp.best_guess);
        s.traces = done;
        s.final_corr = fp.max_abs_corr;
      }
    }
    sp.add(folds, 0);
  }

  // Final results for the bytes that never froze. With `acc` the serial
  // engines' closing fold runs; without it (sharded) the last
  // checkpoint's fold is the result.
  void finish(Lane& L, const sca::MultiByteCpa* acc, std::size_t n) {
    Span sp(L, Layer::kFoldCheckpoint);
    double folds = 0.0;
    for (std::size_t j = 0; j < kBytes; ++j) {
      Byte& s = b[j];
      if (s.converged) continue;
      if (acc != nullptr) {
        folds += 1.0;
        const sca::CpaEngine folded = acc->fold(j, models[j].pattern().data());
        if (s.progress.empty() || s.progress.back().traces != n) {
          s.progress.push_back(sca::snapshot_progress(folded, s.correct));
        }
      }
      const sca::CpaProgressPoint& fp = s.progress.back();
      s.recovered = static_cast<std::uint8_t>(fp.best_guess);
      s.traces = fp.traces;
      s.final_corr = fp.max_abs_corr;
    }
    sp.add(folds, 0);
  }
};

core::CampaignCheckpoint checkpoint_header(const Capture& cx, bool fullkey,
                                           std::size_t done) {
  core::CampaignCheckpoint ck;
  ck.seed = cx.cfg.seed;
  ck.total_traces = cx.cfg.traces;
  ck.mode = static_cast<std::uint32_t>(cx.cfg.mode);
  ck.shards = 1;
  ck.samples = cx.samples;
  ck.target_key_byte = cx.cfg.target_key_byte;
  ck.target_bit = cx.cfg.target_bit;
  ck.single_bit = cx.cfg.single_bit;
  ck.compiled = true;
  ck.block = cx.block;
  ck.rng_contract = static_cast<std::uint32_t>(core::RngContract::kV2);
  ck.fullkey = fullkey;
  ck.traces_done = done;
  core::CheckpointShard sh;
  sh.position = done;
  ck.shard_state.push_back(std::move(sh));
  return ck;
}

std::optional<core::CampaignCheckpoint> load_slice(Lane& L,
                                                   const SliceSpec& slice) {
  if (slice.ckpt_dir.empty()) return std::nullopt;
  Span sp(L, Layer::kCheckpointLoad);
  auto ck = core::load_checkpoint(slice.ckpt_dir);
  std::error_code ec;
  const auto bytes =
      std::filesystem::file_size(core::checkpoint_file(slice.ckpt_dir), ec);
  sp.add(1, 0, ec ? 0.0 : static_cast<double>(bytes));
  return ck;
}

void save_slice(Lane& L, const SliceSpec& slice,
                const core::CampaignCheckpoint& ck) {
  Span sp(L, Layer::kCheckpointSave);
  const std::size_t bytes = core::save_checkpoint(slice.ckpt_dir, ck);
  sp.add(1, 0, static_cast<double>(bytes));
}

}  // namespace

ByteWalkResult walk_byte_campaign(Tracer& tr, core::AttackSetup& setup,
                                  const core::CampaignConfig& cfg,
                                  const SliceSpec& slice,
                                  const std::string& store_out,
                                  WalkCounts& counts) {
  Lane& L = tr.coordinator();
  Capture cx(L, setup, cfg, counts);
  const std::size_t S = cx.samples;
  sca::LastRoundBitModel model(cfg.target_key_byte, cfg.target_bit);
  const std::uint8_t correct =
      model.correct_guess(setup.victim().cipher().last_round_key());

  std::unique_ptr<store::TraceStoreWriter> writer;
  if (!store_out.empty()) {
    Span sp(L, Layer::kStoreWrite);
    writer = std::make_unique<store::TraceStoreWriter>(
        store_out,
        cx.campaign->store_identity(store::StoreKind::kByteCampaign,
                                    cfg.traces));
    writer->set_resolved_single_bit(cfg.single_bit);
    sp.add(1, 0);
  }

  sca::XorClassCpa cls(S);
  std::vector<sca::CpaProgressPoint> progress;
  std::size_t t = 0;
  if (auto ck = load_slice(L, slice)) {
    slm::ByteReader acc(ck->shard_state[0].accumulator.data(),
                        ck->shard_state[0].accumulator.size());
    cls.load(acc);
    progress = ck->progress;
    t = static_cast<std::size_t>(ck->traces_done);
  }
  const auto checkpoints =
      core::checkpoint_schedule(cfg.checkpoints, cfg.traces);
  std::size_t next_cp = 0;
  while (next_cp < checkpoints.size() && checkpoints[next_cp] <= t) ++next_cp;

  Regs regs = regs_at(L, cx, t);
  BlockBuf bf(cx);
  std::vector<std::uint8_t> clsv(cx.block);
  std::vector<std::uint8_t> clsb(cx.block);
  ByteWalkResult out;
  while (t < cfg.traces) {
    std::size_t limit = cfg.traces;
    if (next_cp < checkpoints.size() && checkpoints[next_cp] < limit) {
      limit = checkpoints[next_cp];
    }
    const std::size_t bn = std::min(cx.block, limit - t);
    capture_block(L, cx, t, bn, regs, bf);
    {
      Span sp(L, Layer::kFoldAdd);
      for (std::size_t b = 0; b < bn; ++b) {
        clsv[b] = model.class_value(bf.enc[b].ciphertext);
        clsb[b] = model.class_bit(bf.enc[b].ciphertext);
      }
      cls.add_block(clsv.data(), clsb.data(), bf.y.data(), bn);
      sp.add(1, static_cast<double>(bn));
    }
    if (writer) {
      Span sp(L, Layer::kStoreWrite);
      for (std::size_t b = 0; b < bn; ++b) {
        writer->record_meta(t + b, bf.pt[b], bf.enc[b].ciphertext);
      }
      writer->record_readings_block(t, bf.y.data(), bn);
      sp.add(1, static_cast<double>(bn));
    }
    t += bn;
    counts.useful_traces += static_cast<double>(bn);
    while (next_cp < checkpoints.size() && t == checkpoints[next_cp]) {
      {
        Span sp(L, Layer::kFoldCheckpoint);
        const sca::CpaEngine folded = cls.fold(model.pattern().data());
        progress.push_back(sca::snapshot_progress(folded, correct));
        sp.add(1, 0);
      }
      if (!slice.ckpt_dir.empty()) {
        core::CampaignCheckpoint ck = checkpoint_header(cx, false, t);
        slm::ByteWriter acc;
        cls.save(acc);
        ck.shard_state[0].accumulator = acc.bytes();
        ck.progress = progress;
        save_slice(L, slice, ck);
      }
      ++next_cp;
      if (slice.halt_after > 0 && t >= slice.halt_after) {
        out.traces_done = t;
        return out;
      }
    }
  }

  core::KeyByteReport& r = out.report;
  {
    Span sp(L, Layer::kFoldCheckpoint);
    const sca::CpaEngine engine = cls.fold(model.pattern().data());
    if (progress.empty() || progress.back().traces != engine.trace_count()) {
      progress.push_back(sca::snapshot_progress(engine, correct));
    }
    r.recovered = static_cast<std::uint8_t>(engine.best_guess());
    r.traces = engine.trace_count();
    sp.add(1, 0);
  }
  if (writer) {
    Span sp(L, Layer::kStoreWrite);
    const auto stats = writer->finalize();
    sp.add(1, 0, static_cast<double>(stats.bytes_written));
  }
  r.key_byte = cfg.target_key_byte;
  r.true_value = correct;
  r.success = r.recovered == correct;
  r.mtd = sca::estimate_mtd(progress);
  r.threads_used = 1;
  r.block_size = cx.block;
  out.completed = true;
  out.traces_done = t;
  return out;
}

KeyWalkResult walk_fullkey(Tracer& tr, core::AttackSetup& setup,
                           const core::CampaignConfig& cfg,
                           const core::FullKeyConfig& fk, unsigned threads,
                           const SliceSpec& slice, WalkCounts& counts) {
  Lane& L = tr.coordinator();
  Capture cx(L, setup, cfg, counts);
  const std::size_t S = cx.samples;
  const unsigned T = std::max(1u, threads);
  KeyFolds kf(cfg.target_bit, setup.victim().cipher().last_round_key(), fk);

  std::vector<sca::MultiByteCpa> acc;
  std::vector<BlockBuf> bufs;
  for (unsigned i = 0; i < T; ++i) {
    acc.emplace_back(S);
    bufs.emplace_back(cx);
  }
  std::size_t covered = 0;
  if (auto ck = load_slice(L, slice)) {
    SLM_REQUIRE(T == 1, "layer walk: resume only on the serial engine");
    slm::ByteReader in(ck->shard_state[0].accumulator.data(),
                       ck->shard_state[0].accumulator.size());
    acc[0].load(in);
    for (std::size_t j = 0; j < kBytes; ++j) {
      const core::FullKeyByteCheckpoint& fb = ck->fullkey_bytes[j];
      KeyFolds::Byte& s = kf.b[j];
      s.converged = fb.converged;
      s.stable = static_cast<std::size_t>(fb.stable);
      s.prev_best = static_cast<std::size_t>(fb.prev_best);
      s.progress = fb.progress;
      if (fb.converged) {
        s.recovered = fb.recovered;
        s.traces = static_cast<std::size_t>(fb.frozen_traces);
        s.final_corr = fb.frozen_corr;
      }
    }
    covered = static_cast<std::size_t>(ck->traces_done);
  }

  const auto label_add = [&](Lane& W, sca::MultiByteCpa& a, BlockBuf& bf,
                             std::size_t bn, std::vector<std::uint8_t>& v16,
                             std::vector<std::uint8_t>& b16) {
    Span sp(W, Layer::kFoldAdd);
    for (std::size_t b = 0; b < bn; ++b) {
      for (std::size_t j = 0; j < kBytes; ++j) {
        v16[b * kBytes + j] = kf.models[j].class_value(bf.enc[b].ciphertext);
        b16[b * kBytes + j] = kf.models[j].class_bit(bf.enc[b].ciphertext);
      }
    }
    a.add_block(v16.data(), b16.data(), bf.y.data(), bn);
    sp.add(1, static_cast<double>(bn));
  };
  // Capture [g0, g1) on one lane into one shard accumulator.
  const auto run_range = [&](Lane& W, std::size_t shard, std::size_t g0,
                             std::size_t g1, Regs& regs) {
    std::vector<std::uint8_t> v16(cx.block * kBytes);
    std::vector<std::uint8_t> b16(cx.block * kBytes);
    for (std::size_t g = g0; g < g1;) {
      const std::size_t bn = std::min(cx.block, g1 - g);
      capture_block(W, cx, g, bn, regs, bufs[shard]);
      label_add(W, acc[shard], bufs[shard], bn, v16, b16);
      g += bn;
    }
  };

  std::optional<slm::core::ThreadPool> pool;
  if (T > 1) pool.emplace(T);
  Regs serial_regs{};
  if (T == 1) serial_regs = regs_at(L, cx, covered);

  KeyWalkResult out;
  for (const std::size_t cp :
       core::checkpoint_schedule(cfg.checkpoints, cfg.traces)) {
    if (cp <= covered) continue;
    if (T == 1) {
      run_range(L, 0, covered, cp, serial_regs);
    } else {
      Span sp(L, Layer::kPoolWait);
      std::vector<Lane*> lanes = tr.worker_lanes(T);
      const std::size_t n = cp - covered;
      const std::size_t base = covered;
      pool->run_indexed(T, [&](std::size_t i) {
        const std::size_t g0 = base + i * n / T;
        const std::size_t g1 = base + (i + 1) * n / T;
        if (g0 >= g1) return;
        Regs regs = regs_at(*lanes[i], cx, g0);
        run_range(*lanes[i], i, g0, g1, regs);
      });
      sp.add(1, static_cast<double>(n));
    }
    counts.useful_traces += static_cast<double>(cp - covered);
    covered = cp;
    const sca::MultiByteCpa* src = &acc[0];
    std::optional<sca::MultiByteCpa> merged;
    if (T > 1) {
      Span sp(L, Layer::kMerge);
      merged.emplace(S);
      for (const auto& a : acc) merged->merge(a);
      src = &*merged;
      sp.add(static_cast<double>(T), 0);
    }
    kf.fold_at(L, *src, cp, counts);
    if (!slice.ckpt_dir.empty()) {
      core::CampaignCheckpoint ck = checkpoint_header(cx, true, cp);
      slm::ByteWriter a;
      acc[0].save(a);
      ck.shard_state[0].accumulator = a.bytes();
      for (const KeyFolds::Byte& s : kf.b) {
        core::FullKeyByteCheckpoint fb;
        fb.converged = s.converged;
        fb.stable = s.stable;
        fb.prev_best = s.prev_best;
        if (s.converged) {
          fb.frozen_traces = s.traces;
          fb.recovered = s.recovered;
          fb.frozen_corr = s.final_corr;
        }
        fb.progress = s.progress;
        ck.fullkey_bytes.push_back(std::move(fb));
      }
      save_slice(L, slice, ck);
    }
    if (slice.halt_after > 0 && cp >= slice.halt_after) {
      out.traces_done = cp;
      return out;
    }
  }
  kf.finish(L, T == 1 ? &acc[0] : nullptr, cfg.traces);

  auto& rep = out.report;
  rep.success = true;
  for (std::size_t j = 0; j < kBytes; ++j) {
    const KeyFolds::Byte& s = kf.b[j];
    core::KeyByteReport kb;
    kb.key_byte = j;
    kb.true_value = s.correct;
    kb.recovered = s.recovered;
    kb.success = s.recovered == s.correct;
    kb.traces = s.traces;
    kb.early_exited = s.converged;
    kb.mtd = sca::estimate_mtd(s.progress);
    rep.last_round_key[j] = s.recovered;
    rep.success = rep.success && kb.success;
    if (kb.early_exited) ++rep.bytes_early_exited;
    rep.bytes.push_back(std::move(kb));
  }
  rep.master_key = crypto::recover_master_key(rep.last_round_key);
  rep.traces_captured = cfg.traces;
  rep.threads_used = T;
  rep.block_size = cx.block;
  out.completed = true;
  out.traces_done = cfg.traces;
  return out;
}

store::ReplayAllResult walk_replay(Tracer& tr, const std::string& path,
                                   const std::vector<std::size_t>& checkpoints,
                                   const crypto::Block& true_last_round_key,
                                   WalkCounts& counts) {
  Lane& L = tr.coordinator();
  std::unique_ptr<store::TraceStoreReader> rd;
  {
    Span sp(L, Layer::kStoreOpen);
    rd = std::make_unique<store::TraceStoreReader>(path);
    sp.add(1, static_cast<double>(rd->trace_count()),
           static_cast<double>(rd->file_bytes()));
  }
  SLM_REQUIRE(rd->kind() != store::StoreKind::kTvla,
              "layer walk: replay walks attack-kind stores only");
  Span replay(L, Layer::kStoreReplay);
  const std::size_t n = rd->trace_count();
  const std::size_t S = rd->samples();
  const std::size_t chunk = rd->chunk_traces();
  const std::size_t target =
      static_cast<std::size_t>(rd->identity().target_key_byte);
  core::FullKeyConfig fk;  // ReplayFullKeyOptions defaults match it
  KeyFolds kf(static_cast<std::size_t>(rd->identity().target_bit),
              true_last_round_key, fk);

  store::ReplayAllResult result;
  result.traces = n;
  result.has_attack = result.has_fullkey = result.has_tvla = true;
  result.attack.correct_guess = kf.b[target].correct;

  sca::MultiByteCpa acc(S);
  sca::WelchTTest ttest(S);
  std::vector<std::uint8_t> mbv(chunk * kBytes);
  std::vector<std::uint8_t> mbb(chunk * kBytes);
  const auto feed = [&](std::size_t from, std::size_t to) {
    for (std::size_t t = from; t < to;) {
      const std::size_t end = std::min(to, (t / chunk + 1) * chunk);
      const std::size_t cnt = end - t;
      {
        Span sp(L, Layer::kFoldAdd);
        for (std::size_t i = 0; i < cnt; ++i) {
          const crypto::Block ct = rd->ciphertext(t + i);
          for (std::size_t j = 0; j < kBytes; ++j) {
            mbv[i * kBytes + j] = kf.models[j].class_value(ct);
            mbb[i * kBytes + j] = kf.models[j].class_bit(ct);
          }
        }
        acc.add_block(mbv.data(), mbb.data(), rd->readings(t), cnt);
        sp.add(1, static_cast<double>(cnt));
      }
      {
        Span sp(L, Layer::kTvla);
        for (std::size_t i = 0; i < cnt; ++i) {
          ttest.add(mbb[i * kBytes + target] == 0, rd->readings(t + i));
        }
        sp.add(static_cast<double>(cnt), static_cast<double>(cnt));
      }
      t = end;
    }
    counts.useful_traces += static_cast<double>(to - from);
  };
  const auto fold_attack = [&]() {
    Span sp(L, Layer::kFoldCheckpoint);
    const sca::CpaEngine folded =
        acc.fold(target, kf.models[target].pattern().data());
    result.attack.progress.push_back(
        sca::snapshot_progress(folded, result.attack.correct_guess));
    sp.add(1, 0);
  };

  std::size_t done = 0;
  for (const std::size_t cp : checkpoints) {
    if (cp == 0 || cp > n || cp < done) continue;
    feed(done, cp);
    done = cp;
    fold_attack();
    kf.fold_at(L, acc, cp, counts);
  }
  feed(done, n);
  if (result.attack.progress.empty() ||
      result.attack.progress.back().traces != n) {
    fold_attack();
  }
  kf.finish(L, &acc, n);

  auto& at = result.attack;
  at.traces = n;
  at.recovered_guess = static_cast<std::uint8_t>(at.progress.back().best_guess);
  at.key_recovered = at.recovered_guess == at.correct_guess;
  at.mtd = sca::estimate_mtd(at.progress);
  auto& fkr = result.fullkey;
  fkr.success = true;
  for (std::size_t j = 0; j < kBytes; ++j) {
    const KeyFolds::Byte& s = kf.b[j];
    auto& br = fkr.bytes[j];
    br.correct = s.correct;
    br.recovered = s.recovered;
    br.success = s.recovered == s.correct;
    br.early_exited = s.converged;
    br.traces = s.converged ? s.traces : n;
    br.final_max_abs_corr = s.final_corr;
    br.progress = s.progress;
    br.mtd = sca::estimate_mtd(s.progress);
    fkr.recovered_last_round_key[j] = s.recovered;
    if (s.converged) ++fkr.bytes_early_exited;
    fkr.success = fkr.success && br.success;
  }
  fkr.traces = n;
  auto& tv = result.tvla;
  tv.max_abs_t = ttest.max_abs_t();
  tv.leakage_detected = ttest.leakage_detected();
  tv.fixed_traces = ttest.fixed_traces();
  tv.random_traces = ttest.random_traces();
  tv.traces = n;
  replay.add(1, static_cast<double>(n));
  return result;
}

}  // namespace slmperf
