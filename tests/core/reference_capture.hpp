// Test-side reference capture: the per-trace campaign loop written out
// over public AttackSetup calls, with per-call sensor reads, per-sample
// selection statistics and the plain CpaEngine::add_trace accumulator.
// It shares nothing with the engines' block pipeline (no batch plans, no
// block kernels, no class-sum accumulators), so agreement with it is the
// bit-exactness bar for every engine path.
//
// Two stream modes:
//   * kPerTrace   — RNG contract v2: every trace draws from its own
//                   counter-keyed streams (Xoshiro256::trace_stream,
//                   ActiveFence::trace_rng), the contract the engines run;
//   * kSequential — the retired contract v1: one xoshiro stream and the
//                   stateful victim and fence, consumed in strict
//                   per-trace order. It exists to check the frozen
//                   golden_traces.txt fixture.
//
// Header-only so the benches (bench/bench_util.hpp) can run the same
// oracle in their equivalence pass.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/campaign.hpp"
#include "core/setup.hpp"
#include "defense/active_fence.hpp"
#include "pdn/cycle_response.hpp"
#include "sca/cpa.hpp"
#include "sca/model.hpp"
#include "sca/selection.hpp"

namespace slm::reference {

enum class Streams { kPerTrace, kSequential };

struct Result {
  std::size_t traces_run = 0;
  std::uint8_t correct_guess = 0;
  std::uint8_t recovered_guess = 0;
  std::size_t single_bit = 0;
  std::vector<std::size_t> bits_of_interest;
  std::vector<sca::CpaProgressPoint> progress;
  std::vector<double> final_max_abs_corr;
};

class Capture {
 public:
  Capture(core::AttackSetup& setup, const core::CampaignConfig& cfg)
      : setup_(setup), cfg_(cfg) {
    const core::Calibration& cal = setup_.calibration();
    samples_ = core::CpaCampaign(setup_, cfg_).sample_times_ns();
    const double cyc = 1000.0 / cal.aes_clock_mhz;
    std::vector<double> starts;
    for (std::size_t c = 0; c < crypto::AesDatapathModel::kCycles; ++c) {
      starts.push_back(static_cast<double>(c) * cyc);
    }
    response_ =
        pdn::CycleResponseMatrix::build(cal.pdn, samples_, starts, cyc);
    if (cfg_.fence.random_current_a > 0.0 ||
        cfg_.fence.base_current_a > 0.0) {
      fence_.emplace(cfg_.fence);
    }
  }

  Result run(Streams streams) {
    Result out;
    const sca::LastRoundBitModel model(cfg_.target_key_byte,
                                       cfg_.target_bit);
    out.correct_guess =
        model.correct_guess(setup_.victim().cipher().last_round_key());
    resolve_bits(&out);

    sca::CpaEngine engine(256, samples_.size());
    Xoshiro256 seq(cfg_.seed);
    crypto::AesDatapathModel::RegisterSnapshot regs{};
    std::vector<double> v;
    std::vector<double> y;
    std::vector<std::uint8_t> h;
    const std::vector<std::size_t> checkpoints =
        core::checkpoint_schedule(cfg_.checkpoints, cfg_.traces);
    std::size_t next_cp = 0;
    for (std::size_t g = 0; g < cfg_.traces; ++g) {
      std::optional<Xoshiro256> own;
      std::optional<Xoshiro256> fence_rng;
      if (streams == Streams::kPerTrace) {
        own.emplace(
            Xoshiro256::trace_stream(cfg_.seed, kTraceDomainCapture, g));
        if (fence_) fence_rng.emplace(fence_->trace_rng(g));
      }
      Xoshiro256& rng = own ? *own : seq;
      crypto::Block pt;
      for (auto& b : pt) b = static_cast<std::uint8_t>(rng.next());
      const auto enc = streams == Streams::kPerTrace
                           ? setup_.victim().encrypt_stateless(pt, g, regs)
                           : setup_.victim().encrypt(pt);
      voltages(enc, rng, fence_rng ? &*fence_rng : nullptr, v);
      read(v, out, rng, y);
      model.hypotheses(enc.ciphertext, h);
      engine.add_trace(h, y);
      while (next_cp < checkpoints.size() && checkpoints[next_cp] == g + 1) {
        out.progress.push_back(
            sca::snapshot_progress(engine, out.correct_guess));
        ++next_cp;
      }
    }
    out.traces_run = engine.trace_count();
    out.final_max_abs_corr = engine.max_abs_correlation();
    out.recovered_guess = static_cast<std::uint8_t>(engine.best_guess());
    return out;
  }

 private:
  // Victim current plus fence draws (the trace's own fence stream, or
  // the fence's sequential stream when `fence_rng` is null), coupled,
  // through the PDN, plus per-sample env noise.
  void voltages(const crypto::AesDatapathModel::Encryption& enc,
                Xoshiro256& rng, Xoshiro256* fence_rng,
                std::vector<double>& v) {
    std::vector<double> current(enc.cycle_current.begin(),
                                enc.cycle_current.end());
    for (double& i : current) {
      if (fence_) {
        i += fence_rng != nullptr ? fence_->cycle_current(*fence_rng)
                                  : fence_->next_cycle_current();
      }
      i *= setup_.effective_coupling();
    }
    response_.voltages(current, v);
    const double sigma = setup_.calibration().env_noise_v;
    for (double& vs : v) vs += FastNormal::instance()(rng, 0.0, sigma);
  }

  void read(const std::vector<double>& v, const Result& r, Xoshiro256& rng,
            std::vector<double>& y) const {
    y.resize(v.size());
    for (std::size_t s = 0; s < v.size(); ++s) {
      switch (cfg_.mode) {
        case core::SensorMode::kTdcFull:
          y[s] = static_cast<double>(setup_.tdc().sample(v[s], rng));
          break;
        case core::SensorMode::kTdcSingleBit:
          y[s] = setup_.tdc().sample_bit(r.single_bit, v[s], rng) ? 1.0 : 0.0;
          break;
        case core::SensorMode::kBenignHw:
          y[s] = static_cast<double>(
              setup_.sensor().sample_toggle_hw(r.bits_of_interest, v[s], rng));
          break;
        case core::SensorMode::kBenignSingleBit:
          y[s] = setup_.sensor().sample_toggle_bit(r.single_bit, v[s], rng)
                     ? 1.0
                     : 0.0;
          break;
        case core::SensorMode::kRoCounter:
          y[s] = static_cast<double>(setup_.ro_sensor().sample(v[s], rng));
          break;
      }
    }
  }

  // The bits-of-interest pre-pass, one BitSelector::add per sample over
  // the full toggle word (the engines count toggles in batches).
  sca::BitSelector selection_pass() {
    Xoshiro256 rng(cfg_.seed ^ 0xb17561ec7u);
    sca::BitSelector selector(setup_.sensor_bits());
    std::vector<double> v;
    for (std::size_t t = 0; t < cfg_.selection_traces; ++t) {
      crypto::Block pt;
      for (auto& b : pt) b = static_cast<std::uint8_t>(rng.next());
      const auto enc = setup_.victim().encrypt(pt);
      voltages(enc, rng, nullptr, v);
      for (const double vs : v) {
        selector.add(setup_.sensor().sample_toggles(vs, rng));
      }
    }
    return selector;
  }

  void resolve_bits(Result* out) {
    out->single_bit = cfg_.single_bit;
    if (cfg_.mode == core::SensorMode::kBenignHw) {
      const sca::BitSelector selector = selection_pass();
      auto bits = selector.bits_of_interest(cfg_.selection_min_variance);
      if (cfg_.selection_top_k > 0 && bits.size() > cfg_.selection_top_k) {
        std::sort(bits.begin(), bits.end(), [&](std::size_t a, std::size_t b) {
          return selector.stat(a).variance > selector.stat(b).variance;
        });
        bits.resize(cfg_.selection_top_k);
        std::sort(bits.begin(), bits.end());
      }
      out->bits_of_interest = std::move(bits);
    } else if (cfg_.mode == core::SensorMode::kBenignSingleBit &&
               cfg_.single_bit == core::CampaignConfig::kAutoBit) {
      out->single_bit = selection_pass().highest_variance_bit();
    } else {
      SLM_REQUIRE(cfg_.single_bit != core::CampaignConfig::kAutoBit,
                  "reference capture: TDC stage auto-selection is not "
                  "modelled; pass an explicit single_bit");
    }
  }

  core::AttackSetup& setup_;
  core::CampaignConfig cfg_;
  std::vector<double> samples_;
  pdn::CycleResponseMatrix response_;
  std::optional<defense::ActiveFence> fence_;
};

/// One reference campaign on `setup` (which it mutates: the sequential
/// mode advances the victim's register history, as contract v1 did).
inline Result capture(core::AttackSetup& setup,
                      const core::CampaignConfig& cfg,
                      Streams streams = Streams::kPerTrace) {
  return Capture(setup, cfg).run(streams);
}

}  // namespace slm::reference
