// The fused full-key engine's acceptance bar: one shared capture pass
// feeding all 16 byte folds must be bit-identical (a) per byte to 16
// independent single-byte campaigns over the SAME shared config on fresh
// platform replicas, and to the reference capture; (b) to itself for any
// thread count, block size, and SIMD toggle; and (c) across a kill/resume
// pair on a full-key snapshot. Early exit may only ever change WHEN a
// byte's answer is frozen, never what the accumulators contain. See
// docs/FULLKEY.md.
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/attack.hpp"
#include "core/campaign.hpp"
#include "core/checkpoint.hpp"
#include "core/parallel.hpp"
#include "core/setup.hpp"
#include "reference_capture.hpp"

namespace slm::core {
namespace {

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  return dir;
}

CampaignConfig fullkey_cfg(std::size_t traces) {
  CampaignConfig cfg;
  cfg.mode = SensorMode::kTdcFull;
  cfg.traces = traces;
  cfg.checkpoints = {100, 250, 600, traces};
  cfg.selection_traces = 300;
  return cfg;
}

FullKeyRunResult run_fused(const CampaignConfig& cfg, unsigned threads,
                           const FullKeyConfig& fk = {}) {
  AttackSetup setup(BenignCircuit::kAlu, Calibration::paper_defaults());
  CpaCampaign campaign(setup, cfg);
  return campaign.run_fullkey(fk, threads);
}

// The 16-campaign oracle: one single-byte campaign per key byte over the
// shared config, each on a fresh, identically-seeded platform replica.
std::vector<CampaignResult> single_byte_campaigns(
    const CampaignConfig& shared) {
  std::vector<CampaignResult> out;
  for (std::size_t b = 0; b < 16; ++b) {
    CampaignConfig cfg = shared;
    cfg.target_key_byte = b;
    AttackSetup replica(BenignCircuit::kAlu, Calibration::paper_defaults());
    out.push_back(CpaCampaign(replica, cfg).run());
  }
  return out;
}

void expect_byte_results_identical(const FullKeyRunResult& a,
                                   const FullKeyRunResult& b) {
  EXPECT_EQ(a.traces_run, b.traces_run);
  for (std::size_t j = 0; j < 16; ++j) {
    const FullKeyByteResult& x = a.bytes[j];
    const FullKeyByteResult& y = b.bytes[j];
    EXPECT_EQ(x.correct, y.correct) << "byte " << j;
    EXPECT_EQ(x.recovered, y.recovered) << "byte " << j;
    EXPECT_EQ(x.early_exited, y.early_exited) << "byte " << j;
    EXPECT_EQ(x.traces, y.traces) << "byte " << j;
    // Bit-exact per-candidate |correlation| — the determinism bar.
    EXPECT_EQ(x.final_max_abs_corr, y.final_max_abs_corr) << "byte " << j;
    ASSERT_EQ(x.progress.size(), y.progress.size()) << "byte " << j;
    for (std::size_t i = 0; i < x.progress.size(); ++i) {
      EXPECT_EQ(x.progress[i].traces, y.progress[i].traces);
      EXPECT_EQ(x.progress[i].max_abs_corr, y.progress[i].max_abs_corr);
      EXPECT_EQ(x.progress[i].correct_rank, y.progress[i].correct_rank);
    }
  }
}

// (a) Each byte's fused fold must equal, bit for bit, a standalone
// single-byte campaign over the same shared config on a fresh platform
// replica — the capture stream is model-independent, so regrouping it
// per byte changes nothing.
TEST(FullKeyFused, MatchesSingleByteCampaignsBitForBit) {
  const CampaignConfig shared = fullkey_cfg(1200);
  FullKeyConfig fk;
  fk.early_exit = false;  // compare full-budget folds on every byte
  const FullKeyRunResult fused = run_fused(shared, 2, fk);
  const std::vector<CampaignResult> singles = single_byte_campaigns(shared);

  for (std::size_t b = 0; b < 16; ++b) {
    const CampaignResult& single = singles[b];
    const FullKeyByteResult& fb = fused.bytes[b];
    EXPECT_EQ(fb.correct, single.correct_guess) << "byte " << b;
    EXPECT_EQ(fb.recovered, single.recovered_guess) << "byte " << b;
    EXPECT_EQ(fb.final_max_abs_corr, single.final_max_abs_corr)
        << "byte " << b;
    ASSERT_EQ(fb.progress.size(), single.progress.size()) << "byte " << b;
    for (std::size_t i = 0; i < fb.progress.size(); ++i) {
      EXPECT_EQ(fb.progress[i].traces, single.progress[i].traces);
      EXPECT_EQ(fb.progress[i].max_abs_corr, single.progress[i].max_abs_corr);
      EXPECT_EQ(fb.progress[i].correct_corr, single.progress[i].correct_corr);
      EXPECT_EQ(fb.progress[i].correct_rank, single.progress[i].correct_rank);
    }
  }
}

// (b) Contract v2: threads x block x SIMD must never change a bit.
TEST(FullKeyFused, InvariantUnderThreadsBlockSimd) {
  CampaignConfig cfg = fullkey_cfg(900);
  const FullKeyRunResult serial = run_fused(cfg, 1);

  cfg.block = 7;  // ragged blocks
  cfg.simd = false;
  const FullKeyRunResult scalar3 = run_fused(cfg, 3);
  expect_byte_results_identical(serial, scalar3);

  cfg.block = 64;
  cfg.simd = true;
  const FullKeyRunResult simd4 = run_fused(cfg, 4);
  expect_byte_results_identical(serial, simd4);
}

// Every byte's fused fold matches the reference capture's per-trace
// loop over the shared config (per-call sensor reads, CpaEngine sums).
TEST(FullKeyFused, MatchesReferenceCapture) {
  const CampaignConfig shared = fullkey_cfg(700);
  FullKeyConfig fk;
  fk.early_exit = false;
  const FullKeyRunResult fused = run_fused(shared, 1, fk);
  for (std::size_t b = 0; b < 16; ++b) {
    CampaignConfig cfg = shared;
    cfg.target_key_byte = b;
    AttackSetup replica(BenignCircuit::kAlu, Calibration::paper_defaults());
    const reference::Result ref = reference::capture(replica, cfg);
    const FullKeyByteResult& fb = fused.bytes[b];
    EXPECT_EQ(fb.recovered, ref.recovered_guess) << "byte " << b;
    EXPECT_EQ(fb.final_max_abs_corr, ref.final_max_abs_corr) << "byte " << b;
    ASSERT_EQ(fb.progress.size(), ref.progress.size()) << "byte " << b;
    for (std::size_t i = 0; i < fb.progress.size(); ++i) {
      EXPECT_EQ(fb.progress[i].max_abs_corr, ref.progress[i].max_abs_corr);
    }
  }
}

// Early exit freezes answers, never accumulators: the recovered key must
// match the full-budget run byte for byte, and frozen bytes must report
// the checkpoint they converged at.
TEST(FullKeyFused, EarlyExitAgreesOnTheKey) {
  const CampaignConfig cfg = fullkey_cfg(2500);
  FullKeyConfig off;
  off.early_exit = false;
  const FullKeyRunResult full = run_fused(cfg, 2, off);
  FullKeyConfig on;
  on.early_exit = true;
  const FullKeyRunResult eager = run_fused(cfg, 2, on);

  for (std::size_t b = 0; b < 16; ++b) {
    EXPECT_EQ(eager.bytes[b].recovered, full.bytes[b].recovered)
        << "byte " << b;
    if (eager.bytes[b].early_exited) {
      EXPECT_LE(eager.bytes[b].traces, cfg.traces);
      EXPECT_FALSE(eager.bytes[b].progress.empty());
    } else {
      EXPECT_EQ(eager.bytes[b].traces, cfg.traces);
    }
  }
}

// (c) Kill/resume on a full-key snapshot, serial and sharded.
TEST(FullKeyFused, HaltResumeBitForBit) {
  for (const unsigned threads : {1u, 2u}) {
    CampaignConfig cfg = fullkey_cfg(900);
    const FullKeyRunResult uninterrupted = run_fused(cfg, threads);

    const std::string dir =
        fresh_dir("fullkey_resume_" + std::to_string(threads));
    cfg.checkpoint_dir = dir;
    cfg.halt_after_traces = 250;
    EXPECT_THROW(run_fused(cfg, threads), CampaignHalted);

    cfg.halt_after_traces = 0;
    cfg.resume = true;
    const FullKeyRunResult resumed = run_fused(cfg, threads);
    EXPECT_EQ(resumed.resumed_from, 250u);
    expect_byte_results_identical(uninterrupted, resumed);
  }
}

// A full-key snapshot must refuse to resume as a single-byte campaign.
TEST(FullKeyFused, CheckpointIdentityChecks) {
  CampaignConfig cfg = fullkey_cfg(900);
  const std::string dir = fresh_dir("fullkey_identity");
  cfg.checkpoint_dir = dir;
  cfg.halt_after_traces = 250;
  EXPECT_THROW(run_fused(cfg, 2), CampaignHalted);

  // Same snapshot, single-byte engine: fullkey flag mismatch.
  cfg.halt_after_traces = 0;
  cfg.resume = true;
  {
    AttackSetup setup(BenignCircuit::kAlu, Calibration::paper_defaults());
    CpaCampaign campaign(setup, cfg);
    EXPECT_THROW(campaign.run(2), slm::Error);
  }
}

// The facade's fused engine and the 16-campaign oracle over its shared
// config hand back the same key.
TEST(StealthyAttackFullKey, FusedAndSingleByteCampaignsRecoverTheSameKey) {
  StealthyAttack attack(BenignCircuit::kAlu);
  const auto fused = attack.recover_full_key(3000, SensorMode::kTdcFull, 2);
  EXPECT_TRUE(fused.success);
  EXPECT_EQ(fused.traces_captured, 3000u);

  const std::vector<CampaignResult> singles = single_byte_campaigns(
      attack.fullkey_campaign_config(3000, SensorMode::kTdcFull));
  crypto::Block lrk{};
  for (std::size_t b = 0; b < 16; ++b) lrk[b] = singles[b].recovered_guess;
  EXPECT_EQ(fused.last_round_key, lrk);
}

}  // namespace
}  // namespace slm::core
