// Crash-safe checkpoint/resume: kill a campaign at a checkpoint, resume
// it, and require results bit-identical to the uninterrupted run — the
// acceptance criterion of the checkpointing subsystem, for one shard and
// for several, checked against the reference capture too.
#include "core/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/binio.hpp"
#include "common/error.hpp"
#include "core/campaign.hpp"
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

CampaignConfig small_cfg(SensorMode mode, std::size_t traces) {
  CampaignConfig cfg;
  cfg.mode = mode;
  cfg.traces = traces;
  cfg.checkpoints = {100, 200, 350, traces};
  cfg.selection_traces = 300;
  return cfg;
}

CampaignResult run_serial(const CampaignConfig& cfg) {
  AttackSetup setup(BenignCircuit::kAlu, Calibration::paper_defaults());
  CpaCampaign campaign(setup, cfg);
  return campaign.run();
}

CampaignResult run_parallel(const CampaignConfig& cfg, unsigned threads) {
  AttackSetup setup(BenignCircuit::kAlu, Calibration::paper_defaults());
  CpaCampaign campaign(setup, cfg);
  return campaign.run(threads);
}

void expect_bit_identical(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.traces_run, b.traces_run);
  EXPECT_EQ(a.recovered_guess, b.recovered_guess);
  EXPECT_EQ(a.correct_guess, b.correct_guess);
  // The acceptance bar: identical key byte AND identical final
  // correlation vector, bit for bit.
  EXPECT_EQ(a.final_max_abs_corr, b.final_max_abs_corr);
  ASSERT_EQ(a.progress.size(), b.progress.size());
  for (std::size_t i = 0; i < a.progress.size(); ++i) {
    EXPECT_EQ(a.progress[i].traces, b.progress[i].traces);
    EXPECT_EQ(a.progress[i].max_abs_corr, b.progress[i].max_abs_corr);
    EXPECT_EQ(a.progress[i].correct_rank, b.progress[i].correct_rank);
  }
}

TEST(BinIoTest, RoundTripAndTruncation) {
  ByteWriter w;
  w.put_u8(0xab);
  w.put_u32(0xdeadbeef);
  w.put_u64(0x0123456789abcdefull);
  w.put_f64(-0.1);
  w.put_f64_vector({1.5, -2.5, 1e-300});
  w.put_u64_array<4>({1, 2, 3, 4});

  ByteReader r(w.bytes().data(), w.size());
  EXPECT_EQ(r.get_u8(), 0xab);
  EXPECT_EQ(r.get_u32(), 0xdeadbeefu);
  EXPECT_EQ(r.get_u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.get_f64(), -0.1);  // bit-exact round trip
  EXPECT_EQ(r.get_f64_vector(), (std::vector<double>{1.5, -2.5, 1e-300}));
  EXPECT_EQ((r.get_u64_array<4>()),
            (std::array<std::uint64_t, 4>{1, 2, 3, 4}));
  EXPECT_TRUE(r.done());

  ByteReader truncated(w.bytes().data(), 3);
  EXPECT_THROW((void)truncated.get_u32(), slm::Error);
}

TEST(CheckpointFileTest, MissingFileIsFreshStart) {
  EXPECT_FALSE(load_checkpoint(fresh_dir("ckpt_missing")).has_value());
}

TEST(CheckpointFileTest, RoundTripAndCorruptionDetection) {
  const std::string dir = fresh_dir("ckpt_roundtrip");
  CampaignCheckpoint ck;
  ck.seed = 0xc0ffee;
  ck.total_traces = 1000;
  ck.mode = 2;
  ck.shards = 1;
  ck.samples = 7;
  ck.traces_done = 350;
  CheckpointShard sh;
  sh.position = 350;
  sh.rng = {1, 2, 3, 4};
  sh.accumulator = {9, 8, 7};
  ck.shard_state.push_back(sh);
  sca::CpaProgressPoint p;
  p.traces = 100;
  p.max_abs_corr = {0.25, 0.5};
  ck.progress.push_back(p);

  const std::size_t bytes = save_checkpoint(dir, ck);
  EXPECT_GT(bytes, 0u);

  const auto loaded = load_checkpoint(dir);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->seed, ck.seed);
  EXPECT_EQ(loaded->traces_done, 350u);
  ASSERT_EQ(loaded->shard_state.size(), 1u);
  EXPECT_EQ(loaded->shard_state[0].rng, (std::array<std::uint64_t, 4>{1, 2, 3, 4}));
  EXPECT_EQ(loaded->shard_state[0].accumulator,
            (std::vector<std::uint8_t>{9, 8, 7}));
  ASSERT_EQ(loaded->progress.size(), 1u);
  EXPECT_EQ(loaded->progress[0].max_abs_corr,
            (std::vector<double>{0.25, 0.5}));

  // Flip one payload byte: the CRC must catch it.
  const std::string path = checkpoint_file(dir);
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(30);
  char c = 0;
  f.seekg(30);
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x40);
  f.seekp(30);
  f.write(&c, 1);
  f.close();
  EXPECT_THROW((void)load_checkpoint(dir), slm::Error);
  std::filesystem::remove_all(dir);
}

// FNV-1a 64 over a file's bytes: a pin independent of the CRC kernels
// the envelope is built with.
std::uint64_t fnv1a64(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(CheckpointFileTest, FileBytesArePinned) {
  // A fixed checkpoint's exact file bytes. The pinned size and hash were
  // generated by the writer that assembled envelope and payload in one
  // buffer; any change to the SLMCKPT1 layout or envelope breaks them.
  const std::string dir = fresh_dir("ckpt_pinned");
  CampaignCheckpoint ck;
  ck.seed = 0x5eed;
  ck.total_traces = 4096;
  ck.mode = 1;
  ck.shards = 2;
  ck.samples = 5;
  ck.target_key_byte = 3;
  ck.target_bit = 21;
  ck.single_bit = 7;
  ck.block = 64;
  ck.traces_done = 2048;
  for (std::uint64_t s = 0; s < 2; ++s) {
    CheckpointShard sh;
    sh.position = 1024 * (s + 1);
    sh.rng = {s + 1, s + 2, s + 3, s + 4};
    sh.has_fence = s == 1;
    sh.fence_rng = {s * 5, s * 6, s * 7, s * 8};
    for (std::uint8_t b = 0; b < 37; ++b) {
      sh.accumulator.push_back(static_cast<std::uint8_t>(b * 11 + s));
    }
    ck.shard_state.push_back(sh);
  }
  sca::CpaProgressPoint p;
  p.traces = 1000;
  p.max_abs_corr = {0.25, -0.5, 1.0 / 3.0};
  p.best_guess = 0x3c;
  p.correct_rank = 2;
  ck.progress.push_back(p);

  const std::size_t written = save_checkpoint(dir, ck);
  std::ifstream is(checkpoint_file(dir), std::ios::binary);
  const std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(is)), std::istreambuf_iterator<char>());
  EXPECT_EQ(written, bytes.size());
  EXPECT_EQ(bytes.size(), 554u);
  EXPECT_EQ(fnv1a64(bytes), 0x54cc2e0191917707ull);
  std::filesystem::remove_all(dir);
}

TEST(ResumeTest, SerialKillAtCheckpointResumesBitExact) {
  const std::string dir = fresh_dir("ckpt_serial");
  auto cfg = small_cfg(SensorMode::kTdcFull, 500);

  const auto uninterrupted = run_serial(cfg);

  cfg.checkpoint_dir = dir;
  cfg.halt_after_traces = 200;  // dies at the 200-trace checkpoint
  try {
    (void)run_serial(cfg);
    FAIL() << "expected CampaignHalted";
  } catch (const CampaignHalted& halted) {
    EXPECT_EQ(halted.traces(), 200u);
    EXPECT_EQ(halted.snapshot_path(), checkpoint_file(dir));
  }
  ASSERT_TRUE(std::filesystem::exists(checkpoint_file(dir)));

  cfg.halt_after_traces = 0;
  cfg.resume = true;
  const auto resumed = run_serial(cfg);
  EXPECT_EQ(resumed.resumed_from, 200u);
  EXPECT_EQ(resumed.snapshot_path, checkpoint_file(dir));
  expect_bit_identical(uninterrupted, resumed);
  std::filesystem::remove_all(dir);
}

// A resumed run must match the reference capture's uninterrupted
// per-trace loop (plain CpaEngine accumulator), not just the engine.
TEST(ResumeTest, ResumedRunMatchesReferenceCapture) {
  const std::string dir = fresh_dir("ckpt_serial_ref");
  auto cfg = small_cfg(SensorMode::kTdcFull, 400);

  AttackSetup ref_setup(BenignCircuit::kAlu, Calibration::paper_defaults());
  const reference::Result ref = reference::capture(ref_setup, cfg);

  cfg.checkpoint_dir = dir;
  cfg.halt_after_traces = 100;
  EXPECT_THROW((void)run_serial(cfg), CampaignHalted);

  cfg.halt_after_traces = 0;
  cfg.resume = true;
  const auto resumed = run_serial(cfg);
  EXPECT_EQ(resumed.resumed_from, 100u);
  EXPECT_EQ(resumed.traces_run, ref.traces_run);
  EXPECT_EQ(resumed.recovered_guess, ref.recovered_guess);
  EXPECT_EQ(resumed.final_max_abs_corr, ref.final_max_abs_corr);
  ASSERT_EQ(resumed.progress.size(), ref.progress.size());
  for (std::size_t i = 0; i < ref.progress.size(); ++i) {
    EXPECT_EQ(resumed.progress[i].traces, ref.progress[i].traces);
    EXPECT_EQ(resumed.progress[i].max_abs_corr, ref.progress[i].max_abs_corr);
  }
  std::filesystem::remove_all(dir);
}

// The benign-HW mode exercises the selection pre-pass before capture and
// (by default config) the active fence stream; both must survive the
// kill/resume cycle.
TEST(ResumeTest, SerialBenignHwWithFenceResumesBitExact) {
  const std::string dir = fresh_dir("ckpt_serial_hw");
  auto cfg = small_cfg(SensorMode::kBenignHw, 350);
  cfg.fence.random_current_a = 0.02;  // randomised fence component on

  const auto uninterrupted = run_serial(cfg);

  cfg.checkpoint_dir = dir;
  cfg.halt_after_traces = 200;
  EXPECT_THROW((void)run_serial(cfg), CampaignHalted);

  cfg.halt_after_traces = 0;
  cfg.resume = true;
  const auto resumed = run_serial(cfg);
  EXPECT_EQ(resumed.resumed_from, 200u);
  expect_bit_identical(uninterrupted, resumed);
  std::filesystem::remove_all(dir);
}

// The trace-block size tiles the capture loop but never shifts a
// checkpoint: a run killed and resumed under block 7 (which divides
// neither the 200-trace halt nor the trace budget) must match an
// uninterrupted block-64 run bit for bit — the header records the block
// informationally and resume deliberately does not require it to match.
TEST(ResumeTest, BlockSizeSurvivesKillResumeBitExact) {
  const std::string dir = fresh_dir("ckpt_block");
  auto cfg = small_cfg(SensorMode::kBenignHw, 500);

  cfg.block = 64;
  const auto uninterrupted = run_serial(cfg);

  cfg.block = 7;
  cfg.checkpoint_dir = dir;
  cfg.halt_after_traces = 200;
  EXPECT_THROW((void)run_serial(cfg), CampaignHalted);
  {
    const auto ck = load_checkpoint(dir);
    ASSERT_TRUE(ck.has_value());
    EXPECT_EQ(ck->block, 7u);
    EXPECT_EQ(ck->traces_done, 200u);
  }

  cfg.halt_after_traces = 0;
  cfg.resume = true;
  cfg.block = 48;  // yet another tiling for the remainder
  const auto resumed = run_serial(cfg);
  EXPECT_EQ(resumed.resumed_from, 200u);
  EXPECT_EQ(resumed.block_size, 48u);
  expect_bit_identical(uninterrupted, resumed);
  std::filesystem::remove_all(dir);
}

TEST(ResumeTest, ShardedKillAtCheckpointResumesBitExact) {
  const std::string dir = fresh_dir("ckpt_sharded");
  auto cfg = small_cfg(SensorMode::kTdcFull, 500);

  const auto uninterrupted = run_parallel(cfg, 3);

  cfg.checkpoint_dir = dir;
  cfg.halt_after_traces = 350;
  try {
    (void)run_parallel(cfg, 3);
    FAIL() << "expected CampaignHalted";
  } catch (const CampaignHalted& halted) {
    EXPECT_EQ(halted.traces(), 350u);
  }

  cfg.halt_after_traces = 0;
  cfg.resume = true;
  const auto resumed = run_parallel(cfg, 3);
  EXPECT_EQ(resumed.resumed_from, 350u);
  EXPECT_EQ(resumed.threads_used, 3u);
  expect_bit_identical(uninterrupted, resumed);
  std::filesystem::remove_all(dir);
}

TEST(ResumeTest, ResumingTwiceAfterTwoKillsStillBitExact) {
  const std::string dir = fresh_dir("ckpt_twice");
  auto cfg = small_cfg(SensorMode::kTdcFull, 500);
  const auto uninterrupted = run_serial(cfg);

  cfg.checkpoint_dir = dir;
  cfg.halt_after_traces = 100;
  EXPECT_THROW((void)run_serial(cfg), CampaignHalted);
  cfg.resume = true;
  cfg.halt_after_traces = 350;
  EXPECT_THROW((void)run_serial(cfg), CampaignHalted);
  cfg.halt_after_traces = 0;
  const auto resumed = run_serial(cfg);
  EXPECT_EQ(resumed.resumed_from, 350u);
  expect_bit_identical(uninterrupted, resumed);
  std::filesystem::remove_all(dir);
}

TEST(ResumeTest, MismatchedConfigurationRefusesToResume) {
  const std::string dir = fresh_dir("ckpt_mismatch");
  auto cfg = small_cfg(SensorMode::kTdcFull, 500);
  cfg.checkpoint_dir = dir;
  cfg.halt_after_traces = 200;
  EXPECT_THROW((void)run_serial(cfg), CampaignHalted);

  cfg.halt_after_traces = 0;
  cfg.resume = true;

  auto wrong_seed = cfg;
  wrong_seed.seed ^= 1;
  EXPECT_THROW((void)run_serial(wrong_seed), slm::Error);

  auto wrong_budget = cfg;
  wrong_budget.traces = 600;
  wrong_budget.checkpoints = {100, 200, 350, 600};
  EXPECT_THROW((void)run_serial(wrong_budget), slm::Error);

  // A snapshot taken serially cannot seed a 3-shard run.
  EXPECT_THROW((void)run_parallel(cfg, 3), slm::Error);
  std::filesystem::remove_all(dir);
}

// The snapshot carries no stream state at all: a run killed under one
// block tiling and resumed under ANOTHER block still reproduces the
// uninterrupted run bit for bit (thread count must still match — shard
// accumulator sums are per-shard).
TEST(ResumeTest, KillResumeAcrossBlockSizesBitExact) {
  const std::string dir = fresh_dir("ckpt_v2_block");
  auto cfg = small_cfg(SensorMode::kBenignHw, 500);

  cfg.block = 1;
  const auto uninterrupted = run_parallel(cfg, 2);

  cfg.block = 48;
  cfg.checkpoint_dir = dir;
  cfg.halt_after_traces = 200;
  EXPECT_THROW((void)run_parallel(cfg, 2), CampaignHalted);

  cfg.halt_after_traces = 0;
  cfg.resume = true;
  cfg.block = 64;
  const auto resumed = run_parallel(cfg, 2);
  EXPECT_EQ(resumed.resumed_from, 200u);
  expect_bit_identical(uninterrupted, resumed);
  std::filesystem::remove_all(dir);
}

TEST(ResumeTest, CompletedRunLeavesNoResumableWork) {
  const std::string dir = fresh_dir("ckpt_complete");
  auto cfg = small_cfg(SensorMode::kTdcFull, 400);
  cfg.checkpoint_dir = dir;
  const auto full = run_serial(cfg);
  EXPECT_EQ(full.traces_run, 400u);
  // The final snapshot says traces_done == total; resuming it is an
  // error (nothing left to do), not a silent re-run.
  cfg.resume = true;
  EXPECT_THROW((void)run_serial(cfg), slm::Error);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace slm::core
