// Trace-store tests (src/store): the capture-once/replay-many contract.
// The load-bearing property is bit-exactness — a replayed fold must
// reproduce the live campaign's every progress point, rank and
// correlation, because the CPA accumulators are exact integer sums
// (partition invariance, sca/cpa.hpp). The battery also pins the
// format-level rejections: corrupt/truncated stores (StoreFormatError)
// and fingerprint mismatches (StoreMismatch), and pins the exact file
// bytes of a fixed store.
#include "store/trace_store.hpp"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/parallel.hpp"
#include "core/setup.hpp"
#include "crypto/aes128.hpp"
#include "gtest/gtest.h"
#include "sca/model.hpp"
#include "sca/tvla.hpp"
#include "store/replay.hpp"

namespace slm::store {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

core::CampaignConfig small_config(std::size_t traces) {
  core::CampaignConfig cfg;
  cfg.mode = core::SensorMode::kTdcFull;
  cfg.traces = traces;
  cfg.selection_traces = 100;
  cfg.seed = 0x5eed;
  return cfg;
}

void expect_progress_equal(const std::vector<sca::CpaProgressPoint>& a,
                           const std::vector<sca::CpaProgressPoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].traces, b[i].traces) << "point " << i;
    EXPECT_EQ(a[i].max_abs_corr, b[i].max_abs_corr) << "point " << i;
    EXPECT_EQ(a[i].best_guess, b[i].best_guess) << "point " << i;
    EXPECT_EQ(a[i].correct_rank, b[i].correct_rank) << "point " << i;
    EXPECT_EQ(a[i].correct_corr, b[i].correct_corr) << "point " << i;
    EXPECT_EQ(a[i].best_wrong_corr, b[i].best_wrong_corr) << "point " << i;
  }
}

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(is)),
                                   std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
}

// ---------------------------------------------------------------------
// Replay bit-exactness against the live serial engine.

TEST(StoreReplayTest, SerialCampaignReplaysBitIdentically) {
  const std::string path = temp_path("store_serial.trc");
  std::remove(path.c_str());

  core::CampaignConfig cfg = small_config(500);
  cfg.checkpoints = {100, 250, 500};
  cfg.store_out = path;
  core::AttackSetup setup(core::BenignCircuit::kAlu,
                          core::Calibration::paper_defaults());
  core::CpaCampaign campaign(setup, cfg);
  const core::CampaignResult live = campaign.run();
  ASSERT_TRUE(std::filesystem::exists(path));

  TraceStoreReader reader(path);
  EXPECT_EQ(reader.kind(), StoreKind::kByteCampaign);
  EXPECT_EQ(reader.trace_count(), 500u);
  EXPECT_EQ(reader.samples(), live.sample_times_ns.size());

  const ReplayAttackResult replay = replay_attack(
      reader, core::checkpoint_schedule(cfg.checkpoints, cfg.traces),
      live.correct_guess);

  expect_progress_equal(replay.progress, live.progress);
  EXPECT_EQ(replay.recovered_guess, live.recovered_guess);
  EXPECT_EQ(replay.key_recovered, live.key_recovered);
  EXPECT_EQ(replay.traces, live.traces_run);
  EXPECT_EQ(replay.mtd.traces, live.mtd.traces);
  EXPECT_EQ(replay.mtd.final_margin, live.mtd.final_margin);
  std::remove(path.c_str());
}

TEST(StoreReplayTest, DefaultCheckpointScheduleReplaysBitIdentically) {
  // No explicit checkpoints: the live engine folds at the default
  // log-spaced schedule, and replay must resolve the SAME schedule.
  const std::string path = temp_path("store_defaultcp.trc");
  std::remove(path.c_str());

  core::CampaignConfig cfg = small_config(400);
  cfg.store_out = path;
  core::AttackSetup setup(core::BenignCircuit::kAlu,
                          core::Calibration::paper_defaults());
  const core::CampaignResult live = core::CpaCampaign(setup, cfg).run();

  TraceStoreReader reader(path);
  const ReplayAttackResult replay = replay_attack(
      reader, core::checkpoint_schedule({}, reader.trace_count()),
      live.correct_guess);
  expect_progress_equal(replay.progress, live.progress);
  EXPECT_EQ(replay.recovered_guess, live.recovered_guess);
  std::remove(path.c_str());
}

TEST(StoreReplayTest, ShardedCaptureWritesIdenticalColumnsToSerial) {
  // Under contract v2 the readings depend on the seed alone, so the
  // sharded writer must land byte-identical columns (only the
  // informational capture_threads header field may differ).
  const std::string serial_path = temp_path("store_cols_serial.trc");
  const std::string sharded_path = temp_path("store_cols_sharded.trc");
  std::remove(serial_path.c_str());
  std::remove(sharded_path.c_str());

  core::CampaignConfig cfg = small_config(300);
  cfg.rng_contract = core::RngContract::kV2;

  cfg.store_out = serial_path;
  core::AttackSetup s1(core::BenignCircuit::kAlu,
                       core::Calibration::paper_defaults());
  (void)core::CpaCampaign(s1, cfg).run();

  cfg.store_out = sharded_path;
  core::AttackSetup s2(core::BenignCircuit::kAlu,
                       core::Calibration::paper_defaults());
  core::ParallelCampaign par(s2, cfg, 3);
  (void)par.run();

  TraceStoreReader serial(serial_path);
  TraceStoreReader sharded(sharded_path);
  ASSERT_EQ(serial.trace_count(), sharded.trace_count());
  ASSERT_EQ(serial.samples(), sharded.samples());
  EXPECT_EQ(serial.identity(), sharded.identity());
  EXPECT_EQ(std::memcmp(serial.readings(0), sharded.readings(0),
                        serial.trace_count() * serial.samples() *
                            sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(serial.plaintext_ptr(0), sharded.plaintext_ptr(0),
                        serial.trace_count() * 16),
            0);
  EXPECT_EQ(std::memcmp(serial.ciphertext_ptr(0), sharded.ciphertext_ptr(0),
                        serial.trace_count() * 16),
            0);
  std::remove(serial_path.c_str());
  std::remove(sharded_path.c_str());
}

TEST(StoreReplayTest, ChunkBoundaryInvariance) {
  // The chunking is a pure integrity layer: rewriting the same columns
  // with a chunk size that does NOT divide the trace count must yield
  // identical reads and an identical replay.
  const std::string src_path = temp_path("store_chunk_src.trc");
  const std::string odd_path = temp_path("store_chunk_odd.trc");
  std::remove(src_path.c_str());
  std::remove(odd_path.c_str());

  core::CampaignConfig cfg = small_config(250);
  cfg.store_out = src_path;
  core::AttackSetup setup(core::BenignCircuit::kAlu,
                          core::Calibration::paper_defaults());
  const core::CampaignResult live = core::CpaCampaign(setup, cfg).run();

  TraceStoreReader src(src_path);
  ASSERT_EQ(src.chunk_count(), 1u);  // 250 < the 4096 default

  // Re-store the same columns with chunk_traces = 7 (250 = 35*7 + 5).
  TraceStoreWriter odd(odd_path, src.identity(), 7);
  odd.set_resolved_single_bit(src.resolved_single_bit());
  for (std::size_t t = 0; t < src.trace_count(); ++t) {
    odd.record_meta(t, src.plaintext(t), src.ciphertext(t));
    odd.record_readings(t, src.readings(t));
  }
  odd.finalize();

  TraceStoreReader re(odd_path);
  EXPECT_EQ(re.chunk_traces(), 7u);
  EXPECT_EQ(re.chunk_count(), 36u);
  EXPECT_EQ(re.identity(), src.identity());
  EXPECT_EQ(std::memcmp(re.readings(0), src.readings(0),
                        src.trace_count() * src.samples() * sizeof(double)),
            0);

  const auto checkpoints = core::checkpoint_schedule({}, cfg.traces);
  const ReplayAttackResult a =
      replay_attack(src, checkpoints, live.correct_guess);
  const ReplayAttackResult b =
      replay_attack(re, checkpoints, live.correct_guess);
  expect_progress_equal(a.progress, b.progress);
  EXPECT_EQ(a.recovered_guess, b.recovered_guess);
  std::remove(src_path.c_str());
  std::remove(odd_path.c_str());
}

TEST(StoreReplayTest, FullKeyReplaysBitIdentically) {
  const std::string path = temp_path("store_fullkey.trc");
  std::remove(path.c_str());

  core::CampaignConfig cfg = small_config(600);
  cfg.window_start_ns = 370.0;  // bracket every byte's leakage cycle
  cfg.window_end_ns = 470.0;
  cfg.store_out = path;
  core::AttackSetup setup(core::BenignCircuit::kAlu,
                          core::Calibration::paper_defaults());
  core::CpaCampaign campaign(setup, cfg);
  const core::FullKeyConfig fk;  // defaults: early exit on
  const core::FullKeyRunResult live = campaign.run_fullkey(fk);

  TraceStoreReader reader(path);
  EXPECT_EQ(reader.kind(), StoreKind::kFullKey);
  ReplayFullKeyOptions ropts;
  ropts.early_exit = fk.early_exit;
  ropts.early_exit_margin = fk.early_exit_margin;
  ropts.early_exit_stable = fk.early_exit_stable;
  ropts.early_exit_min_traces = fk.early_exit_min_traces;
  const ReplayFullKeyResult replay = replay_fullkey(
      reader, core::checkpoint_schedule(cfg.checkpoints, cfg.traces),
      setup.victim().cipher().last_round_key(), ropts);

  for (std::size_t b = 0; b < 16; ++b) {
    const core::FullKeyByteResult& lb = live.bytes[b];
    const ReplayFullKeyByte& rb = replay.bytes[b];
    EXPECT_EQ(rb.correct, lb.correct) << "byte " << b;
    EXPECT_EQ(rb.recovered, lb.recovered) << "byte " << b;
    EXPECT_EQ(rb.success, lb.success) << "byte " << b;
    EXPECT_EQ(rb.early_exited, lb.early_exited) << "byte " << b;
    EXPECT_EQ(rb.traces, lb.traces) << "byte " << b;
    EXPECT_EQ(rb.final_max_abs_corr, lb.final_max_abs_corr) << "byte " << b;
    expect_progress_equal(rb.progress, lb.progress);
  }
  EXPECT_EQ(replay.success, live.all_recovered());
  std::remove(path.c_str());
}

TEST(StoreReplayTest, TvlaReplaysBitIdentically) {
  const std::string path = temp_path("store_tvla.trc");
  std::remove(path.c_str());

  core::CampaignConfig cfg = small_config(200);
  cfg.store_out = path;
  core::AttackSetup setup(core::BenignCircuit::kAlu,
                          core::Calibration::paper_defaults());
  core::CpaCampaign campaign(setup, cfg);
  const sca::WelchTTest live = campaign.run_tvla(150);

  TraceStoreReader reader(path);
  EXPECT_EQ(reader.kind(), StoreKind::kTvla);
  EXPECT_EQ(reader.trace_count(), 300u);  // both populations interleaved

  const ReplayTvlaResult replay = replay_tvla(reader);
  EXPECT_EQ(replay.fixed_traces, live.fixed_traces());
  EXPECT_EQ(replay.random_traces, live.random_traces());
  EXPECT_EQ(replay.max_abs_t, live.max_abs_t());  // bit-exact double
  EXPECT_EQ(replay.leakage_detected, live.leakage_detected());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Fused one-pass replay: replay_all must reproduce each single-analysis
// replay bit for bit from ONE sweep of the store.

TEST(StoreReplayTest, FusedReplayMatchesSingleAnalysisBitIdentically) {
  const std::string path = temp_path("store_fused_byte.trc");
  std::remove(path.c_str());

  core::CampaignConfig cfg = small_config(500);
  cfg.checkpoints = {100, 250, 500};
  cfg.store_out = path;
  core::AttackSetup setup(core::BenignCircuit::kAlu,
                          core::Calibration::paper_defaults());
  const core::CampaignResult live = core::CpaCampaign(setup, cfg).run();
  const crypto::Block lrk = setup.victim().cipher().last_round_key();

  TraceStoreReader reader(path);
  const auto checkpoints =
      core::checkpoint_schedule(cfg.checkpoints, cfg.traces);
  const ReplayAttackResult single =
      replay_attack(reader, checkpoints, live.correct_guess);

  // Attack + specific TVLA, no full key: the attack fold takes the
  // XorClassCpa path and must equal the single-analysis replay exactly.
  ReplayAllOptions opts;
  opts.fullkey = false;
  const ReplayAllResult fused = replay_all(reader, checkpoints, lrk, opts);
  ASSERT_TRUE(fused.has_attack);
  ASSERT_FALSE(fused.has_fullkey);
  ASSERT_TRUE(fused.has_tvla);
  expect_progress_equal(fused.attack.progress, single.progress);
  EXPECT_EQ(fused.attack.correct_guess, single.correct_guess);
  EXPECT_EQ(fused.attack.recovered_guess, single.recovered_guess);
  EXPECT_EQ(fused.attack.key_recovered, single.key_recovered);
  EXPECT_EQ(fused.attack.mtd.traces, single.mtd.traces);

  // The specific t-test section against an independent per-trace oracle:
  // populations partitioned by the target model's predicted class bit.
  const StoreIdentity& id = reader.identity();
  sca::LastRoundBitModel model(id.target_key_byte, id.target_bit);
  sca::WelchTTest oracle(reader.samples());
  for (std::size_t t = 0; t < reader.trace_count(); ++t) {
    oracle.add(model.class_bit(reader.ciphertext(t)) == 0,
               reader.readings(t));
  }
  EXPECT_EQ(fused.tvla.max_abs_t, oracle.max_abs_t());
  EXPECT_EQ(fused.tvla.fixed_traces, oracle.fixed_traces());
  EXPECT_EQ(fused.tvla.random_traces, oracle.random_traces());
  EXPECT_EQ(fused.tvla.leakage_detected, oracle.leakage_detected());

  // With full key riding along, the attack fold comes from the fused
  // 16-byte tile instead — still bit-identical (multibyte equivalence).
  const ReplayAllResult everything = replay_all(reader, checkpoints, lrk);
  ASSERT_TRUE(everything.has_attack && everything.has_fullkey &&
              everything.has_tvla);
  expect_progress_equal(everything.attack.progress, single.progress);
  EXPECT_EQ(everything.tvla.max_abs_t, fused.tvla.max_abs_t);
  const std::size_t target = static_cast<std::size_t>(id.target_key_byte);
  EXPECT_EQ(everything.fullkey.bytes[target].recovered,
            everything.attack.recovered_guess);
  std::remove(path.c_str());
}

TEST(StoreReplayTest, FusedReplayMatchesFullKeyReplayBitIdentically) {
  const std::string path = temp_path("store_fused_fullkey.trc");
  std::remove(path.c_str());

  core::CampaignConfig cfg = small_config(600);
  cfg.window_start_ns = 370.0;
  cfg.window_end_ns = 470.0;
  cfg.store_out = path;
  core::AttackSetup setup(core::BenignCircuit::kAlu,
                          core::Calibration::paper_defaults());
  core::CpaCampaign campaign(setup, cfg);
  (void)campaign.run_fullkey(core::FullKeyConfig{});
  const crypto::Block lrk = setup.victim().cipher().last_round_key();

  TraceStoreReader reader(path);
  const auto checkpoints =
      core::checkpoint_schedule(cfg.checkpoints, cfg.traces);
  const ReplayFullKeyResult single =
      replay_fullkey(reader, checkpoints, lrk);
  const ReplayAllResult fused = replay_all(reader, checkpoints, lrk);
  ASSERT_TRUE(fused.has_fullkey);
  for (std::size_t b = 0; b < 16; ++b) {
    const ReplayFullKeyByte& sb = single.bytes[b];
    const ReplayFullKeyByte& fb = fused.fullkey.bytes[b];
    EXPECT_EQ(fb.correct, sb.correct) << "byte " << b;
    EXPECT_EQ(fb.recovered, sb.recovered) << "byte " << b;
    EXPECT_EQ(fb.success, sb.success) << "byte " << b;
    EXPECT_EQ(fb.early_exited, sb.early_exited) << "byte " << b;
    EXPECT_EQ(fb.traces, sb.traces) << "byte " << b;
    EXPECT_EQ(fb.final_max_abs_corr, sb.final_max_abs_corr) << "byte " << b;
    expect_progress_equal(fb.progress, sb.progress);
  }
  EXPECT_EQ(fused.fullkey.success, single.success);
  EXPECT_EQ(fused.fullkey.recovered_last_round_key,
            single.recovered_last_round_key);
  EXPECT_EQ(fused.fullkey.bytes_early_exited, single.bytes_early_exited);
  std::remove(path.c_str());
}

TEST(StoreReplayTest, FusedReplayOnTvlaStore) {
  const std::string path = temp_path("store_fused_tvla.trc");
  std::remove(path.c_str());

  core::CampaignConfig cfg = small_config(200);
  cfg.store_out = path;
  core::AttackSetup setup(core::BenignCircuit::kAlu,
                          core::Calibration::paper_defaults());
  core::CpaCampaign campaign(setup, cfg);
  (void)campaign.run_tvla(150);
  const crypto::Block lrk = setup.victim().cipher().last_round_key();

  TraceStoreReader reader(path);
  const ReplayTvlaResult single = replay_tvla(reader);

  // Key-hypothesis analyses need ciphertext labels a TVLA capture has
  // no campaign contract for — asking is a mismatch, not a silent skip.
  EXPECT_THROW(replay_all(reader, {}, lrk), StoreMismatch);

  ReplayAllOptions opts;
  opts.attack = false;
  opts.fullkey = false;
  const ReplayAllResult fused = replay_all(reader, {}, lrk, opts);
  ASSERT_TRUE(fused.has_tvla);
  EXPECT_FALSE(fused.has_attack);
  EXPECT_FALSE(fused.has_fullkey);
  EXPECT_EQ(fused.tvla.max_abs_t, single.max_abs_t);
  EXPECT_EQ(fused.tvla.fixed_traces, single.fixed_traces);
  EXPECT_EQ(fused.tvla.random_traces, single.random_traces);
  EXPECT_EQ(fused.tvla.leakage_detected, single.leakage_detected);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Format-level rejection battery.

class StoreFormatTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = temp_path("store_format.trc");
    std::remove(path_.c_str());
    core::CampaignConfig cfg = small_config(120);
    cfg.store_out = path_;
    core::AttackSetup setup(core::BenignCircuit::kAlu,
                            core::Calibration::paper_defaults());
    (void)core::CpaCampaign(setup, cfg).run();
    bytes_ = slurp(path_);
    ASSERT_GT(bytes_.size(), 128u);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
  std::vector<std::uint8_t> bytes_;
};

TEST_F(StoreFormatTest, MissingFileThrowsFormatError) {
  EXPECT_THROW(TraceStoreReader(temp_path("no_such_store.trc")),
               StoreFormatError);
}

TEST_F(StoreFormatTest, FlippedEnvelopeCrcThrowsFormatError) {
  auto bad = bytes_;
  bad[20] ^= 0x01;  // envelope CRC bytes at offset 20..23
  spit(path_, bad);
  EXPECT_THROW(TraceStoreReader reader(path_), StoreFormatError);
}

TEST_F(StoreFormatTest, TruncationThrowsFormatError) {
  auto bad = bytes_;
  bad.resize(bad.size() - 64);
  spit(path_, bad);
  EXPECT_THROW(TraceStoreReader reader(path_), StoreFormatError);

  bad.resize(10);  // shorter than the envelope header
  spit(path_, bad);
  EXPECT_THROW(TraceStoreReader reader(path_), StoreFormatError);
}

TEST_F(StoreFormatTest, WrongMagicThrowsFormatError) {
  auto bad = bytes_;
  bad[0] = 'X';
  spit(path_, bad);
  EXPECT_THROW(TraceStoreReader reader(path_), StoreFormatError);
}

TEST_F(StoreFormatTest, MismatchedIdentityThrowsStoreMismatch) {
  TraceStoreReader reader(path_);
  StoreIdentity expected = reader.identity();
  expected.seed ^= 1;
  expected.target_key_byte = 7;
  try {
    reader.identity().require_compatible(expected, "store_test");
    FAIL() << "expected StoreMismatch";
  } catch (const StoreMismatch& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("seed"), std::string::npos) << what;
    EXPECT_NE(what.find("target_key_byte"), std::string::npos) << what;
  }
}

TEST_F(StoreFormatTest, MatchingIdentityPasses) {
  TraceStoreReader reader(path_);
  EXPECT_NO_THROW(
      reader.identity().require_compatible(reader.identity(), "store_test"));
}

// ---------------------------------------------------------------------
// Writer discipline.

TEST(StoreWriterTest, IncompleteFinalizeThrowsAndWritesNothing) {
  const std::string path = temp_path("store_incomplete.trc");
  std::remove(path.c_str());
  StoreIdentity id;
  id.kind = static_cast<std::uint8_t>(StoreKind::kByteCampaign);
  id.trace_count = 4;
  id.samples = 2;
  TraceStoreWriter writer(path, id);
  const double y[2] = {1.0, 2.0};
  writer.record_meta(0, crypto::Block{}, crypto::Block{});
  writer.record_readings(0, y);
  EXPECT_THROW((void)writer.finalize(), Error);
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(StoreWriterTest, AbandonedWriterLeavesNoFile) {
  const std::string path = temp_path("store_abandoned.trc");
  std::remove(path.c_str());
  {
    StoreIdentity id;
    id.trace_count = 8;
    id.samples = 1;
    TraceStoreWriter writer(path, id);
    const double y = 0.5;
    writer.record_meta(0, crypto::Block{}, crypto::Block{});
    writer.record_readings(0, &y);
    // A halted campaign destroys the writer without finalize().
  }
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(StoreWriterTest, RoundTripPreservesEveryColumn) {
  const std::string path = temp_path("store_roundtrip.trc");
  std::remove(path.c_str());
  StoreIdentity id;
  id.kind = static_cast<std::uint8_t>(StoreKind::kByteCampaign);
  id.circuit = 1;
  id.mode = 2;
  id.rng_contract = 2;
  id.seed = 0xabcdef;
  id.trace_count = 10;
  id.samples = 3;
  id.target_key_byte = 5;
  id.config_hash = 0x1234;

  TraceStoreWriter writer(path, id, 4);  // 10 = 2*4 + 2 -> 3 chunks
  writer.set_resolved_single_bit(21);
  writer.set_capture_threads(2);
  for (std::size_t t = 0; t < 10; ++t) {
    crypto::Block pt{};
    crypto::Block ct{};
    pt[0] = static_cast<std::uint8_t>(t);
    ct[15] = static_cast<std::uint8_t>(0xf0 + t);
    writer.record_meta(t, pt, ct);
    const double y[3] = {static_cast<double>(t), t + 0.25, t * 3.0};
    writer.record_readings(t, y);
  }
  const TraceStoreWriter::FinalizeStats stats = writer.finalize();
  EXPECT_EQ(stats.traces, 10u);
  EXPECT_EQ(stats.chunks, 3u);
  EXPECT_EQ(stats.bytes_written, std::filesystem::file_size(path));

  TraceStoreReader reader(path);
  EXPECT_EQ(reader.identity(), id);
  EXPECT_EQ(reader.chunk_traces(), 4u);
  EXPECT_EQ(reader.chunk_count(), 3u);
  EXPECT_EQ(reader.resolved_single_bit(), 21u);
  EXPECT_EQ(reader.capture_threads(), 2u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(reader.readings(0)) % 8, 0u)
      << "readings column must be 8-byte aligned for zero-copy folds";
  for (std::size_t t = 0; t < 10; ++t) {
    EXPECT_EQ(reader.readings(t)[0], static_cast<double>(t));
    EXPECT_EQ(reader.readings(t)[1], t + 0.25);
    EXPECT_EQ(reader.readings(t)[2], t * 3.0);
    EXPECT_EQ(reader.plaintext(t)[0], static_cast<std::uint8_t>(t));
    EXPECT_EQ(reader.ciphertext(t)[15], static_cast<std::uint8_t>(0xf0 + t));
  }
  std::remove(path.c_str());
}

// A fixed 13-trace store with an odd chunk size and a short last chunk
// (13 = 5 + 5 + 3), so chunk boundaries fall inside every column.
constexpr std::size_t kFixedTraces = 13;
constexpr std::size_t kFixedSamples = 3;
constexpr std::size_t kFixedChunk = 5;

void write_fixed_store(const std::string& path) {
  StoreIdentity id;
  id.kind = static_cast<std::uint8_t>(StoreKind::kFullKey);
  id.circuit = 2;
  id.mode = 1;
  id.rng_contract = 2;
  id.seed = 0x0123456789abcdefull;
  id.trace_count = kFixedTraces;
  id.samples = kFixedSamples;
  id.target_key_byte = 9;
  id.target_bit = 21;
  id.config_hash = 0xdeadbeef;

  TraceStoreWriter writer(path, id, kFixedChunk);
  writer.set_resolved_single_bit(6);
  writer.set_capture_threads(3);
  for (std::size_t t = 0; t < kFixedTraces; ++t) {
    crypto::Block pt{};
    crypto::Block ct{};
    for (std::size_t i = 0; i < pt.size(); ++i) {
      pt[i] = static_cast<std::uint8_t>(t * 7 + i * 13);
      ct[i] = static_cast<std::uint8_t>(0xa5 ^ (t * 31 + i));
    }
    writer.record_meta(t, pt, ct);
    const double y[kFixedSamples] = {t * 1.5, -0.125 * static_cast<double>(t),
                                     1e3 + static_cast<double>(t * t)};
    writer.record_readings(t, y);
  }
  EXPECT_EQ(writer.finalize().chunks, 3u);
}

// FNV-1a 64 over a file's bytes: a pin independent of the CRC kernels
// the envelope and chunk index are built with.
std::uint64_t fnv1a64(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(StoreWriterTest, FileBytesArePinned) {
  // The pinned size and hash were generated by the writer that assembled
  // the whole payload in one buffer; any change to the header, column
  // order, chunk index or envelope breaks them.
  const std::string path = temp_path("store_pinned.trc");
  std::remove(path.c_str());
  write_fixed_store(path);
  const std::vector<std::uint8_t> bytes = slurp(path);
  EXPECT_EQ(bytes.size(), 892u);
  EXPECT_EQ(fnv1a64(bytes), 0xde4b9eadfd393eaeull);
  std::remove(path.c_str());
}

TEST(StoreCorruptionTest, FlippedByteInEveryRegionThrowsFormatError) {
  // One flipped byte per region of the file. Every flip must fail the
  // envelope CRC. Column and index flips must ALSO fail on their own
  // once the envelope CRC is recomputed over the damaged payload ("reseal"),
  // which proves each chunk CRC is checked on open, not just the envelope.
  const std::string path = temp_path("store_corrupt.trc");
  std::remove(path.c_str());
  write_fixed_store(path);
  const std::vector<std::uint8_t> good = slurp(path);

  constexpr std::size_t kRow = kFixedSamples * sizeof(double);
  constexpr std::size_t kHeader = kFramedEnvelopeBytes;
  constexpr std::size_t kReadings = kHeader + 80;
  constexpr std::size_t kPt = kReadings + kFixedTraces * kRow;
  constexpr std::size_t kCt = kPt + kFixedTraces * 16;
  constexpr std::size_t kIndex = kCt + kFixedTraces * 16;
  ASSERT_EQ(good.size(), kIndex + 3 * 20);

  struct Flip {
    const char* region;
    std::size_t offset;
    const char* resealed_error;  // nullptr: only the envelope CRC guards it
  };
  const Flip flips[] = {
      {"header", kHeader + 9, nullptr},
      {"first readings byte", kReadings, "chunk 0 CRC mismatch"},
      {"readings byte on a chunk boundary", kReadings + kFixedChunk * kRow,
       "chunk 1 CRC mismatch"},
      {"last partial chunk", kReadings + (kFixedTraces - 1) * kRow + 5,
       "chunk 2 CRC mismatch"},
      {"plaintext column", kPt + 7 * 16 + 3, "chunk 1 CRC mismatch"},
      {"ciphertext column", kCt + kFixedTraces * 16 - 1,
       "chunk 2 CRC mismatch"},
      {"chunk index crc", kIndex + 20 + 16, "chunk 1 CRC mismatch"},
      {"stored envelope crc", 20, nullptr},
  };
  for (const Flip& f : flips) {
    SCOPED_TRACE(f.region);
    std::vector<std::uint8_t> bad = good;
    bad[f.offset] ^= 0x10;
    spit(path, bad);
    EXPECT_THROW(TraceStoreReader reader(path), StoreFormatError);
    if (f.resealed_error == nullptr) continue;

    const std::uint32_t crc =
        crc32(bad.data() + kFramedEnvelopeBytes,
              bad.size() - kFramedEnvelopeBytes);
    for (int i = 0; i < 4; ++i) {
      bad[20 + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(crc >> (8 * i));
    }
    spit(path, bad);
    try {
      TraceStoreReader reader(path);
      ADD_FAILURE() << "resealed flip was not caught by its chunk CRC";
    } catch (const StoreFormatError& e) {
      EXPECT_NE(std::string(e.what()).find(f.resealed_error),
                std::string::npos)
          << e.what();
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace slm::store
