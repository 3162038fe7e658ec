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

ReplayAllOptions sections(bool attack, bool fullkey, bool tvla) {
  ReplayAllOptions o;
  o.attack = attack;
  o.fullkey = fullkey;
  o.tvla = tvla;
  return o;
}

void expect_mtd_equal(const sca::MtdResult& a, const sca::MtdResult& b) {
  EXPECT_EQ(a.traces, b.traces);
  EXPECT_EQ(a.final_margin, b.final_margin);
}

// ---------------------------------------------------------------------
// Live vs replay: one table over analysis x shard count x sections.
// Each row captures a store with the live engine, replays it through
// replay_all and requires the same progress vectors, winners, MTD and
// freeze points. The checkpoint requests are unsorted, default, or
// missing the budget; replay normalizes each with the engines' own rule.

TEST(StoreReplayTest, LiveAndReplayFoldAlike) {
  enum class Analysis { kByte, kFullKeyEarlyExit, kFullKeyNoEarlyExit };
  struct Row {
    Analysis analysis;
    std::vector<std::size_t> checkpoints;
  };
  const Row rows[] = {
      {Analysis::kByte, {500, 100, 250}},
      {Analysis::kFullKeyEarlyExit, {}},
      {Analysis::kFullKeyNoEarlyExit, {250, 100}},
  };
  const std::string path = temp_path("store_differential.trc");
  for (const Row& row : rows) {
    const bool byte = row.analysis == Analysis::kByte;
    sca::FullKeyConfig fk;
    fk.early_exit = row.analysis == Analysis::kFullKeyEarlyExit;
    // Gates loose enough that bytes freeze mid-run at 600 traces.
    fk.early_exit_margin = 0.02;
    fk.early_exit_stable = 1;
    fk.early_exit_min_traces = 100;
    for (const unsigned shards : {1u, 3u}) {
      std::remove(path.c_str());
      core::CampaignConfig cfg = small_config(600);
      if (!byte) {
        cfg.window_start_ns = 370.0;  // bracket every byte's leakage cycle
        cfg.window_end_ns = 470.0;
      }
      cfg.checkpoints = row.checkpoints;
      cfg.store_out = path;
      core::AttackSetup setup(core::BenignCircuit::kAlu,
                              core::Calibration::paper_defaults());
      core::CpaCampaign live(setup, cfg);
      core::CampaignResult live_byte;
      core::FullKeyRunResult live_fk;
      if (byte) {
        live_byte = live.run(shards);
      } else {
        live_fk = live.run_fullkey(fk, shards);
      }
      const crypto::Block lrk = setup.victim().cipher().last_round_key();

      const TraceStoreReader reader(path);
      EXPECT_EQ(reader.kind(),
                byte ? StoreKind::kByteCampaign : StoreKind::kFullKey);
      EXPECT_EQ(reader.trace_count(), 600u);
      const std::size_t target =
          static_cast<std::size_t>(reader.identity().target_key_byte);
      // The section alone, then fused with the others (for a byte store
      // also attack + t-test alone, whose attack fold stays on the
      // standalone XorClassCpa rather than the 16-byte tile).
      std::vector<ReplayAllOptions> mixes{sections(byte, !byte, false)};
      if (byte) mixes.push_back(sections(true, false, true));
      mixes.push_back(sections(true, true, true));
      for (ReplayAllOptions opts : mixes) {
        SCOPED_TRACE(std::string(byte ? "byte" : "full key") +
                     (fk.early_exit ? "" : ", no early exit") + ", " +
                     std::to_string(shards) + " shard(s), sections " +
                     (opts.attack ? "a" : "") + (opts.fullkey ? "f" : "") +
                     (opts.tvla ? "t" : ""));
        opts.fullkey_opts = fk;
        const ReplayAllResult r =
            replay_all(reader, row.checkpoints, lrk, opts);
        ASSERT_EQ(r.has_attack, opts.attack);
        ASSERT_EQ(r.has_fullkey, opts.fullkey);
        ASSERT_EQ(r.has_tvla, opts.tvla);
        if (byte) {
          expect_progress_equal(r.attack.progress, live_byte.progress);
          EXPECT_EQ(r.attack.correct_guess, live_byte.correct_guess);
          EXPECT_EQ(r.attack.recovered_guess, live_byte.recovered_guess);
          EXPECT_EQ(r.attack.key_recovered, live_byte.key_recovered);
          EXPECT_EQ(r.attack.traces, live_byte.traces_run);
          expect_mtd_equal(r.attack.mtd, live_byte.mtd);
        } else {
          std::size_t early = 0;
          for (std::size_t b = 0; b < 16; ++b) {
            const sca::FullKeyByteResult& lb = live_fk.bytes[b];
            const sca::FullKeyByteResult& rb = r.fullkey.bytes[b];
            SCOPED_TRACE("byte " + std::to_string(b));
            EXPECT_EQ(rb.correct, lb.correct);
            EXPECT_EQ(rb.recovered, lb.recovered);
            EXPECT_EQ(rb.success, lb.success);
            EXPECT_EQ(rb.early_exited, lb.early_exited);
            EXPECT_EQ(rb.traces, lb.traces);  // the freeze point
            EXPECT_EQ(rb.final_max_abs_corr, lb.final_max_abs_corr);
            expect_progress_equal(rb.progress, lb.progress);
            expect_mtd_equal(rb.mtd, lb.mtd);
            EXPECT_EQ(r.fullkey.recovered_last_round_key[b], lb.recovered);
            if (lb.early_exited) ++early;
          }
          EXPECT_EQ(r.fullkey.success, live_fk.all_recovered());
          EXPECT_EQ(r.fullkey.bytes_early_exited, early);
          EXPECT_EQ(early > 0, fk.early_exit);
          if (opts.attack) {
            // Up to its freeze point the target byte's progress is the
            // attack section's.
            const auto& lp = live_fk.bytes[target].progress;
            ASSERT_GE(r.attack.progress.size(), lp.size());
            expect_progress_equal(
                {r.attack.progress.begin(),
                 r.attack.progress.begin() +
                     static_cast<std::ptrdiff_t>(lp.size())},
                lp);
          }
        }
        if (opts.tvla) {
          // The specific t-test against a per-trace oracle: populations
          // partitioned by the target model's predicted class bit.
          const sca::LastRoundBitModel model(target,
                                             reader.identity().target_bit);
          sca::WelchTTest oracle(reader.samples());
          for (std::size_t t = 0; t < reader.trace_count(); ++t) {
            oracle.add(model.class_bit(reader.ciphertext(t)) == 0,
                       reader.readings(t));
          }
          EXPECT_EQ(r.tvla.max_abs_t, oracle.max_abs_t());
          EXPECT_EQ(r.tvla.fixed_traces, oracle.fixed_traces());
          EXPECT_EQ(r.tvla.random_traces, oracle.random_traces());
          EXPECT_EQ(r.tvla.leakage_detected, oracle.leakage_detected());
        }
      }
    }
  }
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
  core::CpaCampaign par(s2, cfg);
  (void)par.run(3);

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

  const crypto::Block lrk = setup.victim().cipher().last_round_key();
  const ReplayAttackResult a =
      replay_all(src, {}, lrk, sections(true, false, false)).attack;
  const ReplayAttackResult b =
      replay_all(re, {}, lrk, sections(true, false, false)).attack;
  expect_progress_equal(a.progress, b.progress);
  expect_progress_equal(a.progress, live.progress);
  EXPECT_EQ(a.recovered_guess, b.recovered_guess);
  std::remove(src_path.c_str());
  std::remove(odd_path.c_str());
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

  const crypto::Block lrk = setup.victim().cipher().last_round_key();
  const ReplayAllResult replay =
      replay_all(reader, {}, lrk, sections(false, false, true));
  ASSERT_TRUE(replay.has_tvla);
  EXPECT_FALSE(replay.has_attack);
  EXPECT_FALSE(replay.has_fullkey);
  EXPECT_EQ(replay.tvla.fixed_traces, live.fixed_traces());
  EXPECT_EQ(replay.tvla.random_traces, live.random_traces());
  EXPECT_EQ(replay.tvla.max_abs_t, live.max_abs_t());  // bit-exact double
  EXPECT_EQ(replay.tvla.leakage_detected, live.leakage_detected());

  // Key-hypothesis analyses need ciphertext labels a TVLA capture has
  // no campaign contract for — asking is a mismatch, not a silent skip.
  EXPECT_THROW(replay_all(reader, {}, lrk), StoreMismatch);
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
  // the whole payload in one buffer (then re-pinned for the version 2
  // envelope field, the only byte that moved); any change to the header,
  // column order, chunk index or envelope breaks them.
  const std::string path = temp_path("store_pinned.trc");
  std::remove(path.c_str());
  write_fixed_store(path);
  const std::vector<std::uint8_t> bytes = slurp(path);
  EXPECT_EQ(bytes.size(), 892u);
  EXPECT_EQ(fnv1a64(bytes), 0x28a84a6f5f9ece11ull);
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
