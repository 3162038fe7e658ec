// Distributed campaign fabric: shard workers must be bit-identical to
// the serial engine for EVERY split of the trace range, merges must be
// order-invariant, and every corrupted/mismatched/overlapping snapshot
// must fail loudly with its own error class — the acceptance battery of
// docs/DISTRIBUTED.md (the multi-process half lives in
// tools/fabric_smoke.cmake).
#include "core/fabric.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/campaign.hpp"
#include "core/checkpoint.hpp"
#include "core/setup.hpp"
#include "sca/cpa.hpp"

namespace slm::core {
namespace {

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

CampaignConfig small_cfg(SensorMode mode, std::size_t traces) {
  CampaignConfig cfg;
  cfg.mode = mode;
  cfg.traces = traces;
  cfg.checkpoints = {100, 200, 350, traces};
  cfg.selection_traces = 300;
  cfg.rng_contract = RngContract::kV2;
  return cfg;
}

/// Run one fabric worker over `range` with its own fresh platform (a
/// worker process in miniature) and return the final snapshot.
AccumulatorSnapshot run_worker(const CampaignConfig& cfg, bool fullkey,
                               TraceRange range, const std::string& path,
                               std::uint64_t snapshot_every = 0) {
  AttackSetup setup(BenignCircuit::kAlu, Calibration::paper_defaults());
  FabricWorker worker(setup, cfg, fullkey);
  FabricJob job;
  job.range = range;
  job.snapshot_out = path;
  job.snapshot_every = snapshot_every;
  return worker.run(job);
}

std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(is),
                                   std::istreambuf_iterator<char>());
}

TEST(PlanShardsTest, PartitionsEveryBudget) {
  for (const std::uint64_t total : {0ull, 1ull, 7ull, 100ull, 1001ull}) {
    for (const unsigned shards : {1u, 2u, 3u, 4u, 9u}) {
      const auto ranges = plan_shards(total, shards);
      ASSERT_EQ(ranges.size(), shards);
      std::uint64_t cursor = 0;
      for (const TraceRange& r : ranges) {
        EXPECT_EQ(r.begin, cursor);
        EXPECT_LE(r.begin, r.end);
        cursor = r.end;
      }
      EXPECT_EQ(cursor, total);
    }
  }
  EXPECT_THROW(plan_shards(10, 0), Error);
}

TEST(RangeLedgerTest, OverlapGapsAndCoalescing) {
  RangeLedger ledger(1000);
  ledger.cover({0, 100});
  ledger.cover({300, 500});
  EXPECT_FALSE(ledger.complete());
  EXPECT_EQ(ledger.covered(), 300u);

  const auto gaps = ledger.missing();
  ASSERT_EQ(gaps.size(), 2u);
  EXPECT_EQ(gaps[0], (TraceRange{100, 300}));
  EXPECT_EQ(gaps[1], (TraceRange{500, 1000}));

  // Any overlap is a double-count and must throw, partial or exact.
  EXPECT_THROW(ledger.cover({0, 100}), SnapshotRangeError);
  EXPECT_THROW(ledger.cover({50, 150}), SnapshotRangeError);
  EXPECT_THROW(ledger.cover({250, 301}), SnapshotRangeError);
  EXPECT_THROW(ledger.cover({499, 500}), SnapshotRangeError);
  // Empty and out-of-bounds ranges are ledger violations too.
  EXPECT_THROW(ledger.cover({100, 100}), SnapshotRangeError);
  EXPECT_THROW(ledger.cover({990, 1001}), SnapshotRangeError);

  // Filling the gaps coalesces to one canonical range.
  ledger.cover({100, 300});
  ledger.cover({500, 1000});
  EXPECT_TRUE(ledger.complete());
  ASSERT_EQ(ledger.ranges().size(), 1u);
  EXPECT_EQ(ledger.ranges()[0], (TraceRange{0, 1000}));
  EXPECT_TRUE(ledger.missing().empty());
}

TEST(SnapshotIoTest, RoundTripAndNegativePaths) {
  const std::string dir = fresh_dir("fabric_io");
  const CampaignConfig cfg = small_cfg(SensorMode::kTdcFull, 400);
  const std::string path = dir + "/w.snap";
  const AccumulatorSnapshot written =
      run_worker(cfg, /*fullkey=*/false, {0, 400}, path);

  const AccumulatorSnapshot loaded = load_snapshot(path);
  EXPECT_TRUE(loaded.id == written.id);
  EXPECT_EQ(loaded.ranges, written.ranges);
  EXPECT_EQ(loaded.accumulator, written.accumulator);
  EXPECT_EQ(loaded.source, path);

  // Missing file: clean SnapshotFormatError, not a generic I/O failure.
  EXPECT_THROW(load_snapshot(dir + "/absent.snap"), SnapshotFormatError);

  // Truncation anywhere in the file must be detected.
  const std::vector<std::uint8_t> bytes = file_bytes(path);
  {
    std::ofstream os(dir + "/trunc.snap", std::ios::binary);
    os.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_THROW(load_snapshot(dir + "/trunc.snap"), SnapshotFormatError);

  // A single flipped payload byte must fail the CRC.
  std::vector<std::uint8_t> corrupt = bytes;
  corrupt[corrupt.size() - 3] ^= 0x40;
  {
    std::ofstream os(dir + "/crc.snap", std::ios::binary);
    os.write(reinterpret_cast<const char*>(corrupt.data()),
             static_cast<std::streamsize>(corrupt.size()));
  }
  EXPECT_THROW(load_snapshot(dir + "/crc.snap"), SnapshotFormatError);

  // Wrong magic: a checkpoint-style file is not a snapshot.
  std::vector<std::uint8_t> foreign = bytes;
  foreign[0] ^= 0xff;
  {
    std::ofstream os(dir + "/magic.snap", std::ios::binary);
    os.write(reinterpret_cast<const char*>(foreign.data()),
             static_cast<std::streamsize>(foreign.size()));
  }
  EXPECT_THROW(load_snapshot(dir + "/magic.snap"), SnapshotFormatError);
}

TEST(SnapshotIoTest, OverlappingRangesInOneFileAreRejected) {
  const std::string dir = fresh_dir("fabric_io_overlap");
  const CampaignConfig cfg = small_cfg(SensorMode::kTdcFull, 400);
  AccumulatorSnapshot snap =
      run_worker(cfg, false, {0, 200}, dir + "/ok.snap");
  // A structurally valid file claiming overlapping coverage must fail as
  // a range violation (double-count), not as corruption.
  snap.ranges = {{0, 200}, {100, 300}};
  save_snapshot(dir + "/overlap.snap", snap);
  EXPECT_THROW(load_snapshot(dir + "/overlap.snap"), SnapshotRangeError);
}

// THE tentpole property: for randomized shard counts, split points, and
// block sizes, merging the shard snapshots (in random order) is
// bit-identical to the serial engine — same accumulator bytes as the
// full-range worker and the exact final correlation vector of
// CpaCampaign::run().
TEST(FabricMergeTest, RandomSplitsMatchSerialTdc) {
  const std::string dir = fresh_dir("fabric_splits");
  const std::size_t traces = 600;
  CampaignConfig cfg = small_cfg(SensorMode::kTdcFull, traces);

  CampaignResult serial;
  {
    AttackSetup setup(BenignCircuit::kAlu, Calibration::paper_defaults());
    serial = CpaCampaign(setup, cfg).run();
  }
  const AccumulatorSnapshot whole =
      run_worker(cfg, false, {0, traces}, dir + "/whole.snap");

  std::mt19937_64 rng(0x5eed5eed);
  for (int round = 0; round < 4; ++round) {
    // Random contiguous split into 1..4 parts with random block sizes.
    const unsigned parts_n = 1 + static_cast<unsigned>(rng() % 4);
    std::vector<std::uint64_t> cuts{0, traces};
    for (unsigned i = 1; i < parts_n; ++i) {
      cuts.push_back(1 + rng() % (traces - 1));
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

    std::vector<AccumulatorSnapshot> snaps;
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      CampaignConfig wcfg = cfg;
      wcfg.block = (rng() % 2 == 0) ? 1 : 48;  // per-trace vs blocked
      snaps.push_back(run_worker(
          wcfg, false, {cuts[i], cuts[i + 1]},
          dir + "/r" + std::to_string(round) + "_" + std::to_string(i) +
              ".snap"));
    }
    std::shuffle(snaps.begin(), snaps.end(), rng);

    const AccumulatorSnapshot merged = merge_snapshots(snaps);
    EXPECT_TRUE(merged.id == whole.id);
    ASSERT_EQ(merged.ranges.size(), 1u);
    EXPECT_EQ(merged.ranges[0], (TraceRange{0, traces}));
    EXPECT_EQ(merged.accumulator, whole.accumulator)
        << "split round " << round << " not bit-identical";

    const sca::CpaEngine folded =
        fold_snapshot_byte(merged, cfg.target_key_byte);
    EXPECT_EQ(folded.trace_count(), serial.traces_run);
    EXPECT_EQ(folded.max_abs_correlation(), serial.final_max_abs_corr);
    EXPECT_EQ(folded.best_guess(), serial.recovered_guess);
  }
}

TEST(FabricMergeTest, BenignHwSplitMatchesSerial) {
  const std::string dir = fresh_dir("fabric_hw");
  const std::size_t traces = 500;
  const CampaignConfig cfg = small_cfg(SensorMode::kBenignHw, traces);

  CampaignResult serial;
  {
    AttackSetup setup(BenignCircuit::kAlu, Calibration::paper_defaults());
    serial = CpaCampaign(setup, cfg).run();
  }
  const std::vector<TraceRange> shards = plan_shards(traces, 3);
  std::vector<AccumulatorSnapshot> snaps;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    snaps.push_back(run_worker(cfg, false, shards[i],
                               dir + "/s" + std::to_string(i) + ".snap"));
  }
  const sca::CpaEngine folded = fold_snapshot_byte(
      merge_snapshots(snaps), cfg.target_key_byte);
  EXPECT_EQ(folded.max_abs_correlation(), serial.final_max_abs_corr);
  EXPECT_EQ(folded.best_guess(), serial.recovered_guess);
}

TEST(FabricMergeTest, OrderInvariant) {
  const std::string dir = fresh_dir("fabric_order");
  const std::size_t traces = 450;
  const CampaignConfig cfg = small_cfg(SensorMode::kTdcFull, traces);
  std::vector<AccumulatorSnapshot> snaps;
  const std::vector<TraceRange> shards = plan_shards(traces, 3);
  for (std::size_t i = 0; i < shards.size(); ++i) {
    snaps.push_back(run_worker(cfg, false, shards[i],
                               dir + "/s" + std::to_string(i) + ".snap"));
  }
  std::vector<std::size_t> perm{0, 1, 2};
  const AccumulatorSnapshot reference = merge_snapshots(snaps);
  do {
    std::vector<AccumulatorSnapshot> shuffled;
    for (const std::size_t i : perm) shuffled.push_back(snaps[i]);
    const AccumulatorSnapshot merged = merge_snapshots(shuffled);
    EXPECT_EQ(merged.accumulator, reference.accumulator);
    EXPECT_EQ(merged.ranges, reference.ranges);
  } while (std::next_permutation(perm.begin(), perm.end()));
}

TEST(FabricMergeTest, MismatchedAndOverlappingPartsAreRejected) {
  const std::string dir = fresh_dir("fabric_mismatch");
  const CampaignConfig cfg = small_cfg(SensorMode::kTdcFull, 400);
  const AccumulatorSnapshot a =
      run_worker(cfg, false, {0, 200}, dir + "/a.snap");
  const AccumulatorSnapshot b =
      run_worker(cfg, false, {200, 400}, dir + "/b.snap");

  // Different seed — a different campaign entirely.
  CampaignConfig other = cfg;
  other.seed ^= 1;
  const AccumulatorSnapshot alien =
      run_worker(other, false, {200, 400}, dir + "/alien.snap");
  EXPECT_THROW(merge_snapshots({a, alien}), SnapshotMismatch);

  // Different sensor mode under the same seed.
  CampaignConfig tdcbit = cfg;
  tdcbit.mode = SensorMode::kTdcSingleBit;
  tdcbit.single_bit = 3;
  const AccumulatorSnapshot wrong_mode =
      run_worker(tdcbit, false, {200, 400}, dir + "/mode.snap");
  EXPECT_THROW(merge_snapshots({a, wrong_mode}), SnapshotMismatch);

  // The same snapshot twice is an overlap, never a silent double-count.
  EXPECT_THROW(merge_snapshots({a, b, a}), SnapshotRangeError);

  // Gaps are fine for plain merges (a coordinator merges partial work).
  const AccumulatorSnapshot partial = merge_snapshots({a});
  EXPECT_EQ(partial.ranges, (std::vector<TraceRange>{{0, 200}}));
  EXPECT_THROW(merge_snapshots({}), Error);
}

TEST(FabricFullKeyTest, SplitMatchesSerialFullKey) {
  const std::string dir = fresh_dir("fabric_fullkey");
  const std::size_t traces = 400;
  CampaignConfig cfg = small_cfg(SensorMode::kTdcFull, traces);

  FullKeyRunResult serial;
  {
    AttackSetup setup(BenignCircuit::kAlu, Calibration::paper_defaults());
    FullKeyConfig fk;
    fk.early_exit = false;  // report every byte at the full budget
    serial = CpaCampaign(setup, cfg).run_fullkey(fk);
  }

  const AccumulatorSnapshot whole =
      run_worker(cfg, /*fullkey=*/true, {0, traces}, dir + "/whole.snap");
  std::vector<AccumulatorSnapshot> snaps;
  snaps.push_back(run_worker(cfg, true, {0, 170}, dir + "/s0.snap"));
  snaps.push_back(run_worker(cfg, true, {170, traces}, dir + "/s1.snap"));
  const AccumulatorSnapshot merged = merge_snapshots({snaps[1], snaps[0]});
  EXPECT_EQ(merged.accumulator, whole.accumulator);

  for (std::size_t j = 0; j < sca::MultiByteCpa::kBytes; ++j) {
    const sca::CpaEngine folded = fold_snapshot_byte(merged, j);
    EXPECT_EQ(folded.max_abs_correlation(),
              serial.bytes[j].final_max_abs_corr)
        << "byte " << j;
    EXPECT_EQ(static_cast<std::uint8_t>(folded.best_guess()),
              serial.bytes[j].recovered)
        << "byte " << j;
  }
  // Single-byte and full-key snapshots never merge.
  const AccumulatorSnapshot single =
      run_worker(cfg, false, {0, 170}, dir + "/single.snap");
  EXPECT_THROW(merge_snapshots({snaps[1], single}), SnapshotMismatch);
}

TEST(FabricWorkerTest, IntermediateSnapshotsHaltAndResumeBitExact) {
  const std::string dir = fresh_dir("fabric_halt");
  const std::size_t traces = 450;
  const CampaignConfig cfg = small_cfg(SensorMode::kTdcFull, traces);
  const AccumulatorSnapshot whole =
      run_worker(cfg, false, {0, traces}, dir + "/whole.snap");

  // A worker killed 300 traces into its range leaves a snapshot that
  // covers exactly the prefix [0, 300) — the reissue unit.
  AttackSetup setup(BenignCircuit::kAlu, Calibration::paper_defaults());
  FabricWorker worker(setup, cfg, false);
  FabricJob job;
  job.range = {0, traces};
  job.snapshot_out = dir + "/killed.snap";
  job.snapshot_every = 150;
  job.halt_after = 300;
  EXPECT_THROW(worker.run(job), CampaignHalted);
  const AccumulatorSnapshot killed = load_snapshot(dir + "/killed.snap");
  EXPECT_EQ(killed.ranges, (std::vector<TraceRange>{{0, 300}}));

  // A fresh worker over exactly the missing range completes the merge
  // bit-identically to the uninterrupted full-range capture.
  const AccumulatorSnapshot rest =
      run_worker(cfg, false, {300, traces}, dir + "/rest.snap");
  const AccumulatorSnapshot merged = merge_snapshots({killed, rest});
  EXPECT_EQ(merged.accumulator, whole.accumulator);
  EXPECT_EQ(merged.ranges, (std::vector<TraceRange>{{0, traces}}));
}

TEST(FabricWorkerTest, RejectsContractV1AndBadRanges) {
  CampaignConfig cfg = small_cfg(SensorMode::kTdcFull, 400);
  cfg.rng_contract = RngContract::kV1;
  AttackSetup setup(BenignCircuit::kAlu, Calibration::paper_defaults());
  FabricWorker v1(setup, cfg, false);
  EXPECT_THROW(v1.identity(), Error);

  cfg.rng_contract = RngContract::kDefault;
  AttackSetup setup2(BenignCircuit::kAlu, Calibration::paper_defaults());
  FabricWorker worker(setup2, cfg, false);
  FabricJob job;
  job.snapshot_out = ::testing::TempDir() + "bad_range.snap";
  job.range = {100, 100};
  EXPECT_THROW(worker.run(job), SnapshotRangeError);
  job.range = {0, 401};
  EXPECT_THROW(worker.run(job), SnapshotRangeError);
}

TEST(FabricProgressTest, MonotonicPerWorkerView) {
  FabricProgress progress;
  progress.reset(3);
  progress.update(0, 100);
  progress.update(0, 50);  // stale poll result must not move it backwards
  progress.update(2, 400);
  progress.update(7, 999);  // unknown worker index is ignored
  EXPECT_EQ(progress.covered(0), 100u);
  EXPECT_EQ(progress.covered(1), 0u);
  EXPECT_EQ(progress.covered(2), 400u);
  EXPECT_EQ(progress.total_covered(), 500u);
}

}  // namespace
}  // namespace slm::core
