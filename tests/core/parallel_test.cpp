#include "core/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "common/error.hpp"
#include "core/attack.hpp"

namespace slm::core {
namespace {

CampaignConfig small_cfg(SensorMode mode, std::size_t traces) {
  CampaignConfig cfg;
  cfg.mode = mode;
  cfg.traces = traces;
  cfg.selection_traces = 400;
  return cfg;
}

TEST(ThreadPoolTest, RunsEveryIndexAcrossWorkers) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> hits(100);
  for (int round = 0; round < 3; ++round) {
    pool.run_indexed(100, [&](std::size_t i) { ++hits[i]; });
  }
  for (const auto& h : hits) EXPECT_EQ(h.load(), 3);
}

TEST(ThreadPoolTest, RethrowsWorkerException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.run_indexed(8,
                                [](std::size_t i) {
                                  if (i == 5) throw slm::Error("boom");
                                }),
               slm::Error);
  // Pool stays usable after an exception.
  std::atomic<int> n{0};
  pool.run_indexed(4, [&](std::size_t) { ++n; });
  EXPECT_EQ(n.load(), 4);
}

// TSan-friendly smoke test: 4 workers, small budget, checkpointed.
TEST(ShardedCampaignTest, FourWorkerSmoke) {
  AttackSetup setup(BenignCircuit::kAlu, Calibration::paper_defaults());
  auto cfg = small_cfg(SensorMode::kTdcFull, 400);
  cfg.checkpoints = {100, 250, 400};
  const auto r = CpaCampaign(setup, cfg).run(4);
  EXPECT_EQ(r.threads_used, 4u);
  EXPECT_EQ(r.traces_run, 400u);
  ASSERT_EQ(r.progress.size(), 3u);
  EXPECT_EQ(r.progress[0].traces, 100u);
  EXPECT_EQ(r.progress[1].traces, 250u);
  EXPECT_EQ(r.progress[2].traces, 400u);
  EXPECT_EQ(r.final_max_abs_corr.size(), 256u);
  EXPECT_GT(r.capture_seconds, 0.0);
}

TEST(ShardedCampaignTest, ShardedRecoversKey) {
  AttackSetup setup(BenignCircuit::kAlu, Calibration::paper_defaults());
  const auto r =
      CpaCampaign(setup, small_cfg(SensorMode::kTdcFull, 4000)).run(4);
  EXPECT_TRUE(r.key_recovered);
  ASSERT_TRUE(r.mtd.disclosed());
}

TEST(ShardedCampaignTest, SameSeedSameThreadsIsDeterministic) {
  const auto cal = Calibration::paper_defaults();
  auto run_once = [&] {
    AttackSetup setup(BenignCircuit::kAlu, cal);
    return CpaCampaign(setup, small_cfg(SensorMode::kTdcFull, 600)).run(3);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.final_max_abs_corr, b.final_max_abs_corr);
  EXPECT_EQ(a.recovered_guess, b.recovered_guess);
  ASSERT_EQ(a.progress.size(), b.progress.size());
  for (std::size_t i = 0; i < a.progress.size(); ++i) {
    EXPECT_EQ(a.progress[i].traces, b.progress[i].traces);
    EXPECT_EQ(a.progress[i].max_abs_corr, b.progress[i].max_abs_corr);
  }
}

TEST(ShardedCampaignTest, MoreShardsThanTracesClamps) {
  AttackSetup setup(BenignCircuit::kAlu, Calibration::paper_defaults());
  const auto r =
      CpaCampaign(setup, small_cfg(SensorMode::kTdcFull, 3)).run(8);
  EXPECT_EQ(r.threads_used, 3u);
  EXPECT_EQ(r.traces_run, 3u);
}

// A borrowed pool fixes the shard count whatever `threads` asks for, and
// the shards it runs are the shards a private pool of that size runs.
TEST(ShardedCampaignTest, BorrowedPoolSetsShardCount) {
  const auto cal = Calibration::paper_defaults();
  auto cfg = small_cfg(SensorMode::kTdcFull, 500);
  cfg.checkpoints = {120, 300, 500};

  AttackSetup private_setup(BenignCircuit::kAlu, cal);
  const auto a = CpaCampaign(private_setup, cfg).run(3);

  ThreadPool pool(3);
  cfg.pool = &pool;
  AttackSetup pooled_setup(BenignCircuit::kAlu, cal);
  const auto b = CpaCampaign(pooled_setup, cfg).run(1);

  EXPECT_EQ(a.threads_used, 3u);
  EXPECT_EQ(b.threads_used, 3u);
  EXPECT_EQ(a.final_max_abs_corr, b.final_max_abs_corr);
  EXPECT_EQ(a.recovered_guess, b.recovered_guess);
  ASSERT_EQ(a.progress.size(), b.progress.size());
  for (std::size_t i = 0; i < a.progress.size(); ++i) {
    EXPECT_EQ(a.progress[i].traces, b.progress[i].traces);
    EXPECT_EQ(a.progress[i].max_abs_corr, b.progress[i].max_abs_corr);
  }
}

TEST(StealthyAttackThreads, KeyByteReportDeterministicPerSeedAndThreads) {
  auto run_once = [] {
    StealthyAttack attack(BenignCircuit::kAlu);
    return attack.recover_key_byte(3, 2000, SensorMode::kTdcFull, 2);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.recovered, b.recovered);
  EXPECT_EQ(a.true_value, b.true_value);
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.traces, b.traces);
  EXPECT_EQ(a.mtd.disclosed(), b.mtd.disclosed());
  if (a.mtd.disclosed()) {
    EXPECT_EQ(*a.mtd.traces, *b.mtd.traces);
  }
  EXPECT_EQ(a.threads_used, 2u);
}

TEST(StealthyAttackThreads, ShardedKeyByteRecovery) {
  StealthyAttack attack(BenignCircuit::kAlu);
  const auto r = attack.recover_key_byte(3, 4000, SensorMode::kTdcFull, 4);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.threads_used, 4u);
}

// The report names the shards that ran: a 3-trace budget clamps four
// requested threads to three shards, for the key and for every byte.
TEST(StealthyAttackThreads, FullKeyReportsShardsThatRan) {
  StealthyAttack attack(BenignCircuit::kAlu);
  const auto r = attack.recover_full_key(3, SensorMode::kTdcFull, 4);
  EXPECT_EQ(r.threads_used, 3u);
  ASSERT_EQ(r.bytes.size(), 16u);
  for (const KeyByteReport& b : r.bytes) EXPECT_EQ(b.threads_used, 3u);
}

TEST(StealthyAttackThreads, FullKeyMatchesAcrossThreadCounts) {
  // The shared capture stream depends on the seed alone, so the key is
  // identical for any thread count.
  auto run_with = [](unsigned threads) {
    StealthyAttack attack(BenignCircuit::kAlu);
    return attack.recover_full_key(600, SensorMode::kTdcFull, threads);
  };
  const auto a = run_with(2);
  const auto b = run_with(4);
  EXPECT_EQ(a.last_round_key, b.last_round_key);
  EXPECT_EQ(a.master_key, b.master_key);
  ASSERT_EQ(a.bytes.size(), 16u);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(a.bytes[i].recovered, b.bytes[i].recovered);
  }
}

}  // namespace
}  // namespace slm::core
