#include "core/campaign.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "common/dispatch.hpp"
#include "common/error.hpp"
#include "core/parallel.hpp"
#include "crypto/aes_datapath.hpp"
#include "reference_capture.hpp"
#include "store/replay.hpp"
#include "store/trace_store.hpp"

namespace slm::core {
namespace {

CampaignConfig small_cfg(SensorMode mode, std::size_t traces) {
  CampaignConfig cfg;
  cfg.mode = mode;
  cfg.traces = traces;
  cfg.selection_traces = 400;
  return cfg;
}

TEST(Campaign, SampleTimesOnSensorGridInsideWindow) {
  AttackSetup setup(BenignCircuit::kAlu, Calibration::paper_defaults());
  CampaignConfig cfg = small_cfg(SensorMode::kTdcFull, 10);
  cfg.window_start_ns = 400.0;
  cfg.window_end_ns = 460.0;
  CpaCampaign campaign(setup, cfg);
  const auto& times = campaign.sample_times_ns();
  ASSERT_FALSE(times.empty());
  const double ts = setup.calibration().sensor_sample_period_ns();
  for (double t : times) {
    EXPECT_GE(t, 400.0);
    EXPECT_LE(t, 460.0);
    // Each instant sits on the 150 MS/s grid.
    const double k = t / ts;
    EXPECT_NEAR(k, std::round(k), 1e-9);
  }
}

TEST(Campaign, CorrectGuessIsTrueRoundKeyByte) {
  AttackSetup setup(BenignCircuit::kAlu, Calibration::paper_defaults());
  CampaignConfig cfg = small_cfg(SensorMode::kTdcFull, 100);
  cfg.target_key_byte = 3;
  CpaCampaign campaign(setup, cfg);
  const auto result = campaign.run();
  EXPECT_EQ(result.correct_guess,
            setup.victim().cipher().last_round_key()[3]);
}

TEST(Campaign, ProgressCheckpointsRespectSchedule) {
  AttackSetup setup(BenignCircuit::kAlu, Calibration::paper_defaults());
  CampaignConfig cfg = small_cfg(SensorMode::kTdcFull, 1000);
  cfg.checkpoints = {100, 500, 1000};
  CpaCampaign campaign(setup, cfg);
  const auto result = campaign.run();
  ASSERT_EQ(result.progress.size(), 3u);
  EXPECT_EQ(result.progress[0].traces, 100u);
  EXPECT_EQ(result.progress[2].traces, 1000u);
  EXPECT_EQ(result.traces_run, 1000u);
  EXPECT_EQ(result.final_max_abs_corr.size(), 256u);
}

TEST(Campaign, TdcRecoversKeyQuickly) {
  AttackSetup setup(BenignCircuit::kAlu, Calibration::paper_defaults());
  CpaCampaign campaign(setup, small_cfg(SensorMode::kTdcFull, 4000));
  const auto result = campaign.run();
  EXPECT_TRUE(result.key_recovered);
  ASSERT_TRUE(result.mtd.disclosed());
  EXPECT_LE(*result.mtd.traces, 4000u);
}

TEST(Campaign, DeterministicPerSeed) {
  const auto cal = Calibration::paper_defaults();
  auto run_once = [&] {
    AttackSetup setup(BenignCircuit::kAlu, cal);
    CpaCampaign campaign(setup, small_cfg(SensorMode::kTdcFull, 500));
    return campaign.run();
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.final_max_abs_corr, b.final_max_abs_corr);
}

TEST(Campaign, SeedChangesTraces) {
  const auto cal = Calibration::paper_defaults();
  AttackSetup setup(BenignCircuit::kAlu, cal);
  auto cfg = small_cfg(SensorMode::kTdcFull, 500);
  CpaCampaign a(setup, cfg);
  const auto ra = a.run();
  cfg.seed ^= 1;
  CpaCampaign b(setup, cfg);
  const auto rb = b.run();
  EXPECT_NE(ra.final_max_abs_corr, rb.final_max_abs_corr);
}

TEST(Campaign, BitsOfInterestSelectedForHwMode) {
  AttackSetup setup(BenignCircuit::kAlu, Calibration::paper_defaults());
  CampaignConfig cfg = small_cfg(SensorMode::kBenignHw, 200);
  cfg.selection_traces = 600;
  cfg.selection_min_variance = 0.05;
  CpaCampaign campaign(setup, cfg);
  const auto result = campaign.run();
  EXPECT_FALSE(result.bits_of_interest.empty());
  EXPECT_LT(result.bits_of_interest.size(), setup.sensor_bits());
}

TEST(Campaign, TopKSelectionCaps) {
  AttackSetup setup(BenignCircuit::kAlu, Calibration::paper_defaults());
  CampaignConfig cfg = small_cfg(SensorMode::kBenignHw, 100);
  cfg.selection_min_variance = 0.01;
  cfg.selection_top_k = 3;
  CpaCampaign campaign(setup, cfg);
  const auto bits = campaign.select_bits_of_interest();
  EXPECT_EQ(bits.size(), 3u);
  EXPECT_TRUE(std::is_sorted(bits.begin(), bits.end()));
}

TEST(Campaign, AutoBitResolvesToSensitiveEndpoint) {
  AttackSetup setup(BenignCircuit::kAlu, Calibration::paper_defaults());
  CampaignConfig cfg = small_cfg(SensorMode::kBenignSingleBit, 100);
  cfg.single_bit = CampaignConfig::kAutoBit;
  cfg.selection_traces = 600;
  CpaCampaign campaign(setup, cfg);
  (void)campaign.run();
  EXPECT_LT(campaign.resolved_single_bit(), setup.sensor_bits());
}

void expect_matches_reference(const CampaignResult& r,
                              const reference::Result& ref,
                              const std::string& what) {
  ASSERT_EQ(r.traces_run, ref.traces_run) << what;
  EXPECT_EQ(r.recovered_guess, ref.recovered_guess) << what;
  EXPECT_EQ(r.bits_of_interest, ref.bits_of_interest) << what;
  EXPECT_EQ(r.single_bit, ref.single_bit) << what;
  ASSERT_EQ(r.final_max_abs_corr, ref.final_max_abs_corr) << what;
  ASSERT_EQ(r.progress.size(), ref.progress.size()) << what;
  for (std::size_t i = 0; i < r.progress.size(); ++i) {
    EXPECT_EQ(r.progress[i].traces, ref.progress[i].traces) << what;
    EXPECT_EQ(r.progress[i].max_abs_corr, ref.progress[i].max_abs_corr)
        << what;
    EXPECT_EQ(r.progress[i].correct_rank, ref.progress[i].correct_rank)
        << what;
  }
}

// The trace-block size only tiles the capture loop — every block size
// (block 1, ones that straddle checkpoints and leave ragged tails) and
// the forced-scalar kernel must reproduce the reference capture's
// per-trace loop bit for bit, in the blockable benign-HW mode, the TDC
// mode whose reads stay per-trace inside the block loop, and the
// batched single-bit benign mode.
TEST(Campaign, BlockSizeMatchesReferenceCapture) {
  const auto cal = Calibration::paper_defaults();
  for (const SensorMode mode :
       {SensorMode::kBenignHw, SensorMode::kTdcFull,
        SensorMode::kBenignSingleBit}) {
    CampaignConfig cfg = small_cfg(mode, 700);
    cfg.checkpoints = {100, 500, 700};  // 64 and 48 straddle both
    if (mode == SensorMode::kBenignSingleBit) {
      cfg.single_bit = CampaignConfig::kAutoBit;
    }
    AttackSetup ref_setup(BenignCircuit::kAlu, cal);
    const reference::Result ref = reference::capture(ref_setup, cfg);
    for (const std::size_t block : {1u, 5u, 48u, 64u, 1024u}) {
      for (const bool simd : {true, false}) {
        AttackSetup setup(BenignCircuit::kAlu, cal);
        cfg.block = block;
        cfg.simd = simd;
        const CampaignResult r = CpaCampaign(setup, cfg).run();
        EXPECT_EQ(r.block_size, block);
        expect_matches_reference(r, ref,
                                 std::string(sensor_mode_name(mode)) +
                                     " block " + std::to_string(block) +
                                     " simd " + std::to_string(simd));
      }
    }
  }
}

// The determinism contract: the seed alone pins the campaign. Results
// must match the reference capture bit for bit across ANY thread count,
// block size, and SIMD toggle, with and without the active fence.
TEST(Campaign, ThreadAndBlockInvariant) {
  const auto cal = Calibration::paper_defaults();
  auto cfg_for = [](SensorMode mode, std::size_t block, bool simd,
                    bool fence) {
    CampaignConfig cfg = small_cfg(mode, 700);
    cfg.checkpoints = {100, 500, 700};
    cfg.block = block;
    cfg.simd = simd;
    if (fence) cfg.fence.random_current_a = 0.02;
    return cfg;
  };
  auto run_once = [&](SensorMode mode, unsigned threads, std::size_t block,
                      bool simd, bool fence = false) {
    AttackSetup setup(BenignCircuit::kAlu, cal);
    CpaCampaign campaign(setup, cfg_for(mode, block, simd, fence));
    return campaign.run(threads);
  };
  auto reference_of = [&](SensorMode mode, bool fence) {
    AttackSetup setup(BenignCircuit::kAlu, cal);
    return reference::capture(setup, cfg_for(mode, 0, true, fence));
  };
  {
    const reference::Result ref = reference_of(SensorMode::kBenignHw, false);
    for (const unsigned threads : {1u, 2u, 4u}) {
      for (const std::size_t block : {1u, 48u, 64u}) {
        expect_matches_reference(
            run_once(SensorMode::kBenignHw, threads, block, true), ref,
            "hw threads " + std::to_string(threads) + " block " +
                std::to_string(block));
      }
    }
    // The SIMD toggle is also inside the contract.
    expect_matches_reference(run_once(SensorMode::kBenignHw, 3, 64, false),
                             ref, "hw scalar");
  }
  {
    // With the active fence on, the fence's per-trace streams are part
    // of the contract too.
    const reference::Result ref = reference_of(SensorMode::kBenignHw, true);
    expect_matches_reference(run_once(SensorMode::kBenignHw, 1, 64, true, true),
                             ref, "fenced hw block 64");
    expect_matches_reference(run_once(SensorMode::kBenignHw, 3, 48, true, true),
                             ref, "fenced hw threads 3 block 48");
  }
  {
    const reference::Result ref = reference_of(SensorMode::kTdcFull, false);
    for (const unsigned threads : {1u, 2u, 4u}) {
      expect_matches_reference(
          run_once(SensorMode::kTdcFull, threads, 64, true), ref,
          "tdc threads " + std::to_string(threads));
    }
  }
  // Every sensor mode reads the capture block's lane draws, and the fence
  // is absent, constant (its draws are skipped) or randomised: each
  // combination matches the per-trace reference at every runnable
  // dispatch level, and with the SIMD toggle off.
  struct FenceCase {
    const char* name;
    double base;
    double random;
  };
  const double default_base = defense::ActiveFenceConfig{}.base_current_a;
  const FenceCase fences[] = {{"no fence", 0.0, 0.0},
                              {"default fence", default_base, 0.0},
                              {"constant fence 0.3", 0.3, 0.0},
                              {"random fence", default_base, 0.02}};
  std::vector<DispatchLevel> levels{DispatchLevel::kScalar};
  if (detect_dispatch() >= DispatchLevel::kSse2) {
    levels.push_back(DispatchLevel::kSse2);
  }
  if (detect_dispatch() >= DispatchLevel::kAvx2) {
    levels.push_back(DispatchLevel::kAvx2);
  }
  // A TDC stage just below the idle depth flips with the victim's load.
  const std::size_t tdc_bit = static_cast<std::size_t>(
      AttackSetup(BenignCircuit::kAlu, cal).tdc().idle_depth() - 1.0);
  for (const SensorMode mode :
       {SensorMode::kBenignHw, SensorMode::kBenignSingleBit,
        SensorMode::kTdcFull, SensorMode::kTdcSingleBit,
        SensorMode::kRoCounter}) {
    for (const FenceCase& fc : fences) {
      auto cfg_of = [&](std::size_t block, bool simd) {
        CampaignConfig cfg = cfg_for(mode, block, simd, false);
        cfg.fence.base_current_a = fc.base;
        cfg.fence.random_current_a = fc.random;
        if (mode == SensorMode::kBenignSingleBit) {
          cfg.single_bit = CampaignConfig::kAutoBit;
        } else if (mode == SensorMode::kTdcSingleBit) {
          cfg.single_bit = tdc_bit;
        }
        return cfg;
      };
      AttackSetup ref_setup(BenignCircuit::kAlu, cal);
      const reference::Result ref =
          reference::capture(ref_setup, cfg_of(0, true));
      const std::string what =
          std::string(sensor_mode_name(mode)) + " " + fc.name;
      for (const DispatchLevel level : levels) {
        force_dispatch_for_testing(level);
        AttackSetup setup(BenignCircuit::kAlu, cal);
        expect_matches_reference(
            CpaCampaign(setup, cfg_of(61, true)).run(2), ref,
            what + " " + dispatch_level_name(level));
        clear_forced_dispatch_for_testing();
      }
      AttackSetup setup(BenignCircuit::kAlu, cal);
      expect_matches_reference(
          CpaCampaign(setup, cfg_of(64, false)).run(3), ref,
          what + " simd off");
    }
  }
}

// The victim's levels write the same store bytes: a campaign forced onto
// the portable victim (SLM_SIMD=scalar's dispatch level) against one at
// the default level, over two shards whose chunks end in partial blocks,
// so the AES-NI level's four-lane body and one-trace tail both run.
TEST(Campaign, PortableVictimWritesTheDefaultStoreBytes) {
  const auto cal = Calibration::paper_defaults();
  auto capture = [&](const std::string& name) {
    const std::string path = ::testing::TempDir() + name;
    std::filesystem::remove(path);
    CampaignConfig cfg = small_cfg(SensorMode::kBenignHw, 301);
    cfg.store_out = path;
    AttackSetup setup(BenignCircuit::kAlu, cal);
    (void)CpaCampaign(setup, cfg).run(2);
    std::ifstream in(path, std::ios::binary);
    std::string bytes{std::istreambuf_iterator<char>(in),
                      std::istreambuf_iterator<char>()};
    std::filesystem::remove(path);
    return bytes;
  };
  const std::string by_default = capture("victim_default.trc");
  force_dispatch_for_testing(DispatchLevel::kScalar);
  EXPECT_EQ(crypto::AesDatapathModel::active_level(),
            crypto::AesDatapathModel::Level::kPortable);
  const std::string portable = capture("victim_portable.trc");
  clear_forced_dispatch_for_testing();
  ASSERT_FALSE(by_default.empty());
  EXPECT_TRUE(by_default == portable)
      << "store sizes " << by_default.size() << " / " << portable.size();
}

TEST(Campaign, ContractResolution) {
  EXPECT_EQ(resolve_contract(RngContract::kDefault), RngContract::kV2);
  EXPECT_EQ(resolve_contract(RngContract::kV2), RngContract::kV2);
  // The retired sequential-stream contract is refused, by name.
  try {
    (void)resolve_contract(RngContract::kV1);
    FAIL() << "expected contract v1 to be refused";
  } catch (const slm::Error& e) {
    EXPECT_NE(std::string(e.what()).find("v1"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("retired"), std::string::npos);
  }
  EXPECT_STREQ(rng_contract_name(RngContract::kV1), "v1");
  EXPECT_STREQ(rng_contract_name(RngContract::kV2), "v2");

  AttackSetup setup(BenignCircuit::kAlu, Calibration::paper_defaults());
  CampaignConfig cfg = small_cfg(SensorMode::kTdcFull, 100);
  cfg.rng_contract = RngContract::kV1;
  EXPECT_THROW((void)CpaCampaign(setup, cfg).run(), slm::Error);
}

TEST(Campaign, BlockResolutionPrecedence) {
  // Explicit request wins; 0 falls back to the default (the SLM_BLOCK
  // env override is exercised by the CLI smoke, not here, to keep the
  // test environment-independent).
  EXPECT_EQ(resolve_block(7), 7u);
  if (std::getenv("SLM_BLOCK") == nullptr) {
    EXPECT_EQ(resolve_block(0), kDefaultBlockTraces);
  }
  EXPECT_FALSE(resolve_simd(false));
}

TEST(Campaign, ResultReportsEffectiveBlock) {
  AttackSetup setup(BenignCircuit::kAlu, Calibration::paper_defaults());
  CampaignConfig cfg = small_cfg(SensorMode::kTdcFull, 50);
  cfg.block = 5;
  CpaCampaign campaign(setup, cfg);
  EXPECT_EQ(campaign.run().block_size, 5u);
}

TEST(Campaign, Validation) {
  AttackSetup setup(BenignCircuit::kAlu, Calibration::paper_defaults());
  CampaignConfig cfg = small_cfg(SensorMode::kTdcFull, 0);
  EXPECT_THROW(CpaCampaign campaign(setup, cfg), slm::Error);
  cfg = small_cfg(SensorMode::kTdcFull, 10);
  cfg.window_start_ns = 100.0;
  cfg.window_end_ns = 50.0;
  EXPECT_THROW(CpaCampaign campaign(setup, cfg), slm::Error);
  cfg = small_cfg(SensorMode::kBenignSingleBit, 10);
  cfg.single_bit = 9999;
  CpaCampaign campaign(setup, cfg);
  EXPECT_THROW((void)campaign.run(), slm::Error);
}

TEST(DefaultCheckpoints, CoverAndTerminate) {
  const auto cps = default_checkpoints(500000);
  ASSERT_FALSE(cps.empty());
  EXPECT_EQ(cps.back(), 500000u);
  EXPECT_TRUE(std::is_sorted(cps.begin(), cps.end()));
  const auto small = default_checkpoints(50);
  ASSERT_EQ(small.back(), 50u);
}

// checkpoint_schedule is the one schedule rule: sort, drop 0 and
// anything above the budget, always end at the budget.
TEST(CheckpointSchedule, NormalizesEveryRequest) {
  struct Case {
    std::vector<std::size_t> requested;
    std::size_t traces;
    std::vector<std::size_t> want;
  };
  const Case cases[] = {
      {{100, 200, 300}, 300, {100, 200, 300}},
      {{300, 100, 200}, 300, {100, 200, 300}},
      {{100}, 300, {100, 300}},
      {{0, 100}, 300, {100, 300}},
      {{100, 500}, 300, {100, 300}},
      {{500}, 300, {300}},
      {{100, 100, 300}, 300, {100, 100, 300}},
      {{}, 150, {100, 150}},
      {{}, 50, {50}},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(checkpoint_schedule(c.requested, c.traces), c.want)
        << "traces " << c.traces;
  }
}

// A schedule that leaves out the budget: one shard, three shards and
// store replay fold at the same points to the same values, and a halt
// between checkpoints lands on the next one — the budget — with a
// snapshot there.
TEST(CheckpointSchedule, EnginesAgreeOnAScheduleWithoutTheBudget) {
  const auto cal = Calibration::paper_defaults();
  CampaignConfig cfg = small_cfg(SensorMode::kTdcFull, 300);
  cfg.checkpoints = {100};
  const std::string store_path = ::testing::TempDir() + "schedule.trc";
  std::filesystem::remove(store_path);
  std::vector<std::vector<sca::CpaProgressPoint>> runs;
  for (const unsigned threads : {1u, 3u}) {
    CampaignConfig c = cfg;
    if (threads == 1) c.store_out = store_path;
    AttackSetup setup(BenignCircuit::kAlu, cal);
    runs.push_back(CpaCampaign(setup, c).run(threads).progress);
  }
  {
    const store::TraceStoreReader reader(store_path);
    AttackSetup setup(BenignCircuit::kAlu, cal);
    store::ReplayAllOptions attack_only;
    attack_only.fullkey = false;
    attack_only.tvla = false;
    runs.push_back(store::replay_all(reader,
                                     checkpoint_schedule(cfg.checkpoints,
                                                         cfg.traces),
                                     setup.victim().cipher().last_round_key(),
                                     attack_only)
                       .attack.progress);
  }
  std::filesystem::remove(store_path);
  for (const auto& progress : runs) {
    ASSERT_EQ(progress.size(), 2u);
    EXPECT_EQ(progress[0].traces, 100u);
    EXPECT_EQ(progress[1].traces, 300u);
    for (std::size_t i = 0; i < progress.size(); ++i) {
      EXPECT_EQ(progress[i].max_abs_corr, runs[0][i].max_abs_corr);
    }
  }

  for (const unsigned threads : {1u, 3u}) {
    CampaignConfig halting = cfg;
    halting.checkpoint_dir = ::testing::TempDir() + "schedule_halt_" +
                             std::to_string(threads);
    halting.halt_after_traces = 250;
    AttackSetup setup(BenignCircuit::kAlu, cal);
    try {
      (void)CpaCampaign(setup, halting).run(threads);
      ADD_FAILURE() << "expected CampaignHalted";
    } catch (const CampaignHalted& halted) {
      EXPECT_EQ(halted.traces(), 300u) << threads << " thread(s)";
    }
  }
}

// ---------------------------------------------------------------------
// The pre-passes run on the engine's trace ranges: the selection pass,
// the TDC auto-stage probe and TVLA give the same result at any shard
// count, on a borrowed pool, and on a setup with any history.
// ---------------------------------------------------------------------

struct PrePassOutcome {
  std::vector<std::size_t> bits;      // benign-HW bits of interest
  std::vector<double> variances;      // the selection pass's statistics
  std::size_t endpoint = 0;           // benign single-bit auto endpoint
  std::size_t stage = 0;              // TDC auto stage
  std::vector<double> tvla_t;         // fenced benign-HW TVLA t-values
  std::size_t tvla_fixed = 0;
  std::size_t tvla_random = 0;
};

PrePassOutcome run_prepasses(AttackSetup& setup, unsigned threads,
                             ThreadPool* pool, const std::string& store) {
  PrePassOutcome out;
  CampaignConfig hw = small_cfg(SensorMode::kBenignHw, 64);
  hw.pool = pool;
  out.bits = CpaCampaign(setup, hw).run(threads).bits_of_interest;
  out.variances = CpaCampaign(setup, hw).run_selection_pass(threads).variances();
  CampaignConfig bit = small_cfg(SensorMode::kBenignSingleBit, 64);
  bit.single_bit = CampaignConfig::kAutoBit;
  bit.pool = pool;
  out.endpoint = CpaCampaign(setup, bit).run(threads).single_bit;
  CampaignConfig tdc = small_cfg(SensorMode::kTdcSingleBit, 64);
  tdc.single_bit = CampaignConfig::kAutoBit;
  tdc.pool = pool;
  out.stage = CpaCampaign(setup, tdc).run(threads).single_bit;
  CampaignConfig tv = small_cfg(SensorMode::kBenignHw, 64);
  tv.fence.random_current_a = 0.02;
  tv.store_out = store;
  tv.pool = pool;
  // 302 traces: shard chunks of odd length start on odd trace indices.
  const sca::WelchTTest t = CpaCampaign(setup, tv).run_tvla(151, threads);
  for (std::size_t s = 0; s < t.sample_count(); ++s) {
    out.tvla_t.push_back(t.t_statistic(s));
  }
  out.tvla_fixed = t.fixed_traces();
  out.tvla_random = t.random_traces();
  return out;
}

void expect_same_prepasses(const PrePassOutcome& a, const PrePassOutcome& b) {
  EXPECT_EQ(a.bits, b.bits);
  EXPECT_EQ(a.variances, b.variances);
  EXPECT_EQ(a.endpoint, b.endpoint);
  EXPECT_EQ(a.stage, b.stage);
  EXPECT_EQ(a.tvla_t, b.tvla_t);
  EXPECT_EQ(a.tvla_fixed, b.tvla_fixed);
  EXPECT_EQ(a.tvla_random, b.tvla_random);
}

// Every column and identity field of two stores (the capture_threads
// header field is informational and may differ).
void expect_same_store_columns(const std::string& a_path,
                               const std::string& b_path) {
  const store::TraceStoreReader a(a_path);
  const store::TraceStoreReader b(b_path);
  ASSERT_EQ(a.trace_count(), b.trace_count());
  ASSERT_EQ(a.samples(), b.samples());
  EXPECT_EQ(a.identity(), b.identity());
  EXPECT_EQ(a.resolved_single_bit(), b.resolved_single_bit());
  EXPECT_EQ(std::memcmp(a.readings(0), b.readings(0),
                        a.trace_count() * a.samples() * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(a.plaintext_ptr(0), b.plaintext_ptr(0),
                        a.trace_count() * 16),
            0);
  EXPECT_EQ(std::memcmp(a.ciphertext_ptr(0), b.ciphertext_ptr(0),
                        a.trace_count() * 16),
            0);
}

TEST(PrePass, SameAtAnyShardCountAndOnABorrowedPool) {
  const std::string dir = ::testing::TempDir() + "prepass_shards/";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  AttackSetup s1(BenignCircuit::kAlu, Calibration::paper_defaults());
  const PrePassOutcome one = run_prepasses(s1, 1, nullptr, dir + "1.trc");
  ASSERT_FALSE(one.bits.empty());
  EXPECT_EQ(one.tvla_fixed, 151u);
  EXPECT_EQ(one.tvla_random, 151u);

  AttackSetup s3(BenignCircuit::kAlu, Calibration::paper_defaults());
  const PrePassOutcome three = run_prepasses(s3, 3, nullptr, dir + "3.trc");
  expect_same_prepasses(three, one);
  expect_same_store_columns(dir + "3.trc", dir + "1.trc");

  ThreadPool pool(2);
  AttackSetup sp(BenignCircuit::kAlu, Calibration::paper_defaults());
  const PrePassOutcome pooled = run_prepasses(sp, 0, &pool, dir + "p.trc");
  expect_same_prepasses(pooled, one);
  expect_same_store_columns(dir + "p.trc", dir + "1.trc");

  // The TVLA store interleaves the populations: even traces encrypt the
  // fixed plaintext, odd ones their own draw.
  const store::TraceStoreReader tvla(dir + "1.trc");
  const crypto::Block fixed =
      crypto::block_from_hex("da39a3ee5e6b4b0d3255bfef95601890");
  EXPECT_EQ(tvla.plaintext(0), fixed);
  EXPECT_EQ(tvla.plaintext(300), fixed);
  EXPECT_NE(tvla.plaintext(1), fixed);
  EXPECT_NE(tvla.plaintext(1), tvla.plaintext(3));
  std::filesystem::remove_all(dir);
}

TEST(PrePass, SetupHistoryDoesNotMatter) {
  // A pre-pass reads no state a campaign, a TVLA or the stateful victim
  // leaves on the setup, so one on a used setup equals one on a fresh
  // setup.
  const std::string dir = ::testing::TempDir() + "prepass_history/";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  AttackSetup fresh(BenignCircuit::kAlu, Calibration::paper_defaults());
  const PrePassOutcome ref = run_prepasses(fresh, 1, nullptr, dir + "f.trc");

  AttackSetup used(BenignCircuit::kAlu, Calibration::paper_defaults());
  CampaignConfig fenced = small_cfg(SensorMode::kBenignHw, 200);
  fenced.seed = 99;
  fenced.fence.random_current_a = 0.02;
  (void)CpaCampaign(used, fenced).run(2);
  (void)CpaCampaign(used, fenced).run_tvla(40);
  (void)used.victim().encrypt(crypto::Block{});
  const PrePassOutcome again = run_prepasses(used, 1, nullptr, dir + "u.trc");
  expect_same_prepasses(again, ref);
  expect_same_store_columns(dir + "u.trc", dir + "f.trc");
  std::filesystem::remove_all(dir);
}

TEST(PrePass, TdcStageProbeCountsStageZero) {
  // At an operating depth below a stage, a 0 reading mixes a firing
  // stage 0 (noisy depth in (0, 1)) with a silent one (clamped from
  // below 0). The probe still measures stage 0's own firing rate, so it
  // picks the stage whose rate sits closest to 1/2. With 0.5 stages of
  // noise that is stage 0 at depth 0.4 (rate ~0.79, stage 1's ~0.12; a
  // probe that took stage 0 as always firing picks stage 1), and stage
  // 1 at depth 1.4.
  for (const auto& [depth, stage] :
       {std::pair<double, std::size_t>{0.4, 0}, {1.4, 1}}) {
    Calibration cal = Calibration::paper_defaults();
    cal.tdc.window_ns = depth * cal.tdc.stage_delay_ns;
    cal.tdc.noise_lsb = 0.5;
    AttackSetup setup(BenignCircuit::kAlu, cal);
    CampaignConfig cfg = small_cfg(SensorMode::kTdcSingleBit, 16);
    cfg.single_bit = CampaignConfig::kAutoBit;
    EXPECT_EQ(CpaCampaign(setup, cfg).run().single_bit, stage)
        << "depth " << depth;
  }
}

TEST(SensorModeNames, AllDistinct) {
  EXPECT_STREQ(sensor_mode_name(SensorMode::kTdcFull), "tdc-full");
  EXPECT_STREQ(sensor_mode_name(SensorMode::kBenignHw), "benign-hw");
  EXPECT_STREQ(sensor_mode_name(SensorMode::kBenignSingleBit),
               "benign-single-bit");
}

}  // namespace
}  // namespace slm::core
