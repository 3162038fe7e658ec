// The paper's outcomes, asserted as trace-count bands rather than only
// as pinned bytes. The bands come from the reproduced disclosure points
// in EXPERIMENTS.md; a change that keeps every byte pin but moves a
// figure's disclosure point out of its band fails here.
//
// Fig. 10: CPA through the overclocked benign ALU in Hamming-weight mode
// recovers last-round key byte 3 at ~50k traces (paper: ~150k). The
// capture is also written to a trace store and replayed through
// store::replay_all, whose 4096-trace chunks take the int32 class-tile
// path of XorClassCpa::add_block (sca/cpa.cpp): the replay must name the
// same winner at the same MTD as the live run.
//
// Figs. 12–13: CPA through one ALU path endpoint recovers the byte at
// ~200k traces (paper: ~200k for its bit 21, ~150k for its alternate
// bit 6). Fig. 12 attacks the highest-variance endpoint the selection
// pre-pass picks (bit 118 here), Fig. 13 the runner-up (bit 120); both
// are among the benign-HW bits of interest.
//
// Fig. 18: CPA through one C6288 path endpoint (the highest-variance one,
// picked by the selection pre-pass) recovers the byte at ~20k traces on
// this model, and needs no more traces than the Hamming weight of the
// top-12 variance bits (paper: ~100k vs ~200k).
#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/attack.hpp"
#include "core/campaign.hpp"
#include "core/parallel.hpp"
#include "store/replay.hpp"
#include "store/trace_store.hpp"

namespace slm::core {
namespace {

TEST(PaperOutcomes, Fig10BenignHwAluDisclosesByte3Near50k) {
  constexpr std::size_t kKeyByte = 3;
  constexpr std::size_t kTraces = 100000;
  const std::string path = ::testing::TempDir() + "fig10_alu_hw.trc";
  std::filesystem::remove(path);

  StealthyAttack attack(BenignCircuit::kAlu, Calibration::paper_defaults(),
                        0x51);
  RunOptions ro;
  ro.store_out = path;
  const KeyByteReport live =
      attack.recover_key_byte(kKeyByte, kTraces, SensorMode::kBenignHw, 2, ro);
  ASSERT_TRUE(live.success) << "recovered 0x" << std::hex
                            << int(live.recovered) << ", true 0x"
                            << int(live.true_value);
  ASSERT_TRUE(live.mtd.disclosed());
  // EXPERIMENTS.md: disclosed at ~50k traces. The band allows a factor
  // of two either way and still separates the benign sensor from the
  // TDC, which discloses within ~2k.
  EXPECT_GE(*live.mtd.traces, 25000u);
  EXPECT_LE(*live.mtd.traces, 100000u);

  const std::vector<std::size_t> checkpoints = checkpoint_schedule(
      attack.byte_campaign_config(kKeyByte, kTraces, SensorMode::kBenignHw)
          .checkpoints,
      kTraces);
  const store::TraceStoreReader reader(path);
  ASSERT_EQ(reader.trace_count(), kTraces);
  store::ReplayAllOptions attack_only;
  attack_only.fullkey = false;
  attack_only.tvla = false;
  const store::ReplayAttackResult replay =
      store::replay_all(reader, checkpoints,
                        attack.setup().victim().cipher().last_round_key(),
                        attack_only)
          .attack;
  EXPECT_TRUE(replay.key_recovered);
  EXPECT_EQ(replay.recovered_guess, live.recovered);
  ASSERT_TRUE(replay.mtd.disclosed());
  EXPECT_EQ(*replay.mtd.traces, *live.mtd.traces);
  std::filesystem::remove(path);
}

// The bench_fig12_cpa_alu_bit21 and bench_fig13_cpa_alu_bit6
// configurations at a 300k budget, on 2 threads and one setup.
TEST(PaperOutcomes, Figs12And13SingleAluEndpointsDiscloseNear200k) {
  constexpr std::size_t kTraces = 300000;
  AttackSetup setup(BenignCircuit::kAlu, Calibration::paper_defaults());
  CampaignConfig cfg;
  cfg.mode = SensorMode::kBenignSingleBit;
  cfg.single_bit = CampaignConfig::kAutoBit;
  cfg.traces = kTraces;
  const sca::BitSelector selector = CpaCampaign(setup, cfg).run_selection_pass(2);
  std::vector<std::size_t> order(setup.sensor_bits());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return selector.stat(a).variance > selector.stat(b).variance;
                   });
  CampaignConfig hw = cfg;
  hw.mode = SensorMode::kBenignHw;
  const std::vector<std::size_t> bits =
      CpaCampaign(setup, hw).select_bits_of_interest(2);

  const CampaignResult fig12 = CpaCampaign(setup, cfg).run(2);
  EXPECT_EQ(fig12.single_bit, order[0]);
  CampaignConfig alternate = cfg;
  alternate.single_bit = order[1];
  const CampaignResult fig13 = CpaCampaign(setup, alternate).run(2);
  for (const CampaignResult* r : {&fig12, &fig13}) {
    SCOPED_TRACE("endpoint bit " + std::to_string(r->single_bit));
    EXPECT_NE(std::find(bits.begin(), bits.end(), r->single_bit), bits.end());
    ASSERT_TRUE(r->key_recovered);
    ASSERT_TRUE(r->mtd.disclosed());
    // Reproduced at ~250k (Fig. 12) and ~200k (Fig. 13); the band stays
    // far above the TDC's ~2k and the benign HW's ~50k.
    EXPECT_GE(*r->mtd.traces, 100000u);
    EXPECT_LE(*r->mtd.traces, kTraces);
  }
}

// The bench_fig18_cpa_c6288_bit28 configurations, on 2 threads.
TEST(PaperOutcomes, Fig18SingleC6288EndpointBeatsCombinedHw) {
  constexpr std::size_t kTraces = 500000;
  // One setup for both campaigns: a pre-pass reads no state an earlier
  // campaign leaves behind.
  AttackSetup setup(BenignCircuit::kC6288x2, Calibration::paper_defaults());
  CampaignConfig single;
  single.mode = SensorMode::kBenignSingleBit;
  single.single_bit = CampaignConfig::kAutoBit;
  single.traces = kTraces;
  const CampaignResult bit = CpaCampaign(setup, single).run(2);
  ASSERT_TRUE(bit.key_recovered) << "endpoint bit " << bit.single_bit;
  ASSERT_TRUE(bit.mtd.disclosed());
  // Reproduced at ~20k (bit 60); the band allows a factor of two below
  // and five above, and stays far above the TDC's ~2k.
  EXPECT_GE(*bit.mtd.traces, 10000u);
  EXPECT_LE(*bit.mtd.traces, 100000u);

  CampaignConfig hw;
  hw.mode = SensorMode::kBenignHw;
  hw.traces = kTraces;
  hw.selection_top_k = 12;
  const CampaignResult combined = CpaCampaign(setup, hw).run(2);
  // A combined HW that never stably discloses within the budget needs
  // more than the whole budget.
  const std::size_t hw_traces =
      combined.mtd.disclosed() ? *combined.mtd.traces : kTraces + 1;
  EXPECT_LE(*bit.mtd.traces, hw_traces);
}

}  // namespace
}  // namespace slm::core
