// core::SetupMemo: every key field is part of the key, the table stays
// bounded, and a campaign that hits the memo reports byte-identical
// results to one that recomputes. The pre-pass is a pure function of
// the config, so its key holds no victim or fence state and a hit
// restores none.
#include "core/setup_memo.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "core/attack.hpp"
#include "obs/observer.hpp"

namespace slm::core {
namespace {

constexpr const char* kHits = "slm.campaign.setup_memo_hits_total";
constexpr const char* kMisses = "slm.campaign.setup_memo_misses_total";

SensorBitsKey base_key() {
  SensorBitsKey key;
  key.circuit = BenignCircuit::kAlu;
  key.cal = Calibration::paper_defaults();
  key.platform_seed = 0x51;
  key.mode = SensorMode::kBenignHw;
  key.single_bit = 0;
  key.seed = 7;
  key.selection_traces = 4000;
  key.selection_min_variance = 0.15;
  key.selection_top_k = 0;
  key.sample_times_ns = {400.0, 406.0, 413.0};
  return key;
}

SensorBits some_bits() {
  SensorBits v;
  v.bits = {3, 5, 8};
  v.single_bit = 9;
  return v;
}

TEST(SetupMemo, EverySensorBitsKeyFieldIsPartOfTheKey) {
  using Mutation = std::function<void(SensorBitsKey&)>;
  const std::vector<std::pair<const char*, Mutation>> mutations = {
      {"circuit", [](auto& k) { k.circuit = BenignCircuit::kC6288x2; }},
      {"cal.benign_design_mhz", [](auto& k) { k.cal.benign_design_mhz += 1; }},
      {"cal.overclock_mhz", [](auto& k) { k.cal.overclock_mhz += 1; }},
      {"cal.aes_clock_mhz", [](auto& k) { k.cal.aes_clock_mhz += 1; }},
      {"cal.sensor_sample_mhz", [](auto& k) { k.cal.sensor_sample_mhz += 1; }},
      {"cal.delay", [](auto& k) { k.cal.delay.sensitivity_per_volt += 0.1; }},
      {"cal.pdn", [](auto& k) { k.cal.pdn.l_h *= 2.0; }},
      {"cal.ro_grid", [](auto& k) { k.cal.ro_grid.ro_count += 1; }},
      {"cal.aes.masked", [](auto& k) { k.cal.aes.masked = true; }},
      {"cal.aes.mask_seed", [](auto& k) { k.cal.aes.mask_seed += 1; }},
      {"cal.aes.current", [](auto& k) { k.cal.aes.current_per_hd_a *= 2; }},
      {"cal.tdc", [](auto& k) { k.cal.tdc.stages += 1; }},
      {"cal.tdc.delay", [](auto& k) { k.cal.tdc.delay.vnom += 0.01; }},
      {"cal.ro_sensor", [](auto& k) { k.cal.ro_sensor.inverter_stages += 2; }},
      {"cal.capture", [](auto& k) { k.cal.capture.jitter_sigma_ns += 0.01; }},
      {"cal.capture.delay", [](auto& k) { k.cal.capture.delay.vnom += 0.01; }},
      {"cal.alu", [](auto& k) { k.cal.alu.mux_delay_ns += 0.01; }},
      {"cal.alu.adder",
       [](auto& k) { k.cal.alu.adder.carry_stage_delay_ns += 0.001; }},
      {"cal.c6288", [](auto& k) { k.cal.c6288.nor_delay_ns += 0.001; }},
      {"cal.env_noise_v", [](auto& k) { k.cal.env_noise_v *= 2; }},
      {"cal.coupling", [](auto& k) { k.cal.coupling *= 0.5; }},
      {"cal.alu_coupling", [](auto& k) { k.cal.alu_coupling *= 0.5; }},
      {"cal.c6288_coupling", [](auto& k) { k.cal.c6288_coupling *= 0.5; }},
      {"cal.ro_v_min", [](auto& k) { k.cal.ro_v_min += 0.01; }},
      {"cal.ro_v_max", [](auto& k) { k.cal.ro_v_max += 0.01; }},
      {"platform_seed", [](auto& k) { k.platform_seed += 1; }},
      {"mode", [](auto& k) { k.mode = SensorMode::kBenignSingleBit; }},
      {"single_bit", [](auto& k) { k.single_bit = CampaignConfig::kAutoBit; }},
      {"seed", [](auto& k) { k.seed += 1; }},
      {"selection_traces", [](auto& k) { k.selection_traces += 1; }},
      {"selection_min_variance",
       [](auto& k) { k.selection_min_variance += 0.01; }},
      {"selection_top_k", [](auto& k) { k.selection_top_k = 12; }},
      {"sample_times", [](auto& k) { k.sample_times_ns.push_back(420.0); }},
      {"sample_time_value", [](auto& k) { k.sample_times_ns[1] += 0.5; }},
      {"fence.base", [](auto& k) { k.fence.base_current_a += 0.01; }},
      {"fence.random", [](auto& k) { k.fence.random_current_a = 0.02; }},
      {"fence.seed", [](auto& k) { k.fence.seed += 1; }},
  };
  SetupMemo memo;
  memo.insert(base_key(), some_bits());
  ASSERT_TRUE(memo.find(base_key()).has_value());
  for (const auto& [name, mutate] : mutations) {
    SensorBitsKey key = base_key();
    mutate(key);
    EXPECT_FALSE(memo.find(key).has_value()) << name;
  }
}

TEST(SetupMemo, EveryResponseKeyFieldIsPartOfTheKey) {
  const ResponseKey base{pdn::PdnConfig{}, {400.0, 406.0}, {0.0, 10.0}, 10.0};
  SetupMemo memo;
  memo.insert(base, pdn::CycleResponseMatrix{});
  ASSERT_TRUE(memo.find(base).has_value());
  std::vector<ResponseKey> variants(5, base);
  variants[0].pdn.c_f *= 2.0;
  variants[1].pdn.idle_current_a += 0.1;
  variants[2].sample_times_ns[1] += 1.0;
  variants[3].cycle_starts_ns.push_back(20.0);
  variants[4].cycle_len_ns = 5.0;
  for (std::size_t i = 0; i < variants.size(); ++i) {
    EXPECT_FALSE(memo.find(variants[i]).has_value()) << i;
  }
}

TEST(SetupMemo, BoundedTablesEvictTheOldestEntry) {
  SetupMemo memo;
  for (std::size_t i = 0; i <= SetupMemo::kCapacity; ++i) {
    SensorBitsKey key = base_key();
    key.seed = i;
    memo.insert(key, some_bits());
  }
  EXPECT_EQ(memo.size(), SetupMemo::kCapacity);
  SensorBitsKey oldest = base_key();
  oldest.seed = 0;
  EXPECT_FALSE(memo.find(oldest).has_value());
  SensorBitsKey newest = base_key();
  newest.seed = SetupMemo::kCapacity;
  ASSERT_TRUE(memo.find(newest).has_value());

  // A key already present keeps its first value.
  SensorBits other = some_bits();
  other.single_bit = 1;
  memo.insert(newest, other);
  EXPECT_EQ(memo.find(newest)->single_bit, some_bits().single_bit);
  EXPECT_EQ(memo.size(), SetupMemo::kCapacity);
}

// ---------------------------------------------------------------------
// Campaigns with and without a memo
// ---------------------------------------------------------------------

void expect_same(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.bits_of_interest, b.bits_of_interest);
  EXPECT_EQ(a.single_bit, b.single_bit);
  EXPECT_EQ(a.sample_times_ns, b.sample_times_ns);
  EXPECT_EQ(a.recovered_guess, b.recovered_guess);
  EXPECT_EQ(a.final_max_abs_corr, b.final_max_abs_corr);
  EXPECT_EQ(a.mtd.traces, b.mtd.traces);
  EXPECT_EQ(a.mtd.final_margin, b.mtd.final_margin);
  ASSERT_EQ(a.progress.size(), b.progress.size());
  for (std::size_t i = 0; i < a.progress.size(); ++i) {
    EXPECT_EQ(a.progress[i].traces, b.progress[i].traces);
    EXPECT_EQ(a.progress[i].max_abs_corr, b.progress[i].max_abs_corr);
  }
}

// Byte campaigns `bytes`, in order, on one fresh StealthyAttack.
struct Sequence {
  std::vector<CampaignResult> results;
  double hits = 0.0;
  double misses = 0.0;
};

Sequence run_sequence(const Calibration& cal, SensorMode mode,
                      const std::vector<std::size_t>& bytes,
                      std::size_t traces, SetupMemo* memo) {
  StealthyAttack attack(BenignCircuit::kAlu, cal);
  obs::CampaignObserver ob;
  Sequence s;
  for (std::size_t b : bytes) {
    CampaignConfig cfg = attack.byte_campaign_config(b, traces, mode);
    cfg.selection_traces = 1500;
    cfg.observer = &ob;
    cfg.setup_memo = memo;
    s.results.push_back(CpaCampaign(attack.setup(), cfg).run());
  }
  s.hits = ob.metrics().counter(kHits);
  s.misses = ob.metrics().counter(kMisses);
  return s;
}

// Reference without a memo, then the same sequence twice on fresh
// setups over one memo: the first fills it, the second hits every
// lookup (one matrix and, where the mode has one, one pre-pass per
// campaign) — and all three agree byte for byte. Bytes 3 and 6 retire
// in the same
// last-round cycle, so their windows and matrices coincide: the first
// sequence's second campaign already hits the matrix.
void check_memo_sequence(const Calibration& cal, SensorMode mode,
                         bool has_prepass) {
  const std::vector<std::size_t> bytes = {3, 6};
  const Sequence ref = run_sequence(cal, mode, bytes, 600, nullptr);
  EXPECT_EQ(ref.hits + ref.misses, 0.0);
  SetupMemo memo;
  const Sequence fill = run_sequence(cal, mode, bytes, 600, &memo);
  const Sequence hit = run_sequence(cal, mode, bytes, 600, &memo);
  const double lookups = static_cast<double>(bytes.size()) *
                         (has_prepass ? 2.0 : 1.0);
  EXPECT_EQ(fill.misses, lookups - 1.0);
  EXPECT_EQ(fill.hits, 1.0);
  EXPECT_EQ(hit.hits, lookups);
  EXPECT_EQ(hit.misses, 0.0);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    SCOPED_TRACE(sensor_mode_name(mode) + std::string(" byte ") +
                 std::to_string(bytes[i]));
    expect_same(fill.results[i], ref.results[i]);
    expect_same(hit.results[i], ref.results[i]);
    EXPECT_EQ(ref.results[i].prepass, has_prepass ? "ran" : "none");
    EXPECT_EQ(fill.results[i].prepass, has_prepass ? "ran" : "none");
    EXPECT_EQ(hit.results[i].prepass, has_prepass ? "reused" : "none");
  }
}

TEST(SetupMemoCampaign, TwoBenignHwCampaignsOnOneSetup) {
  check_memo_sequence(Calibration::paper_defaults(), SensorMode::kBenignHw,
                      true);
}

TEST(SetupMemoCampaign, MaskedDatapath) {
  // The masked victim draws each trace's round masks from that trace's
  // counter-keyed mask stream, in the pre-pass as in capture.
  Calibration cal = Calibration::paper_defaults();
  cal.aes.masked = true;
  check_memo_sequence(cal, SensorMode::kBenignHw, true);
}

TEST(SetupMemoCampaign, BenignSingleBitAutoBit) {
  check_memo_sequence(Calibration::paper_defaults(),
                      SensorMode::kBenignSingleBit, true);
}

TEST(SetupMemoCampaign, TdcAutoStage) {
  check_memo_sequence(Calibration::paper_defaults(),
                      SensorMode::kTdcSingleBit, true);
}

TEST(SetupMemoCampaign, TdcFullNeedsNoPrepass) {
  check_memo_sequence(Calibration::paper_defaults(), SensorMode::kTdcFull,
                      false);
}

TEST(SetupMemoCampaign, RunOptionsCarryTheMemo) {
  // Two byte campaigns, 3 and 6, through the RunOptions path serve uses.
  const auto run = [](SetupMemo* memo) {
    StealthyAttack attack(BenignCircuit::kAlu);
    RunOptions ro;
    ro.setup_memo = memo;
    std::vector<KeyByteReport> out;
    for (std::size_t b : {3, 6}) {
      out.push_back(
          attack.recover_key_byte(b, 800, SensorMode::kBenignHw, 1, ro));
    }
    return out;
  };
  const auto ref = run(nullptr);
  SetupMemo memo;
  run(&memo);
  EXPECT_EQ(memo.size(), 3u);  // one shared matrix, two pre-passes
  const auto hit = run(&memo);
  EXPECT_EQ(memo.size(), 3u);
  ASSERT_EQ(hit.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(hit[i].recovered, ref[i].recovered);
    EXPECT_EQ(hit[i].mtd.traces, ref[i].mtd.traces);
    EXPECT_EQ(hit[i].mtd.final_margin, ref[i].mtd.final_margin);
  }
}

TEST(SetupMemoCampaign, FencedTvlaAfterItsPrepass) {
  // A fenced TVLA whose benign-HW pre-pass comes from the memo: the
  // t-values equal a run without one.
  const auto run = [](SetupMemo* memo, std::string* prepass) {
    AttackSetup setup(BenignCircuit::kAlu, Calibration::paper_defaults());
    CampaignConfig cfg;
    cfg.mode = SensorMode::kBenignHw;
    cfg.traces = 100;
    cfg.selection_traces = 1500;
    cfg.fence.random_current_a = 0.02;
    cfg.setup_memo = memo;
    obs::CampaignObserver ob;
    cfg.observer = &ob;
    const sca::WelchTTest t = CpaCampaign(setup, cfg).run_tvla(300);
    *prepass = ob.metrics().counter(kHits) > 0.0 ? "hit" : "miss";
    std::vector<double> ts;
    for (std::size_t s = 0; s < t.sample_count(); ++s) {
      ts.push_back(t.t_statistic(s));
    }
    return ts;
  };
  std::string how;
  const auto ref = run(nullptr, &how);
  SetupMemo memo;
  EXPECT_EQ(run(&memo, &how), ref);
  EXPECT_EQ(how, "miss");
  EXPECT_EQ(run(&memo, &how), ref);
  EXPECT_EQ(how, "hit");
}

TEST(SetupMemoCampaign, CampaignKeyTracksEveryInput) {
  // One benign-HW base campaign fills the memo; each variant changes one
  // input of the pre-pass and must run it afresh, then reuse it on a
  // second fresh setup.
  struct Variant {
    const char* name;
    std::function<void(Calibration&, std::uint64_t&, CampaignConfig&)> cfg;
  };
  const std::vector<Variant> variants = {
      {"seed", [](auto&, auto&, auto& c) { c.seed += 1; }},
      {"window", [](auto&, auto&, auto& c) { c.window_end_ns += 7.0; }},
      {"selection_traces",
       [](auto&, auto&, auto& c) { c.selection_traces += 10; }},
      {"selection_min_variance",
       [](auto&, auto&, auto& c) { c.selection_min_variance = 0.2; }},
      {"selection_top_k", [](auto&, auto&, auto& c) { c.selection_top_k = 5; }},
      {"fence", [](auto&, auto&, auto& c) { c.fence.random_current_a = 0.01; }},
      {"calibration", [](auto& cal, auto&, auto&) { cal.env_noise_v *= 1.5; }},
      {"platform_seed", [](auto&, auto& seed, auto&) { seed += 1; }},
  };
  const auto run = [](const Variant* v, SetupMemo& memo) {
    Calibration cal = Calibration::paper_defaults();
    std::uint64_t platform_seed = 0x51;
    CampaignConfig cfg;
    cfg.mode = SensorMode::kBenignHw;
    cfg.traces = 64;
    cfg.selection_traces = 600;
    if (v != nullptr) v->cfg(cal, platform_seed, cfg);
    AttackSetup setup(BenignCircuit::kAlu, cal, platform_seed);
    cfg.setup_memo = &memo;
    return CpaCampaign(setup, cfg).run().prepass;
  };
  SetupMemo memo;
  ASSERT_EQ(run(nullptr, memo), "ran");
  ASSERT_EQ(run(nullptr, memo), "reused");
  for (const Variant& v : variants) {
    EXPECT_EQ(run(&v, memo), "ran") << v.name;
    EXPECT_EQ(run(&v, memo), "reused") << v.name;
  }

  // The key holds no state: a setup whose victim already encrypted, and
  // a second run of the same campaign, both reuse the entry.
  AttackSetup setup(BenignCircuit::kAlu, Calibration::paper_defaults());
  setup.victim().encrypt(crypto::Block{});
  CampaignConfig cfg;
  cfg.mode = SensorMode::kBenignHw;
  cfg.traces = 64;
  cfg.selection_traces = 600;
  cfg.setup_memo = &memo;
  CpaCampaign campaign(setup, cfg);
  EXPECT_EQ(campaign.run().prepass, "reused");
  EXPECT_EQ(campaign.run().prepass, "reused");
}

}  // namespace
}  // namespace slm::core
