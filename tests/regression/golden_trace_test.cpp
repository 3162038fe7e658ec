// Golden-trace regression fixtures.
//
// Fixed-seed campaign snapshots (kBenignHw / kBenignSingleBit / kTdcFull)
// and raw sensor toggle words over a deterministic voltage ramp, stored
// as hexfloat text under tests/regression/fixtures/. Any change to the
// capture physics, the RNG stream accounting, the compiled kernels or
// the CPA accumulation shifts these doubles and fails the diff.
//
// golden_traces_v2.txt pins the engines (contract v2). Run with
// SLM_REGEN_GOLDEN=1 to regenerate it after an intentional change, and
// justify the new fixture in the commit. golden_traces.txt is frozen
// data from the retired contract v1: it is never regenerated, and the
// test-side reference capture in its sequential-stream mode must keep
// reproducing it byte for byte.
//
// Doubles are serialized with printf %a (hexfloat): round-trip exact, so
// the comparison is bit-for-bit.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "reference_capture.hpp"
#include "core/setup.hpp"

namespace slm {
namespace {

// Which capture produces a snapshot: the engine, or the reference
// capture in one of its stream modes.
enum class Source { kEngine, kReferenceV2, kReferenceV1 };

std::string fixture_path(Source source) {
  return std::string(SLM_REPO_ROOT) +
         (source == Source::kReferenceV1
              ? "/tests/regression/fixtures/golden_traces.txt"
              : "/tests/regression/fixtures/golden_traces_v2.txt");
}

void append_hex(std::string& out, const char* key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s %a\n", key, v);
  out += buf;
}

void append_u64(std::string& out, const char* key, std::uint64_t v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s %llu\n", key,
                static_cast<unsigned long long>(v));
  out += buf;
}

core::CampaignConfig golden_cfg(core::SensorMode mode) {
  core::CampaignConfig cfg;
  cfg.mode = mode;
  cfg.traces = 200;
  cfg.checkpoints = {100, 200};
  cfg.selection_traces = 400;
  if (mode == core::SensorMode::kBenignSingleBit) {
    cfg.single_bit = core::CampaignConfig::kAutoBit;
  }
  return cfg;
}

// The fields the fixture pins, from either capture.
struct Snapshot {
  std::size_t traces_run = 0;
  std::size_t recovered_guess = 0;
  std::size_t single_bit = 0;
  std::size_t bits_of_interest = 0;
  std::vector<sca::CpaProgressPoint> progress;
  std::vector<double> final_max_abs_corr;
};

template <class R>
Snapshot snapshot_of(const R& r) {
  return Snapshot{r.traces_run,          r.recovered_guess,
                  r.single_bit,          r.bits_of_interest.size(),
                  r.progress,            r.final_max_abs_corr};
}

void append_campaign(std::string& out, core::SensorMode mode, Source source,
                     const char* tag) {
  core::AttackSetup setup(core::BenignCircuit::kAlu,
                          core::Calibration::paper_defaults());
  const core::CampaignConfig cfg = golden_cfg(mode);
  Snapshot r;
  if (source == Source::kEngine) {
    r = snapshot_of(core::CpaCampaign(setup, cfg).run());
  } else {
    r = snapshot_of(reference::capture(setup, cfg,
                                       source == Source::kReferenceV1
                                           ? reference::Streams::kSequential
                                           : reference::Streams::kPerTrace));
  }
  out += "[campaign ";
  out += tag;
  out += "]\n";
  append_u64(out, "traces_run", r.traces_run);
  append_u64(out, "recovered_guess", r.recovered_guess);
  append_u64(out, "single_bit", r.single_bit);
  append_u64(out, "bits_of_interest", r.bits_of_interest);
  // The first two checkpoints pin the whole accumulation path: any
  // change in a sensor reading or hypothesis value moves them.
  for (std::size_t p = 0; p < 2 && p < r.progress.size(); ++p) {
    char key[48];
    std::snprintf(key, sizeof key, "progress%zu_traces", p);
    append_u64(out, key, r.progress[p].traces);
    std::snprintf(key, sizeof key, "progress%zu_correct_corr", p);
    append_hex(out, key, r.progress[p].correct_corr);
    std::snprintf(key, sizeof key, "progress%zu_best_wrong_corr", p);
    append_hex(out, key, r.progress[p].best_wrong_corr);
    std::snprintf(key, sizeof key, "progress%zu_correct_rank", p);
    append_u64(out, key, r.progress[p].correct_rank);
  }
  // Full final per-candidate |correlation| vector, bit-for-bit.
  for (std::size_t k = 0; k < r.final_max_abs_corr.size(); ++k) {
    char key[32];
    std::snprintf(key, sizeof key, "final_corr_%03zu", k);
    append_hex(out, key, r.final_max_abs_corr[k]);
  }
}

void append_sensor_words(std::string& out) {
  // Raw benign-sensor toggle words over a fixed voltage ramp with a
  // fixed stream: pins the capture physics (skews, jitter draws, toggle
  // decisions) below the campaign layer.
  core::AttackSetup setup(core::BenignCircuit::kAlu,
                          core::Calibration::paper_defaults());
  out += "[sensor toggle_words]\n";
  Xoshiro256 rng(0x601d);
  const auto& bank = setup.sensor();
  for (int step = 0; step < 16; ++step) {
    const double v = 0.90 + 0.01 * static_cast<double>(step % 8);
    const BitVec word = bank.sample_toggles(v, rng);
    std::string bits;
    bits.reserve(word.size());
    for (std::size_t i = 0; i < word.size(); ++i) {
      bits += word.get(i) ? '1' : '0';
    }
    char key[32];
    std::snprintf(key, sizeof key, "word_%02d", step);
    out += key;
    out += ' ';
    out += bits;
    out += '\n';
  }
}

std::string current_snapshot(Source source) {
  std::string out;
  out += "# Golden trace fixtures - regenerate with SLM_REGEN_GOLDEN=1\n";
  append_campaign(out, core::SensorMode::kBenignHw, source, "benign_hw");
  append_campaign(out, core::SensorMode::kBenignSingleBit, source,
                  "benign_single_bit");
  append_campaign(out, core::SensorMode::kTdcFull, source, "tdc_full");
  append_sensor_words(out);
  return out;
}

void check_fixture(Source source) {
  const std::string path = fixture_path(source);
  const std::string now = current_snapshot(source);
  if (source == Source::kEngine &&
      std::getenv("SLM_REGEN_GOLDEN") != nullptr) {
    std::ofstream f(path, std::ios::trunc);
    ASSERT_TRUE(f.good()) << "cannot write " << path;
    f << now;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream f(path);
  ASSERT_TRUE(f.good())
      << "missing fixture " << path
      << " - run this test once with SLM_REGEN_GOLDEN=1 and commit it";
  std::stringstream buf;
  buf << f.rdbuf();
  const std::string want = buf.str();

  // Compare line-by-line for a readable first divergence.
  std::istringstream a(want);
  std::istringstream b(now);
  std::string la;
  std::string lb;
  std::size_t line = 0;
  while (true) {
    const bool ga = static_cast<bool>(std::getline(a, la));
    const bool gb = static_cast<bool>(std::getline(b, lb));
    ++line;
    if (!ga && !gb) break;
    ASSERT_EQ(ga, gb) << "fixture and snapshot differ in length at line "
                      << line;
    ASSERT_EQ(la, lb) << "first divergence at line " << line;
  }
}

// The frozen v1 fixture: the reference capture replays the retired
// contract's exact sequential RNG consumption order.
TEST(GoldenTrace, V1SnapshotsMatchCheckedInFixtures) {
  check_fixture(Source::kReferenceV1);
}

TEST(GoldenTrace, SnapshotsMatchCheckedInFixtures) {
  check_fixture(Source::kEngine);
}

// The reference capture's per-trace mode reproduces the engine fixture.
TEST(GoldenTrace, ReferenceCaptureMatchesV2Fixture) {
  check_fixture(Source::kReferenceV2);
}

}  // namespace
}  // namespace slm
