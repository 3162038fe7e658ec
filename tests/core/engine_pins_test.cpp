// Byte pins of the capture engines' on-disk output: the final
// `campaign.ckpt` of a fenced benign-HW byte campaign, the final
// `campaign.ckpt` of a fused full-key campaign, and an `SLMTRC1` trace
// store, each written by a one-thread run. The hand-built-struct pins in
// resume_test and store_test cover the file formats; these cover what
// the engines put into them, so any change to capture, accumulation,
// folding or snapshot assembly that moves a single byte fails here.
//
// Size + FNV-1a 64 of each file; the values were generated by the
// engines before the serial paths became the one-shard case of the
// sharded engines, and re-pinned when the checkpoint (5) and store (2)
// versions were bumped — the version field was the only byte that
// moved.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/checkpoint.hpp"
#include "core/parallel.hpp"
#include "core/setup.hpp"

namespace slm::core {
namespace {

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(is)),
                                   std::istreambuf_iterator<char>());
}

std::uint64_t fnv1a64(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

// Explicit block size: the checkpoint header records it, so the pin must
// not depend on SLM_BLOCK in the environment.
CampaignConfig pinned_cfg(SensorMode mode, std::size_t traces) {
  CampaignConfig cfg;
  cfg.mode = mode;
  cfg.traces = traces;
  cfg.checkpoints = {100, 250, traces};
  cfg.selection_traces = 300;
  cfg.block = 64;
  return cfg;
}

void expect_pinned(const std::string& path, std::size_t size,
                   std::uint64_t hash) {
  const std::vector<std::uint8_t> bytes = file_bytes(path);
  EXPECT_EQ(bytes.size(), size) << path;
  EXPECT_EQ(fnv1a64(bytes), hash) << path;
}

TEST(EngineOutputPins, FencedBenignHwByteCheckpoint) {
  const std::string dir = fresh_dir("pin_byte_ckpt");
  CampaignConfig cfg = pinned_cfg(SensorMode::kBenignHw, 500);
  cfg.fence.random_current_a = 0.02;
  cfg.checkpoint_dir = dir;
  AttackSetup setup(BenignCircuit::kAlu, Calibration::paper_defaults());
  CpaCampaign campaign(setup, cfg);
  (void)campaign.run(1);
  expect_pinned(checkpoint_file(dir), 51815u, 0xeec7e602602d4678ull);
  std::filesystem::remove_all(dir);
}

TEST(EngineOutputPins, FullKeyCheckpoint) {
  const std::string dir = fresh_dir("pin_fullkey_ckpt");
  CampaignConfig cfg = pinned_cfg(SensorMode::kTdcFull, 600);
  cfg.checkpoint_dir = dir;
  AttackSetup setup(BenignCircuit::kAlu, Calibration::paper_defaults());
  CpaCampaign campaign(setup, cfg);
  (void)campaign.run_fullkey({}, 1);
  expect_pinned(checkpoint_file(dir), 822655u, 0x23a6e7f84e5e65ffull);
  std::filesystem::remove_all(dir);
}

TEST(EngineOutputPins, ByteCampaignStore) {
  const std::string dir = fresh_dir("pin_store");
  std::filesystem::create_directories(dir);
  CampaignConfig cfg = pinned_cfg(SensorMode::kBenignHw, 300);
  cfg.store_out = dir + "/capture.trc";
  AttackSetup setup(BenignCircuit::kAlu, Calibration::paper_defaults());
  CpaCampaign campaign(setup, cfg);
  (void)campaign.run(1);
  expect_pinned(cfg.store_out, 33724u, 0x4fba047520fea20bull);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace slm::core
