// State written by a retired capture path must be refused loudly, with a
// message that names the retired path — never silently resumed, merged
// or replayed under the engines' contract. Three paths are retired: RNG
// contract v1 (sequential streams), the reference-kernel (compiled = 0)
// accumulators and the process fabric (its `fabric_shards` job field and
// `SLMSNAP1` snapshots). Each row builds one such artifact and runs the
// consumer that must refuse it.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "core/attack.hpp"
#include "core/campaign.hpp"
#include "common/binio.hpp"
#include "core/checkpoint.hpp"
#include "serve/daemon.hpp"
#include "serve/job.hpp"
#include "store/trace_store.hpp"

namespace slm::core {
namespace {

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

CampaignConfig small_cfg() {
  CampaignConfig cfg;
  cfg.mode = SensorMode::kTdcFull;
  cfg.traces = 300;
  cfg.checkpoints = {100, 300};
  return cfg;
}

// The message `consume` fails with; empty when it does not fail.
std::string refusal_of(const std::function<void()>& consume) {
  try {
    consume();
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

// Halt a campaign after its first snapshot, let `edit` rewrite the
// snapshot's header, then resume.
void resume_edited_checkpoint(
    const std::string& dir,
    const std::function<void(CampaignCheckpoint&)>& edit) {
  CampaignConfig cfg = small_cfg();
  cfg.checkpoint_dir = dir;
  cfg.halt_after_traces = 100;
  {
    AttackSetup setup(BenignCircuit::kAlu, Calibration::paper_defaults());
    EXPECT_THROW((void)CpaCampaign(setup, cfg).run(), CampaignHalted);
  }
  CampaignCheckpoint ck = *load_checkpoint(dir);
  edit(ck);
  save_checkpoint(dir, ck);
  cfg.halt_after_traces = 0;
  cfg.resume = true;
  AttackSetup setup(BenignCircuit::kAlu, Calibration::paper_defaults());
  (void)CpaCampaign(setup, cfg).run();
}

// A framed file with the retired fabric's `SLMSNAP1` magic, opened as
// a trace store (`--from-store x.snap` is how one would reach replay).
void open_snapshot_as_store(const std::string& dir) {
  const std::string path = dir + "/shard.snap";
  const std::vector<std::uint8_t> payload(64, 0);
  write_framed_file(path, "SLMSNAP1", 1, {payload}, "test");
  store::TraceStoreReader reader(path);
}

// A structurally valid SLMTRC1 store stamped with contract 1, served as
// an analyze job: the daemon survives, the job fails, and its result
// record (returned here) must say why.
std::string serve_analyze_v1_store(const std::string& dir) {
  StealthyAttack attack(BenignCircuit::kAlu);
  const CampaignConfig cfg =
      attack.byte_campaign_config(3, 2, SensorMode::kTdcFull);
  CpaCampaign campaign(attack.setup(), cfg);
  store::StoreIdentity id =
      campaign.store_identity(store::StoreKind::kByteCampaign, 2);
  id.rng_contract = 1;
  const std::string path = dir + "/v1.trc";
  store::TraceStoreWriter writer(path, id);
  const std::vector<double> y(id.samples, 1.0);
  for (std::size_t t = 0; t < 2; ++t) {
    writer.record_meta(t, crypto::Block{}, crypto::Block{});
    writer.record_readings(t, y.data());
  }
  writer.finalize();

  serve::JobSpec spec;
  spec.id = "job_v1";
  spec.tenant = "retired";
  spec.kind = serve::JobKind::kAnalyze;
  spec.store = path;
  std::filesystem::create_directories(dir + "/spool");
  std::ofstream(dir + "/spool/job_v1.json") << serve::job_to_json(spec)
                                             << "\n";
  serve::ServeOptions opt;
  opt.spool_dir = dir + "/spool";
  opt.results_dir = dir + "/results";
  opt.threads = 1;
  opt.poll_ms = 1;
  const serve::ServeReport rep = serve::serve(opt);
  EXPECT_EQ(rep.jobs_failed, 1u);
  std::ifstream is(dir + "/results/job_v1/result.json");
  return std::string((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
}

TEST(RetiredState, RefusedByName) {
  struct Row {
    const char* name;
    std::function<std::string(const std::string& dir)> refusal;
    std::vector<std::string> message_names;
  };
  const Row rows[] = {
      {"checkpoint with rng_contract = 1",
       [](const std::string& dir) {
         return refusal_of([&] {
           resume_edited_checkpoint(
               dir, [](CampaignCheckpoint& ck) { ck.rng_contract = 1; });
         });
       },
       {"contract v1", "retired"}},
      {"checkpoint with compiled = 0",
       [](const std::string& dir) {
         return refusal_of([&] {
           resume_edited_checkpoint(
               dir, [](CampaignCheckpoint& ck) { ck.compiled = false; });
         });
       },
       {"reference-kernel", "retired"}},
      {"job with fabric_shards = 2",
       [](const std::string&) {
         return refusal_of([] {
           (void)serve::parse_job_json(
               R"({"tenant":"a","kind":"attack","fabric_shards":2})", "t");
         });
       },
       {"fabric_shards", "process fabric", "retired"}},
      {"SLMSNAP1 snapshot given to the trace store reader",
       [](const std::string& dir) {
         return refusal_of([&] { open_snapshot_as_store(dir); });
       },
       {"SLMSNAP1", "process fabric", "retired"}},
      {"serve analyze over a contract-1 store", serve_analyze_v1_store,
       {"\"failed\":true", "contract v1", "retired"}},
  };
  for (const Row& row : rows) {
    const std::string dir = fresh_dir("retired_state");
    const std::string message = row.refusal(dir);
    ASSERT_FALSE(message.empty()) << row.name << ": was not refused";
    for (const std::string& want : row.message_names) {
      EXPECT_NE(message.find(want), std::string::npos)
          << row.name << ": message does not name '" << want
          << "': " << message;
    }
    std::filesystem::remove_all(dir);
  }
}

}  // namespace
}  // namespace slm::core
