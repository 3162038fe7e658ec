// Capture-once, replay-many: one live TDC campaign captured into an
// SLMTRC1 trace store, then replayed repeatedly through the zero-copy
// mmap fold path. The replay must reproduce the live run bit for bit
// (recovered byte, MTD, every checkpoint's correlations and ranks — the
// partition-invariance contract), and the JSON reports the measured
// wall-clock ratio as "replay_speedup". Each side pays its real cold-
// start cost: live = build the attack setup (netlist, calibration),
// run the sensor-selection pre-pass, simulate the physics per trace,
// fold, and write the store; replay = mmap the store (chunk-CRC walk
// included) and fold the stored integers. Only the CPA folds are
// common work, so replays are expected to be >= 3x faster even at
// smoke budgets.
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/attack.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "sca/model.hpp"
#include "store/replay.hpp"
#include "store/trace_store.hpp"

using namespace slm;

namespace {

bool progress_equal(const std::vector<sca::CpaProgressPoint>& a,
                    const std::vector<sca::CpaProgressPoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].traces != b[i].traces || a[i].max_abs_corr != b[i].max_abs_corr ||
        a[i].best_guess != b[i].best_guess ||
        a[i].correct_rank != b[i].correct_rank ||
        a[i].correct_corr != b[i].correct_corr ||
        a[i].best_wrong_corr != b[i].best_wrong_corr) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  const std::size_t traces = bench::trace_budget(20000);
  constexpr std::size_t kKeyByte = 3;
  constexpr int kReplays = 5;
  bench::print_header("Trace store replay",
                      "live TDC capture vs zero-copy SLMTRC1 replays");

  const std::string store_path = "bench_store.trc";
  std::filesystem::remove(store_path);

  // Live pass: everything a fresh analysis pays, timed from cold —
  // attack setup (c6288 netlist build + calibration), the selection
  // pre-pass, per-trace physics, CPA folds, and the store write.
  const double t0 = obs::monotonic_seconds();
  core::StealthyAttack attack(core::BenignCircuit::kC6288x2);
  core::CampaignConfig cfg = attack.byte_campaign_config(
      kKeyByte, traces, core::SensorMode::kTdcFull);
  cfg.store_out = store_path;
  core::CpaCampaign campaign(attack.setup(), cfg);
  const core::CampaignResult live = campaign.run();
  const double live_seconds = obs::monotonic_seconds() - t0;
  std::printf("circuit c6288, mode tdc-full, %zu traces, key byte %zu\n",
              traces, kKeyByte);
  std::printf("live capture+attack: %.3f s (%.0f traces/sec), store %s\n\n",
              live_seconds, static_cast<double>(traces) / live_seconds,
              std::filesystem::exists(store_path) ? "written" : "MISSING");

  // Replay passes: each run re-opens the store (mmap + chunk-CRC walk
  // included — the full cost a later analysis pays) and folds at the
  // live schedule. Best-of-N damps scheduler noise.
  const std::vector<std::size_t> checkpoints =
      core::checkpoint_schedule(cfg.checkpoints, traces);
  const crypto::Block true_key =
      attack.setup().victim().cipher().last_round_key();
  store::ReplayAllOptions attack_only;
  attack_only.fullkey = false;
  attack_only.tvla = false;
  store::ReplayAttackResult replay;
  double best_replay = 0.0;
  std::uintmax_t store_bytes = 0;
  for (int i = 0; i < kReplays; ++i) {
    const double r0 = obs::monotonic_seconds();
    store::TraceStoreReader reader(store_path);
    replay = store::replay_all(reader, checkpoints, true_key, attack_only)
                 .attack;
    const double secs = obs::monotonic_seconds() - r0;
    if (i == 0 || secs < best_replay) best_replay = secs;
    store_bytes = reader.file_bytes();
  }
  const double replay_speedup =
      best_replay > 0.0 ? live_seconds / best_replay : 0.0;
  std::printf("replay x%d: best %.4f s (%.0f traces/sec), store %ju bytes\n",
              kReplays, best_replay,
              static_cast<double>(traces) / best_replay,
              static_cast<std::uintmax_t>(store_bytes));
  std::printf("replay speedup: %.1fx (live %.3f s / best replay %.4f s)\n\n",
              replay_speedup, live_seconds, best_replay);

  // Fused one-pass sweep vs three sequential single-analysis sweeps.
  // Sequential models an operator running attack, full-key, and TVLA as
  // three separate jobs over the same store: each pays its own open
  // (mmap + chunk-CRC walk) and its own column sweep. Fused is one
  // replay_all call: one open, one sweep, all three folds fed from the
  // same cache-resident blocks. The fold work is not quite the same on
  // both sides: the fused attack section takes the full-key tracker's
  // target-byte point at each checkpoint instead of folding that class
  // tile a second time. The ratio is what fusion buys: the two saved
  // opens and sweeps plus that one saved fold per checkpoint.
  //
  // The same property is also counted, which no scheduler can perturb:
  // each side tallies its store opens, and an observer per side counts
  // its sweeps (slm.store.replay_seconds observations) and the traces
  // they fed (slm.store.traces_replayed).
  store::ReplayAllResult fused;
  double best_seq = 0.0, best_fused = 0.0;
  obs::CampaignObserver seq_obs, fused_obs;
  int seq_opens = 0, fused_opens = 0;
  for (int i = 0; i < kReplays; ++i) {
    double s0 = obs::monotonic_seconds();
    for (int section = 0; section < 3; ++section) {
      store::TraceStoreReader reader(store_path);
      ++seq_opens;
      store::ReplayAllOptions one;
      one.attack = section == 0;
      one.fullkey = section == 1;
      one.tvla = section == 2;
      store::replay_all(reader, checkpoints, true_key, one, &seq_obs);
    }
    const double seq_secs = obs::monotonic_seconds() - s0;
    if (i == 0 || seq_secs < best_seq) best_seq = seq_secs;

    s0 = obs::monotonic_seconds();
    store::TraceStoreReader reader(store_path);
    ++fused_opens;
    fused = store::replay_all(reader, checkpoints, true_key, {}, &fused_obs);
    const double fused_secs = obs::monotonic_seconds() - s0;
    if (i == 0 || fused_secs < best_fused) best_fused = fused_secs;
  }
  // Per repetition: sweeps, traces replayed, opens.
  const auto per_rep = [](double total) { return total / kReplays; };
  const double seq_sweeps = per_rep(static_cast<double>(
      seq_obs.metrics().histogram("slm.store.replay_seconds").count));
  const double fused_sweeps = per_rep(static_cast<double>(
      fused_obs.metrics().histogram("slm.store.replay_seconds").count));
  const double seq_traces =
      per_rep(seq_obs.metrics().counter("slm.store.traces_replayed"));
  const double fused_traces =
      per_rep(fused_obs.metrics().counter("slm.store.traces_replayed"));
  std::printf(
      "per repetition: fused %.0f open(s), %.0f sweep(s), %.0f traces; "
      "sequential %.0f opens, %.0f sweeps, %.0f traces\n",
      per_rep(fused_opens), fused_sweeps, fused_traces, per_rep(seq_opens),
      seq_sweeps, seq_traces);
  const double fused_replay_speedup =
      best_fused > 0.0 ? best_seq / best_fused : 0.0;
  std::printf(
      "fused one-pass x%d: best %.4f s vs 3 sequential sweeps %.4f s "
      "(%.2fx)\n\n",
      kReplays, best_fused, best_seq, fused_replay_speedup);

  bench::ShapeChecks checks;
  checks.expect("store written", std::filesystem::exists(store_path) &&
                                     store_bytes > 0);
  checks.expect("replay folds every stored trace",
                replay.traces == live.traces_run);
  checks.expect("replay recovers the identical byte",
                replay.recovered_guess == live.recovered_guess &&
                    replay.correct_guess == live.correct_guess &&
                    replay.key_recovered == live.key_recovered);
  checks.expect("replay MTD identical",
                replay.mtd.disclosed() == live.mtd.disclosed() &&
                    (!replay.mtd.disclosed() ||
                     *replay.mtd.traces == *live.mtd.traces));
  checks.expect("replay progress bit-identical",
                progress_equal(replay.progress, live.progress));
  checks.expect("replay_speedup >= 3x", replay_speedup >= 3.0);
  checks.expect("fused sweep beats three sequential sweeps",
                fused_replay_speedup > 1.0);
  const auto n = static_cast<double>(live.traces_run);
  checks.expect("fused pass: one open, one sweep of n traces",
                per_rep(fused_opens) == 1.0 && fused_sweeps == 1.0 &&
                    fused_traces == n);
  checks.expect("sequential passes: three opens, three sweeps, 3n traces",
                per_rep(seq_opens) == 3.0 && seq_sweeps == 3.0 &&
                    seq_traces == 3.0 * n);
  checks.expect("fused attack section bit-identical",
                fused.has_attack &&
                    fused.attack.recovered_guess == live.recovered_guess &&
                    progress_equal(fused.attack.progress, live.progress));
  if (bench::full_shape_budget(traces)) {
    checks.expect("key recovered at full budget", live.key_recovered);
  }

  std::FILE* f = std::fopen("BENCH_store.json", "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"store\",\n"
                 "  \"traces\": %zu,\n"
                 "  \"store_bytes\": %ju,\n"
                 "  \"live_seconds\": %.6f,\n"
                 "  \"replay_runs\": %d,\n"
                 "  \"replay_seconds\": %.6f,\n"
                 "  \"replay_speedup\": %.3f,\n"
                 "  \"sequential_sweep_seconds\": %.6f,\n"
                 "  \"fused_sweep_seconds\": %.6f,\n"
                 "  \"fused_replay_speedup\": %.3f,\n"
                 "  \"bit_identical\": %s,\n"
                 "  \"key_recovered\": %s\n"
                 "}\n",
                 traces, static_cast<std::uintmax_t>(store_bytes),
                 live_seconds, kReplays, best_replay, replay_speedup,
                 best_seq, best_fused, fused_replay_speedup,
                 progress_equal(replay.progress, live.progress) ? "true"
                                                                : "false",
                 live.key_recovered ? "true" : "false");
    std::fclose(f);
    std::printf("wrote BENCH_store.json\n");
  }

  std::filesystem::remove(store_path);
  return checks.finish();
}
