// Full-key CPA: the fused shared-capture engine (one trace stream feeds
// all 16 byte x 256 guess folds) against 16 single-byte campaigns
// (StealthyAttack::recover_key_byte, one per key byte) at EQUAL per-byte
// trace budgets. The fused engine captures each trace once where the
// byte campaigns capture it 16 times, so the honest expectation is a
// ~16x capture-cost win minus the fused fold overhead; the JSON reports
// the measured ratio as "fullkey_speedup". The bit-exactness oracle
// (16 campaigns over the fused engine's shared config) lives in
// tests/core/fullkey_test.cpp; see docs/FULLKEY.md.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "core/attack.hpp"

using namespace slm;

namespace {

// The 16 single-byte campaigns, as one report.
struct ByteCampaigns {
  std::vector<core::KeyByteReport> bytes;
  std::size_t traces_captured = 0;
  double capture_seconds = 0.0;
  bool success = true;
};

bool keys_match(const core::StealthyAttack::FullKeyReport& fused,
                const ByteCampaigns& singles) {
  for (std::size_t b = 0; b < 16; ++b) {
    if (fused.bytes[b].recovered != singles.bytes[b].recovered) return false;
  }
  return true;
}

void write_fullkey_json(const core::StealthyAttack::FullKeyReport& fused,
                        const ByteCampaigns& singles, double speedup,
                        const obs::CampaignObserver* observer) {
  const std::string path = "BENCH_fullkey.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::cout << "warning: could not write " << path << "\n";
    return;
  }
  std::fprintf(
      f,
      "{\n"
      "  \"bench\": \"fullkey\",\n"
      "  \"threads\": %u,\n"
      "  \"block_size\": %zu,\n"
      "  \"fused\": {\n"
      "    \"traces_captured\": %zu,\n"
      "    \"capture_seconds\": %.6f,\n"
      "    \"traces_per_sec\": %.1f,\n"
      "    \"bytes_early_exited\": %zu,\n"
      "    \"key_recovered\": %s\n"
      "  },\n"
      "  \"byte_campaigns\": {\n"
      "    \"traces_captured\": %zu,\n"
      "    \"capture_seconds\": %.6f,\n"
      "    \"traces_per_sec\": %.1f,\n"
      "    \"key_recovered\": %s\n"
      "  },\n"
      "  \"keys_match\": %s,\n"
      "  \"fullkey_speedup\": %.3f,\n"
      "  \"metrics\": {\n"
      "    \"registry\": %s\n"
      "  }\n"
      "}\n",
      fused.threads_used, fused.block_size, fused.traces_captured,
      fused.capture_seconds,
      fused.capture_seconds > 0.0
          ? static_cast<double>(fused.traces_captured) / fused.capture_seconds
          : 0.0,
      fused.bytes_early_exited, fused.success ? "true" : "false",
      singles.traces_captured, singles.capture_seconds,
      singles.capture_seconds > 0.0
          ? static_cast<double>(singles.traces_captured) /
                singles.capture_seconds
          : 0.0,
      singles.success ? "true" : "false",
      keys_match(fused, singles) ? "true" : "false",
      speedup,
      observer != nullptr ? observer->metrics().to_json().c_str() : "{}");
  std::fclose(f);
  std::cout << "wrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned threads = bench::thread_budget(argc, argv);
  const std::size_t traces = bench::trace_budget(100000);
  bench::print_header("Full-key CPA",
                      "fused shared capture vs 16 single-byte campaigns");

  std::shared_ptr<obs::CampaignObserver> observer = obs::observer_from_env();
  if (observer == nullptr) {
    observer = std::make_shared<obs::CampaignObserver>();
  }

  std::printf("mode tdc-full, %zu traces, %u thread(s)\n\n", traces, threads);

  // Fused: one shared capture pass, all 16 bytes, per-byte early exit.
  core::StealthyAttack fused_attack(core::BenignCircuit::kAlu);
  core::FullKeyOptions fused_opts;
  fused_opts.run.observer = observer.get();
  // Both sides are timed around the whole call, campaign set-up included:
  // the byte campaigns build sixteen campaigns where the fused run builds
  // one. (The report's own capture_seconds starts after set-up.)
  const auto t_fused = std::chrono::steady_clock::now();
  auto fused = fused_attack.recover_full_key(
      traces, core::SensorMode::kTdcFull, threads, fused_opts);
  fused.capture_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    t_fused)
          .count();
  std::printf("fused : %7zu traces captured, %.3f s, %s, "
              "%zu byte(s) early-exited\n",
              fused.traces_captured, fused.capture_seconds,
              fused.success ? "key RECOVERED" : "key NOT recovered",
              fused.bytes_early_exited);

  // Baseline: one single-byte campaign per key byte — 16x the captures
  // for the same per-byte trace budget.
  core::StealthyAttack byte_attack(core::BenignCircuit::kAlu);
  ByteCampaigns singles;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t b = 0; b < 16; ++b) {
    singles.bytes.push_back(byte_attack.recover_key_byte(
        b, traces, core::SensorMode::kTdcFull, threads));
    singles.traces_captured += singles.bytes.back().traces;
    singles.success = singles.success && singles.bytes.back().success;
  }
  singles.capture_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::printf("16 byte campaigns: %7zu traces captured, %.3f s, %s\n",
              singles.traces_captured, singles.capture_seconds,
              singles.success ? "key RECOVERED" : "key NOT recovered");

  const double speedup = fused.capture_seconds > 0.0
                             ? singles.capture_seconds / fused.capture_seconds
                             : 0.0;
  std::printf("fullkey speedup: %.2fx (byte campaigns %.3f s / fused %.3f "
              "s)\n\n",
              speedup, singles.capture_seconds, fused.capture_seconds);

  bench::ShapeChecks checks;
  checks.expect("fused captures the budget once, byte campaigns 16 times",
                fused.traces_captured == traces &&
                    singles.traces_captured == 16 * traces);
  // Recovery needs enough traces; the smoke budget (SLM_TRACES=2000)
  // only exercises the capture-count shape above.
  if (traces >= 4000) {
    checks.expect("fused recovers the full key", fused.success);
    checks.expect("byte campaigns recover the full key", singles.success);
    checks.expect("fused and byte campaigns recover identical keys",
                  keys_match(fused, singles));
  } else {
    std::cout << "(recovery checks skipped below 4000 traces)\n";
  }
  // The capture-cost ratio is only meaningful once per-run overheads
  // (selection pre-pass, fold cost at the checkpoint schedule, the 16
  // platform replicas the farm builds) amortize against capture time.
  if (traces >= 100000) {
    checks.expect("fullkey_speedup >= 8x vs 16 byte campaigns",
                  speedup >= 8.0);
  } else {
    std::cout << "(speedup check skipped below 100000 traces)\n";
  }

  write_fullkey_json(fused, singles, speedup, observer.get());
  return checks.finish();
}
