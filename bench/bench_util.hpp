// Shared scaffolding for the figure-regeneration benches: uniform
// headers, series printing, shape checks (PASS/FAIL lines a CI can grep)
// and the common CPA-figure runner used by Figs. 9-13 and 17-18.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "core/campaign.hpp"
#include "core/parallel.hpp"
#include "core/preliminary.hpp"
#include "core/setup.hpp"
#include "obs/observer.hpp"
#include "reference_capture.hpp"

namespace slm::bench {

inline void print_header(const std::string& figure,
                         const std::string& description) {
  std::cout << "================================================================\n"
            << figure << " -- " << description << "\n"
            << "================================================================\n";
}

/// Collects named shape assertions; prints PASS/FAIL per check and an
/// overall verdict. Benches return its exit code.
class ShapeChecks {
 public:
  void expect(const std::string& name, bool ok) {
    std::cout << (ok ? "[shape PASS] " : "[shape FAIL] ") << name << "\n";
    if (!ok) ++failures_;
  }

  int finish() const {
    if (failures_ == 0) {
      std::cout << "RESULT: all shape checks passed\n\n";
      return 0;
    }
    std::cout << "RESULT: " << failures_ << " shape check(s) FAILED\n\n";
    return 1;
  }

 private:
  int failures_ = 0;
};

/// Environment-tunable trace count: SLM_TRACES overrides the default so
/// quick runs are possible (documented in README and docs/BENCHMARKS.md).
inline std::size_t trace_budget(std::size_t dflt) {
  if (const char* env = std::getenv("SLM_TRACES")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return dflt;
}

/// Worker count for the CPA figure benches: `--threads N` on the command
/// line beats the SLM_THREADS environment variable beats the serial
/// default. The default stays 1 so the published figure tables are
/// bit-reproducible; pass --threads 0 for all hardware threads.
inline unsigned thread_budget(int argc = 0, char** argv = nullptr) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--threads") {
      return core::resolve_threads(
          static_cast<unsigned>(std::atoi(argv[i + 1])));
    }
  }
  if (const char* env = std::getenv("SLM_THREADS")) {
    return core::resolve_threads(static_cast<unsigned>(std::atoi(env)));
  }
  return 1;
}

struct CpaFigureResult {
  core::CampaignResult campaign;
  std::size_t resolved_bit = 0;
  /// Observer the campaign ran under (metrics always; a JSONL sink when
  /// SLM_TRACE is set). write_bench_json dumps its registry into the
  /// BENCH_*.json metrics block.
  std::shared_ptr<obs::CampaignObserver> observer;
};

/// The CPA figure benches assert paper-shape properties (key recovered,
/// MTD in range) that only hold with enough traces; below this budget the
/// recovery checks are skipped so bench_smoke can run a 2k-trace variant.
inline bool full_shape_budget(std::size_t traces) { return traces >= 50000; }

/// Three-way kernel comparison on fresh AttackSetups: (1) the engine at
/// the --block/SLM_BLOCK-resolved block size, (2) the engine at block =
/// 1, and (3) the test-side reference capture (tests/core/
/// reference_capture.hpp: per-trace loop, per-call sensor reads, plain
/// CpaEngine sums). All three must be bit-identical: recovered guess,
/// every per-candidate |correlation| and every progress point. Each path
/// is timed over three interleaved repetitions and the fastest is
/// reported (min-of-N damps scheduler noise on shared machines; all
/// repetitions are seeded identically, so the repeat cannot change the
/// equivalence verdict). Engine throughput is computed over the capture
/// phase only (capture_seconds minus selection_seconds); the reference
/// capture is timed whole, its own selection pre-pass included.
struct KernelComparison {
  bool equivalent = false;
  std::size_t traces = 0;
  std::size_t block_size = 0;  ///< effective block of the blocked pass
  double block_tps = 0.0;      ///< traces/sec, engine at the block size
  double compiled_tps = 0.0;   ///< traces/sec, engine at block = 1
  double reference_tps = 0.0;  ///< traces/sec, reference capture
  double speedup() const {
    return reference_tps > 0.0 ? compiled_tps / reference_tps : 0.0;
  }
  /// Block-pipeline win over the block = 1 engine.
  double block_speedup() const {
    return compiled_tps > 0.0 ? block_tps / compiled_tps : 0.0;
  }
};

inline KernelComparison compare_kernel_paths(core::BenignCircuit circuit,
                                             const core::CampaignConfig& cfg_in,
                                             std::size_t max_traces = 50000) {
  KernelComparison out;
  core::CampaignConfig cfg = cfg_in;
  cfg.traces = std::min(cfg.traces, max_traces);
  out.traces = cfg.traces;

  constexpr int kEnginePasses = 2;
  constexpr int kReps = 3;
  core::CampaignResult res[kEnginePasses];
  reference::Result ref;
  double best_seconds[kEnginePasses + 1] = {0.0, 0.0, 0.0};
  const auto keep_best = [&](int pass, int rep, double secs) {
    if (rep == 0 || (secs > 0.0 && secs < best_seconds[pass])) {
      best_seconds[pass] = secs;
    }
  };
  // Rep-major order: each repetition cycles through all three paths
  // back-to-back, so slow drift in background load (shared machines)
  // hits every path roughly equally instead of biasing whichever path
  // happened to run during a quiet stretch.
  for (int rep = 0; rep < kReps; ++rep) {
    for (int pass = 0; pass < kEnginePasses; ++pass) {
      cfg.block = pass == 0 ? cfg_in.block : 1;
      core::AttackSetup setup(circuit, core::Calibration::paper_defaults());
      core::CpaCampaign campaign(setup, cfg);
      core::CampaignResult r = campaign.run();
      keep_best(pass, rep, r.capture_seconds - r.selection_seconds);
      if (rep == 0) res[pass] = std::move(r);
    }
    core::AttackSetup setup(circuit, core::Calibration::paper_defaults());
    const auto t0 = std::chrono::steady_clock::now();
    reference::Result r = reference::capture(setup, cfg);
    keep_best(kEnginePasses, rep,
              std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - t0)
                  .count());
    if (rep == 0) ref = std::move(r);
  }
  const core::CampaignResult& a = res[0];
  out.block_size = a.block_size;
  const auto tps = [](std::size_t traces, double secs) {
    return secs > 0.0 ? static_cast<double>(traces) / secs : 0.0;
  };
  out.block_tps = tps(a.traces_run, best_seconds[0]);
  out.compiled_tps = tps(res[1].traces_run, best_seconds[1]);
  out.reference_tps = tps(ref.traces_run, best_seconds[2]);

  const auto same = [](const auto& x, const auto& y) {
    bool eq = x.traces_run == y.traces_run &&
              x.recovered_guess == y.recovered_guess &&
              x.single_bit == y.single_bit &&
              x.bits_of_interest == y.bits_of_interest &&
              x.final_max_abs_corr == y.final_max_abs_corr &&
              x.progress.size() == y.progress.size();
    for (std::size_t i = 0; eq && i < x.progress.size(); ++i) {
      eq = x.progress[i].traces == y.progress[i].traces &&
           x.progress[i].correct_corr == y.progress[i].correct_corr &&
           x.progress[i].best_wrong_corr == y.progress[i].best_wrong_corr &&
           x.progress[i].correct_rank == y.progress[i].correct_rank;
    }
    return eq;
  };
  out.equivalent = same(a, res[1]) && same(a, ref);

  std::printf(
      "kernel equivalence: %s over %zu traces "
      "(block=%zu %.0f traces/sec, block=1 %.0f traces/sec [%.2fx], "
      "reference capture %.0f traces/sec [%.2fx])\n",
      out.equivalent ? "bit-identical" : "MISMATCH", out.traces,
      out.block_size, out.block_tps, out.compiled_tps, out.block_speedup(),
      out.reference_tps, out.speedup());
  return out;
}

/// Machine-readable throughput record next to the human-readable tables:
/// BENCH_<tag>.json in the working directory. The metrics block splits
/// campaign wall time into kernel (capture physics + sensor) vs CPA
/// (accumulate/fold/merge) vs selection vs checkpoint I/O — filled by the
/// observer-gated phase timers — and, when an observer is supplied, dumps
/// its full registry (counters/gauges/histograms with p50/p95/p99).
inline void write_bench_json(const std::string& tag,
                             const core::CampaignResult& r,
                             const core::CampaignConfig& cfg,
                             const KernelComparison& eq,
                             const obs::CampaignObserver* observer = nullptr) {
  const std::string path = "BENCH_" + tag + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::cout << "warning: could not write " << path << "\n";
    return;
  }
  const double tps = r.capture_seconds > 0.0
                         ? static_cast<double>(r.traces_run) /
                               r.capture_seconds
                         : 0.0;
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"%s\",\n"
               "  \"mode\": \"%s\",\n"
               "  \"seed\": %llu,\n"
               "  \"traces\": %zu,\n"
               "  \"threads\": %u,\n"
               "  \"block_size\": %zu,\n"
               "  \"capture_seconds\": %.6f,\n"
               "  \"traces_per_sec\": %.1f,\n"
               "  \"key_recovered\": %s,\n"
               "  \"kernel_equivalence\": {\n"
               "    \"equivalent\": %s,\n"
               "    \"traces\": %zu,\n"
               "    \"block_traces_per_sec\": %.1f,\n"
               "    \"block_speedup\": %.3f,\n"
               "    \"compiled_traces_per_sec\": %.1f,\n"
               "    \"reference_traces_per_sec\": %.1f,\n"
               "    \"speedup\": %.3f\n"
               "  },\n"
               "  \"metrics\": {\n"
               "    \"kernel_seconds\": %.6f,\n"
               "    \"cpa_seconds\": %.6f,\n"
               "    \"selection_seconds\": %.6f,\n"
               "    \"checkpoint_io_seconds\": %.6f,\n"
               "    \"registry\": %s\n"
               "  }\n"
               "}\n",
               tag.c_str(), core::sensor_mode_name(r.mode),
               static_cast<unsigned long long>(cfg.seed), r.traces_run,
               r.threads_used, r.block_size, r.capture_seconds,
               tps, r.key_recovered ? "true" : "false",
               eq.equivalent ? "true" : "false", eq.traces, eq.block_tps,
               eq.block_speedup(), eq.compiled_tps,
               eq.reference_tps, eq.speedup(), r.kernel_seconds,
               r.cpa_seconds, r.selection_seconds, r.checkpoint_io_seconds,
               observer != nullptr ? observer->metrics().to_json().c_str()
                                   : "{}");
  std::fclose(f);
  std::cout << "wrote " << path << "\n";
}

/// Run one CPA figure: prints the "total correlation" panel (a) as a
/// 16x16 grid over all 256 candidates, the "progress" panel (b) as a
/// checkpoint table, and the MTD verdict.
inline CpaFigureResult run_cpa_figure(core::BenignCircuit circuit,
                                      const core::CampaignConfig& cfg_in,
                                      unsigned threads = 1) {
  core::AttackSetup setup(circuit,
                          core::Calibration::paper_defaults());
  core::CampaignConfig cfg = cfg_in;
  // Every figure bench runs under an observer: SLM_TRACE attaches a JSONL
  // event sink, otherwise a metrics-only registry feeds the phase-time
  // split in the output and the BENCH_*.json metrics block. (The timers
  // do not perturb results — the determinism contract is RNG-driven.)
  std::shared_ptr<obs::CampaignObserver> observer = obs::observer_from_env();
  if (observer == nullptr) {
    observer = std::make_shared<obs::CampaignObserver>();
  }
  cfg.observer = observer.get();
  core::CpaCampaign campaign(setup, cfg);
  CpaFigureResult out{campaign.run(threads), 0, observer};
  out.resolved_bit = out.campaign.single_bit;
  const auto& r = out.campaign;

  std::cout << "sensor mode      : " << core::sensor_mode_name(r.mode) << "\n"
            << "benign circuit   : " << core::benign_circuit_name(circuit)
            << "\n"
            << "traces           : " << r.traces_run << "\n"
            << "target           : last-round key byte " << cfg.target_key_byte
            << ", state bit " << cfg.target_bit << "\n"
            << "threads          : " << r.threads_used << "\n"
            << "trace block      : " << r.block_size << "\n";
  if (r.capture_seconds > 0.0) {
    std::printf("throughput       : %.0f traces/sec (%.2f s)\n",
                static_cast<double>(r.traces_run) / r.capture_seconds,
                r.capture_seconds);
  }
  if (r.kernel_seconds > 0.0) {
    std::printf(
        "phase split      : kernel %.2f s, cpa %.2f s, selection %.2f s\n",
        r.kernel_seconds, r.cpa_seconds, r.selection_seconds);
  }
  if (r.mode == core::SensorMode::kBenignHw) {
    std::cout << "bits of interest : " << r.bits_of_interest.size() << "\n";
  }
  if (r.mode == core::SensorMode::kBenignSingleBit ||
      r.mode == core::SensorMode::kTdcSingleBit) {
    std::cout << "sensor bit       : " << out.resolved_bit << "\n";
  }

  std::cout << "\n(a) total |correlation| after " << r.traces_run
            << " traces, all 256 key candidates (correct = 0x";
  std::printf("%02x", r.correct_guess);
  std::cout << "):\n";
  for (int row = 0; row < 16; ++row) {
    for (int col = 0; col < 16; ++col) {
      const int k = row * 16 + col;
      std::printf("%s%6.4f", col == 0 ? "  " : " ",
                  r.final_max_abs_corr[static_cast<std::size_t>(k)]);
    }
    std::printf("\n");
  }

  std::cout << "\n(b) correlation progress over traces:\n";
  TextTable table({"traces", "corr(correct)", "best wrong", "rank of correct"});
  for (const auto& p : r.progress) {
    table.add_row({std::to_string(p.traces), format_double(p.correct_corr, 4),
                   format_double(p.best_wrong_corr, 4),
                   std::to_string(p.correct_rank)});
  }
  table.print(std::cout);

  std::cout << "\nrecovered key byte: 0x";
  std::printf("%02x", r.recovered_guess);
  std::cout << " (true 0x";
  std::printf("%02x", r.correct_guess);
  std::cout << ") -> " << (r.key_recovered ? "RECOVERED" : "not recovered")
            << "\n";
  if (r.mtd.disclosed()) {
    std::cout << "measurements to stable disclosure: ~" << *r.mtd.traces
              << " traces\n";
  } else {
    std::cout << "not stably disclosed within the budget\n";
  }
  std::cout << "\n";

  if (out.observer->has_sink()) {
    out.observer->write_manifest(
        obs::JsonWriter()
            .field("mode", core::sensor_mode_name(r.mode))
            .field("circuit", core::benign_circuit_name(circuit))
            .field("traces", static_cast<std::uint64_t>(r.traces_run))
            .field("recovered",
                   static_cast<std::uint64_t>(r.recovered_guess))
            .field("success", r.key_recovered)
            .field("threads", static_cast<std::uint64_t>(r.threads_used)));
  }
  return out;
}

}  // namespace slm::bench
