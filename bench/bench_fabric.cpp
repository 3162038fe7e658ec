// Distributed campaign fabric: one full-range in-process worker (the
// serial reference) against `coordinate_local` driving N = 1/2/4 local
// `slm attack --range --snapshot-out` worker subprocesses over the same
// campaign. Every variant's merged snapshot must be byte-identical to
// the serial one (the fabric's whole contract); the JSON reports the
// measured wall-clock ratio as "fabric_speedup" — honestly: on a
// single-core box the fabric pays process spawn + selection-pass
// overhead per worker and the speedup is expected to be <= ~1x, the
// win being fault tolerance and horizontal scale, not local speed.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/attack.hpp"
#include "core/fabric.hpp"
#include "obs/metrics.hpp"

using namespace slm;

namespace {

std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return {};
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(is),
                                   std::istreambuf_iterator<char>());
}

struct ShardPoint {
  unsigned shards = 0;
  double seconds = 0.0;
  bool bit_identical = false;
  unsigned workers_spawned = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const std::size_t traces = bench::trace_budget(20000);
  bench::print_header("Distributed fabric",
                      "N-shard coordinate runs vs one in-process worker");

  // The worker binary: argv[1] wins, else SLM_BIN, else skip the
  // subprocess half (shape checks still run on the serial side).
  std::string slm_bin = argc > 1 ? argv[1] : "";
  if (slm_bin.empty()) {
    const char* env = std::getenv("SLM_BIN");
    if (env != nullptr) slm_bin = env;
  }

  const std::string work_root = "bench_fabric_work";
  std::filesystem::remove_all(work_root);
  std::filesystem::create_directories(work_root);

  // Serial reference: one in-process worker over the full range.
  core::StealthyAttack attack(core::BenignCircuit::kAlu);
  core::CampaignConfig cfg =
      attack.byte_campaign_config(3, traces, core::SensorMode::kTdcFull);
  const std::string serial_snap = work_root + "/serial.snap";
  core::FabricWorker worker(attack.setup(), cfg, /*fullkey=*/false);
  const double t0 = obs::monotonic_seconds();
  core::FabricJob job;
  job.range = {0, traces};
  job.snapshot_out = serial_snap;
  worker.run(job);
  const double serial_seconds = obs::monotonic_seconds() - t0;
  const std::vector<std::uint8_t> serial_bytes = file_bytes(serial_snap);
  std::printf("mode tdc-full, %zu traces\n", traces);
  std::printf("serial worker: %.3f s (%.0f traces/sec)\n\n", serial_seconds,
              static_cast<double>(traces) / serial_seconds);

  std::vector<ShardPoint> points;
  if (slm_bin.empty()) {
    std::printf("no slm binary (argv[1] or SLM_BIN): skipping the "
                "coordinate runs\n");
  } else {
    for (const unsigned shards : {1u, 2u, 4u}) {
      core::CoordinateOptions opt;
      opt.slm_binary = slm_bin;
      opt.work_dir = work_root + "/n" + std::to_string(shards);
      opt.total_traces = traces;
      opt.shards = shards;
      opt.worker_args = {"--circuit",  "alu", "--mode",   "tdc",
                         "--key-byte", "3",   "--traces",
                         std::to_string(traces)};
      const double c0 = obs::monotonic_seconds();
      const core::CoordinateResult res = core::coordinate_local(opt);
      ShardPoint p;
      p.shards = shards;
      p.seconds = obs::monotonic_seconds() - c0;
      p.workers_spawned = res.workers_spawned;
      p.bit_identical = file_bytes(res.merged_path) == serial_bytes;
      std::printf("%u shard(s): %.3f s, %s serial snapshot\n", shards,
                  p.seconds,
                  p.bit_identical ? "byte-identical to" : "DIVERGED from");
      if (!p.bit_identical) {
        std::printf("FAIL: fabric merge diverged from the serial engine\n");
        return 1;
      }
      points.push_back(p);
    }
  }

  // Honest headline: best coordinate wall time vs the serial worker.
  double best = 0.0;
  for (const ShardPoint& p : points) {
    if (best == 0.0 || p.seconds < best) best = p.seconds;
  }
  const double fabric_speedup = best > 0.0 ? serial_seconds / best : 0.0;
  if (!points.empty()) {
    std::printf("\nfabric speedup: %.2fx (serial %.3f s / best fabric "
                "%.3f s) — expect <= ~1x on a single-core box\n",
                fabric_speedup, serial_seconds, best);
  }

  std::FILE* f = std::fopen("BENCH_fabric.json", "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"fabric\",\n"
                 "  \"traces\": %zu,\n"
                 "  \"serial_seconds\": %.6f,\n"
                 "  \"shard_runs\": [",
                 traces, serial_seconds);
    for (std::size_t i = 0; i < points.size(); ++i) {
      std::fprintf(f,
                   "%s\n    {\"shards\": %u, \"seconds\": %.6f, "
                   "\"workers_spawned\": %u, \"bit_identical\": %s}",
                   i == 0 ? "" : ",", points[i].shards, points[i].seconds,
                   points[i].workers_spawned,
                   points[i].bit_identical ? "true" : "false");
    }
    std::fprintf(f,
                 "\n  ],\n"
                 "  \"fabric_speedup\": %.3f\n"
                 "}\n",
                 fabric_speedup);
    std::fclose(f);
    std::printf("wrote BENCH_fabric.json\n");
  }

  std::filesystem::remove_all(work_root);
  return 0;
}
