// slm_perf: the repository benchmark driver (see slmbench/README.md).
//
//   slm_perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            --work-dir <dir> --pins <pins.tsv> [--commit <id>] [--pin]
//
// --trace 0 measures the end-to-end metrics of the untraced op; --trace 1
// runs the layer walk and prints the per-layer metrics. The last stdout
// line is one JSON object {correct, attempted, failed, metrics}. --pin
// prints the op's outcome as a pins.tsv line instead, after checking
// that the layer walk and (for a sharded op) the one-thread op agree.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign.hpp"
#include "obs/observer.hpp"
#include "sca/fold_kernels.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using slmperf::Layer;
using slmperf::LayerTotals;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  int trace = 0;
  std::string work_dir;
  std::string pins;
  std::string commit = "unknown";
  bool pin = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--pin") {
      a.pin = true;
      continue;
    }
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = std::stoi(v);
    else if (k == "--work-dir") a.work_dir = v;
    else if (k == "--pins") a.pins = v;
    else if (k == "--commit") a.commit = v;
    else throw std::runtime_error("unknown flag " + k);
  }
  if (a.workload.empty() || a.work_dir.empty() || (a.pins.empty() && !a.pin)) {
    throw std::runtime_error("need --workload, --work-dir and --pins");
  }
  if (a.trace != 0 && a.trace != 1) throw std::runtime_error("--trace 0|1");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string list(const std::vector<double>& v) {
  std::ostringstream os;
  os.precision(6);
  for (std::size_t i = 0; i < v.size(); ++i) os << (i ? "," : "") << v[i];
  return "[" + os.str() + "]";
}

// Pinned outcomes: "<workload>\t<variant>\t<outcome>" per line.
std::map<std::string, std::string> load_pins(const std::string& path) {
  std::map<std::string, std::string> pins;
  std::ifstream is(path);
  std::string line;
  while (std::getline(is, line)) {
    const auto a = line.find('\t');
    const auto b = a == std::string::npos ? a : line.find('\t', a + 1);
    if (b == std::string::npos || line[0] == '#') continue;
    pins[line.substr(0, b)] = line.substr(b + 1);
  }
  return pins;
}

// Tallies every op against its pin.
struct Checker {
  std::string pin;
  bool have_pin = false;
  std::size_t attempted = 0;
  std::size_t failed = 0;

  template <typename F>
  bool run(const char* what, F&& f, slmperf::OpResult* out) {
    ++attempted;
    try {
      *out = f();
      if (have_pin && out->outcome == pin) return true;
      std::printf("MISMATCH %s: got '%s' want '%s'\n", what,
                  out->outcome.c_str(), have_pin ? pin.c_str() : "(no pin)");
    } catch (const std::exception& e) {
      std::printf("FAILED %s: %s\n", what, e.what());
    }
    ++failed;
    return false;
  }
};

struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  void add(const std::string& name, double v, const char* unit) {
    items.push_back({name, {v, unit}});
  }
  std::string json() const {
    std::string s = "{";
    char buf[64];
    for (std::size_t i = 0; i < items.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%.17g", items[i].second.first);
      s += (i ? ", \"" : "\"") + items[i].first + "\": {\"value\": " + buf +
           ", \"unit\": \"" + items[i].second.second + "\"}";
    }
    return s + "}";
  }
};

// Whether the serial benign-HW engine runs its generate/compute pipeline,
// which adds a producer thread: the library's rule (SLM_PIPELINE=0/1
// forces it, else on when the host has more than one hardware thread),
// restated because the library does not export it.
bool serial_pipeline() {
  if (const char* env = std::getenv("SLM_PIPELINE")) {
    return std::atoi(env) != 0;
  }
  return std::thread::hardware_concurrency() > 1;
}

void print_env(const Args& a, const slmperf::Workload& w, unsigned variant) {
  const char* contract = slm::core::rng_contract_name(
      slm::core::resolve_contract(slm::core::RngContract::kDefault));
  std::printf(
      "env: {\"simd\": \"%s\", \"nproc\": %u, \"threads\": %u, "
      "\"serial_pipeline\": %s, \"rng_contract\": \"%s\", \"block\": %zu, "
      "\"build_type\": \"%s\", \"cxx_flags\": \"%s\", \"commit\": \"%s\", "
      "\"seed\": %llu, \"variant\": %u}\n",
      slm::sca::dispatch_level_name(slm::sca::active_dispatch()),
      std::thread::hardware_concurrency(), w.threads(),
      serial_pipeline() ? "true" : "false", contract,
      slm::core::resolve_block(0), SLM_PERF_BUILD_TYPE, SLM_PERF_CXX_FLAGS,
      a.commit.c_str(), static_cast<unsigned long long>(a.seed), variant);
  std::printf("inputs: %s\n", w.inputs().c_str());
}

// Set-up is repeated until it has run at least kSetupMinRuns times and
// for kSetupMinSeconds (at most kSetupMaxRuns), and reported as the
// median: a millisecond set-up gets enough samples to be steady, a
// one-second one is not repeated needlessly.
constexpr int kSetupMinRuns = 3;
constexpr int kSetupMaxRuns = 200;
constexpr double kSetupMinSeconds = 0.5;

// On a shared host the vCPUs run at different speeds, and a process
// tends to stay on the core it started on. So each set-up repetition
// starts on the next allowed CPU in turn. The pin is lifted before the
// set-up runs, so the threads it spawns may still run anywhere.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof all_, &all_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all_)) cpus_.push_back(c);
    }
  }
  void next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[i_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
    sched_setaffinity(0, sizeof all_, &all_);
  }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_;
  std::size_t i_ = 0;
};

int run_untraced(const Args& a, slmperf::Workload& w, Checker& ck) {
  std::vector<double> setup_s;
  const double setup_start = slmperf::now_seconds();
  CpuRotation rotation;
  while (static_cast<int>(setup_s.size()) < kSetupMinRuns ||
         (static_cast<int>(setup_s.size()) < kSetupMaxRuns &&
          slmperf::now_seconds() - setup_start < kSetupMinSeconds)) {
    rotation.next();
    const double t0 = slmperf::now_seconds();
    w.setup(nullptr);
    setup_s.push_back(slmperf::now_seconds() - t0);
  }
  slmperf::OpResult r;
  w.prepare();
  ck.run("warm-up op", [&] { return w.op(); }, &r);

  // Ops run back to back for the budget, at least three; an op whose
  // median time would overrun the deadline is not started.
  std::vector<double> op_s, tps, jps, turnaround;
  const double deadline = slmperf::now_seconds() + a.seconds;
  for (int n = 0; n < 3 || slmperf::now_seconds() + median(op_s) <= deadline;
       ++n) {
    w.prepare();
    const double t0 = slmperf::now_seconds();
    const bool ok = ck.run("op", [&] { return w.op(); }, &r);
    const double dt = slmperf::now_seconds() - t0;
    if (!ok) continue;
    op_s.push_back(dt);
    tps.push_back(r.traces / dt);
    jps.push_back(r.jobs / dt);
    // One sample per op: the drain's median job. Pooling every job of
    // every op would put the p50 between the slowest of one finishing
    // rank and the fastest of the next, an extreme of each.
    turnaround.push_back(r.turnaround_s.empty() ? dt : median(r.turnaround_s));
  }
  std::printf("setup_s: n=%zu p50=%.6f\n", setup_s.size(), median(setup_s));
  // Samples in run order, so a drift within the run shows.
  std::printf("op_s: n=%zu p50=%.6f min=%.6f max=%.6f %s\n", op_s.size(),
              median(op_s),
              op_s.empty() ? 0.0 : *std::min_element(op_s.begin(), op_s.end()),
              op_s.empty() ? 0.0 : *std::max_element(op_s.begin(), op_s.end()),
              list(op_s).c_str());
  std::printf("job_turnaround_s: n=%zu p50=%.6f\n", turnaround.size(),
              median(turnaround));

  const double attempted = static_cast<double>(ck.attempted);
  Metrics m;
  m.add("traces_per_s", median(tps), "1/s");
  m.add("op_s_p50", median(op_s), "s");
  m.add("jobs_per_s", median(jps), "1/s");
  m.add("job_turnaround_s_p50", median(turnaround), "s");
  m.add("setup_s", median(setup_s), "s");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
  m.add("ok_ratio", (attempted - static_cast<double>(ck.failed)) / attempted,
        "ratio");
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"metrics\": %s}\n",
      ck.failed == 0 && ck.have_pin ? "true" : "false", ck.attempted,
      ck.failed, m.json().c_str());
  return 0;
}

// Layers that carry a traces count and a bytes count in the output.
bool has_traces(Layer l) {
  switch (l) {
    case Layer::kSetup:
    case Layer::kCampaignCtor:
    case Layer::kFoldCheckpoint:
    case Layer::kMerge:
    case Layer::kCheckpointSave:
    case Layer::kCheckpointLoad:
    case Layer::kPoolWait:
      return false;
    default:
      return true;
  }
}
bool has_bytes(Layer l) {
  return l == Layer::kStoreOpen || l == Layer::kStoreWrite ||
         l == Layer::kCheckpointSave || l == Layer::kCheckpointLoad;
}

int run_traced(const Args& a, slmperf::Workload& w, Checker& ck) {
  slmperf::Tracer tr;
  // Set-up once, traced; only its set-up layers (platform construction
  // and the store write) are charged to the per-layer table.
  tr.begin_op(0);
  {
    slmperf::Span root(tr.coordinator(), Layer::kOp);
    w.setup(&tr);
  }
  const LayerTotals setup_totals = tr.totals();

  slmperf::OpResult r;
  w.prepare();
  ck.run("warm-up op", [&] { return w.op(); }, &r);

  // Half the budget on untraced ops, half on walks.
  std::vector<double> op_s;
  double deadline = slmperf::now_seconds() + a.seconds / 2;
  for (int n = 0; n < 2 || slmperf::now_seconds() < deadline; ++n) {
    w.prepare();
    const double t0 = slmperf::now_seconds();
    if (ck.run("op", [&] { return w.op(); }, &r)) {
      op_s.push_back(slmperf::now_seconds() - t0);
    }
  }
  const double op_p50 = median(op_s);

  LayerTotals sum;
  slmperf::WalkCounts counts;
  std::vector<double> walk_s;
  deadline = slmperf::now_seconds() + a.seconds / 2;
  while (walk_s.empty() || slmperf::now_seconds() < deadline) {
    slmperf::Lane& lane = tr.begin_op(walk_s.size() + 1);
    const double t0 = slmperf::now_seconds();
    slmperf::WalkCounts c;
    bool ok = false;
    {
      slmperf::Span root(lane, Layer::kOp);
      ok = ck.run("layer walk", [&] { return w.walk(tr, c); }, &r);
    }
    const double dt = slmperf::now_seconds() - t0;
    if (!ok) break;
    walk_s.push_back(dt);
    sum.add(tr.totals());
    counts.selection_traces += c.selection_traces;
    counts.useful_traces += c.useful_traces;
    counts.folds += c.folds;
    counts.folds_skipped += c.folds_skipped;
  }
  tr.dump_jsonl(a.work_dir + "/spans.jsonl", a.workload);  // the last walk
  const double nwalk = static_cast<double>(std::max<std::size_t>(1, walk_s.size()));
  LayerTotals per_op;
  per_op.add(sum, 1.0 / nwalk);
  for (const Layer l : {Layer::kSetup, Layer::kStoreWrite}) {
    const auto k = static_cast<std::size_t>(l);
    per_op.self_s[k] += setup_totals.self_s[k];
    per_op.calls[k] += setup_totals.calls[k];
    per_op.traces[k] += setup_totals.traces[k];
    per_op.bytes[k] += setup_totals.bytes[k];
  }

  slm::obs::CampaignObserver ob;
  w.prepare();
  ck.run("observed op", [&] { return w.observed(ob); }, &r);
  const slmperf::ServeStats ss = w.serve_stats();

  const double walk_p = mean(walk_s);
  const double layer_sum = [&] {
    LayerTotals t;
    t.add(sum, 1.0 / nwalk);
    return t.layer_sum();
  }();
  const double unattributed = op_p50 - layer_sum;

  Metrics m;
  for (std::size_t i = 0; i < slmperf::kLayerCount; ++i) {
    const auto l = static_cast<Layer>(i);
    if (l == Layer::kOp) continue;
    const std::string n = slmperf::layer_name(l);
    m.add(n + "_s", per_op.self_s[i], "s");
    m.add(n + "_calls", per_op.calls[i], "count");
    if (has_traces(l)) m.add(n + "_traces", per_op.traces[i], "count");
    if (has_bytes(l)) m.add(n + "_bytes", per_op.bytes[i], "bytes");
  }
  const auto at = [&](Layer l) { return static_cast<std::size_t>(l); };
  m.add("sca.selection_share",
        counts.useful_traces > 0 ? counts.selection_traces / counts.useful_traces
                                 : 0.0,
        "ratio");
  m.add("sca.fold_skipped_ratio",
        counts.folds > 0 ? counts.folds_skipped / counts.folds : 0.0, "ratio");
  const double open_s = per_op.self_s[at(Layer::kStoreOpen)];
  m.add("store.open_mb_per_s",
        open_s > 0 ? per_op.bytes[at(Layer::kStoreOpen)] / 1e6 / open_s : 0.0,
        "MB/s");
  m.add("serve.slices", ss.slices, "count");
  m.add("serve.preemptions", ss.preemptions, "count");
  m.add("serve.queue_wait_s_p50", median(ss.queue_wait_s), "s");
  m.add("serve.slice_s_p50", median(ss.slice_s), "s");
  m.add("op_untraced_s", op_p50, "s");
  m.add("walk_op_s", walk_p, "s");
  m.add("layer_sum_s", layer_sum, "s");
  m.add("unattributed_s", unattributed, "s");
  m.add("trace_overhead_s", walk_p - op_p50, "s");
  const auto& reg = ob.metrics();
  m.add("slm.campaign.kernel_seconds", reg.gauge("slm.campaign.kernel_seconds"), "s");
  m.add("slm.campaign.cpa_seconds", reg.gauge("slm.campaign.cpa_seconds"), "s");
  m.add("slm.campaign.selection_seconds",
        reg.gauge("slm.campaign.selection_seconds"), "s");
  m.add("slm.campaign.checkpoint_io_seconds",
        reg.gauge("slm.campaign.checkpoint_io_seconds"), "s");
  m.add("slm.store.replay_seconds",
        reg.histogram("slm.store.replay_seconds").sum, "s");

  std::printf("op_untraced_s: n=%zu p50=%.6f %s\n", op_s.size(), op_p50,
              list(op_s).c_str());
  std::printf("walk_op_s: n=%zu mean=%.6f %s\n", walk_s.size(), walk_p,
              list(walk_s).c_str());
  std::printf("layers (self s per op):");
  for (std::size_t i = 0; i < slmperf::kLayerCount; ++i) {
    if (per_op.self_s[i] != 0.0 && static_cast<Layer>(i) != Layer::kOp) {
      std::printf(" %s=%.6f", slmperf::layer_name(static_cast<Layer>(i)),
                  per_op.self_s[i]);
    }
  }
  std::printf("\nattribution: layer sum %.6f s + unattributed %.6f s = op wall "
              "%.6f s (traced walk %.6f s, overhead %.6f s)\n",
              layer_sum, unattributed, op_p50, walk_p, walk_p - op_p50);
  std::printf("serve: slices=%g preemptions=%g queue_wait_s_p50=%.6f "
              "slice_s_p50=%.6f\n",
              ss.slices, ss.preemptions, median(ss.queue_wait_s),
              median(ss.slice_s));
  std::printf("observer cross-check: slm.campaign kernel=%.6f cpa=%.6f "
              "selection=%.6f checkpoint_io=%.6f s, slm.store.replay_seconds=%.6f s%s\n",
              reg.gauge("slm.campaign.kernel_seconds"),
              reg.gauge("slm.campaign.cpa_seconds"),
              reg.gauge("slm.campaign.selection_seconds"),
              reg.gauge("slm.campaign.checkpoint_io_seconds"),
              reg.histogram("slm.store.replay_seconds").sum,
              w.threads() > 1 ? " (kernel and cpa: summed worker CPU seconds)"
                              : "");
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"metrics\": %s}\n",
      ck.failed == 0 && ck.have_pin ? "true" : "false", ck.attempted,
      ck.failed, m.json().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    const unsigned variant = static_cast<unsigned>(a.seed % 4);
    auto w = slmperf::make_workload(a.workload, variant, a.work_dir);
    print_env(a, *w, variant);
    std::fflush(stdout);
    Checker ck;
    if (a.pin) {
      // Pin mode: the op's outcome; the layer walk and the one-thread op
      // must agree with it.
      w->setup(nullptr);
      w->prepare();
      const auto r = w->op();
      slmperf::Tracer tr;
      tr.begin_op(1);
      slmperf::WalkCounts c;
      const auto rw = w->walk(tr, c);
      if (rw.outcome != r.outcome) {
        std::printf("MISMATCH walk: '%s' vs op '%s'\n", rw.outcome.c_str(),
                    r.outcome.c_str());
        return 1;
      }
      const std::string serial = w->serial_outcome();
      if (!serial.empty() && serial != r.outcome) {
        std::printf("MISMATCH one thread: '%s' vs op '%s'\n", serial.c_str(),
                    r.outcome.c_str());
        return 1;
      }
      std::printf("%s\t%u\t%s\n", a.workload.c_str(), variant,
                  r.outcome.c_str());
      return 0;
    }
    const auto pins = load_pins(a.pins);
    const auto it = pins.find(a.workload + "\t" + std::to_string(variant));
    ck.have_pin = it != pins.end();
    if (ck.have_pin) ck.pin = it->second;
    return a.trace == 0 ? run_untraced(a, *w, ck) : run_traced(a, *w, ck);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "slm_perf: %s\n", e.what());
    return 2;
  }
}
