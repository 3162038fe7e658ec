#include "workloads.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>

#include "common/error.hpp"
#include "core/attack.hpp"
#include "obs/jsonl.hpp"
#include "serve/daemon.hpp"
#include "serve/job.hpp"
#include "store/trace_store.hpp"

namespace slmperf {

namespace core = slm::core;
namespace crypto = slm::crypto;
namespace serve = slm::serve;
namespace store = slm::store;
namespace fs = std::filesystem;

namespace {

// --- Input sizes ------------------------------------------------------
// The seed picks one of kVariants pinned input variants; sizes are fixed
// so every variant costs the same.
constexpr unsigned kVariants = 4;

// attack_alu_hw: paper Fig. 10, well past the ~100k-200k disclosure band.
constexpr std::size_t kAttackTraces = 1000000;
constexpr std::size_t kAttackBytes[kVariants] = {3, 6, 9, 12};

// fullkey_tdc_sharded: fused 16-byte CPA, early exit on, 2 shards.
constexpr std::size_t kFullKeyTraces = 1000000;
constexpr unsigned kFullKeyThreads = 2;
constexpr std::uint64_t kFullKeySeeds[kVariants] = {0x51, 0x52, 0x53, 0x54};

// replay_analyze: one byte-campaign store, replayed by replay_all.
constexpr std::size_t kReplayTraces = 1000000;
constexpr std::size_t kReplayBytes[kVariants] = {3, 6, 9, 12};

// serve_preempt: a few tenants' mixed jobs under a forcing timeslice.
// The attacked bytes are ones that disclose by 100k benign-HW traces
// (the attack_alu_hw pins), so every job at 2x that budget recovers its
// byte; the analyze jobs replay a full-key TDC store.
constexpr std::size_t kServeAttackTraces = 200000;
constexpr std::size_t kServeAttackBytes[kVariants] = {3, 6, 9, 12};
constexpr std::size_t kServeFullKeyTraces = 60000;
constexpr std::size_t kServeStoreTraces = 60000;
constexpr std::uint64_t kServeTimeslice = 50000;
constexpr const char* kServeTenants[] = {"acme", "globex", "initech"};

// --- Outcome strings --------------------------------------------------

std::string hexfloat(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

std::string hex_byte(std::uint8_t b) {
  char buf[8];
  std::snprintf(buf, sizeof buf, "0x%02x", b);
  return buf;
}

std::string mtd_text(const slm::sca::MtdResult& m) {
  return (m.traces ? std::to_string(*m.traces) : std::string("none")) +
         "/" + hexfloat(m.final_margin);
}

// FNV-1a 64 over text fields: a compact digest of many hexfloats.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void add(const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    h ^= 0xff;
    h *= 1099511628211ull;
  }
  void add(const std::vector<double>& v) {
    for (const double x : v) add(hexfloat(x));
  }
  std::string hex() const {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
  }
};

std::string byte_outcome(const core::KeyByteReport& r) {
  return "byte=" + std::to_string(r.key_byte) + " true=" +
         hex_byte(r.true_value) + " recovered=" + hex_byte(r.recovered) +
         " traces=" + std::to_string(r.traces) + " mtd=" + mtd_text(r.mtd);
}

std::string key_outcome(const core::StealthyAttack::FullKeyReport& r) {
  Digest d;
  for (const core::KeyByteReport& b : r.bytes) {
    d.add(hex_byte(b.recovered) + "/" + std::to_string(b.traces) + "/" +
          (b.early_exited ? "e" : "-") + "/" + mtd_text(b.mtd));
  }
  return "lrk=" + crypto::block_to_hex(r.last_round_key) +
         " master=" + crypto::block_to_hex(r.master_key) +
         " early=" + std::to_string(r.bytes_early_exited) +
         " bytes=" + d.hex();
}

std::string replay_outcome(const store::ReplayAllResult& r) {
  Digest d;
  d.add(r.attack.progress.back().max_abs_corr);
  for (const auto& b : r.fullkey.bytes) {
    d.add(hex_byte(b.recovered) + "/" + std::to_string(b.traces) + "/" +
          (b.early_exited ? "e" : "-") + "/" + mtd_text(b.mtd));
    d.add(b.final_max_abs_corr);
  }
  return "attack=" + hex_byte(r.attack.recovered_guess) +
         " mtd=" + mtd_text(r.attack.mtd) +
         " lrk=" + crypto::block_to_hex(r.fullkey.recovered_last_round_key) +
         " early=" + std::to_string(r.fullkey.bytes_early_exited) +
         " tvla=" + hexfloat(r.tvla.max_abs_t) + "/" +
         std::to_string(r.tvla.fixed_traces) + "/" +
         std::to_string(r.tvla.random_traces) + " corr=" + d.hex();
}

OpResult op_result(std::string outcome, std::size_t traces) {
  OpResult r;
  r.outcome = std::move(outcome);
  r.traces = static_cast<double>(traces);
  return r;
}

std::vector<std::size_t> byte_schedule(core::StealthyAttack& a,
                                       std::size_t key_byte,
                                       std::size_t traces) {
  const auto cfg = a.byte_campaign_config(key_byte, traces,
                                          core::SensorMode::kBenignHw);
  return core::checkpoint_schedule(cfg.checkpoints, traces);
}

std::unique_ptr<core::StealthyAttack> make_attack(Tracer* tr,
                                                  std::uint64_t seed) {
  std::optional<Span> sp;
  if (tr != nullptr) sp.emplace(tr->coordinator(), Layer::kSetup);
  auto a = std::make_unique<core::StealthyAttack>(
      core::BenignCircuit::kAlu, core::Calibration::paper_defaults(), seed);
  if (sp) sp->add(1, 0);
  return a;
}

// Capture a byte-campaign store of the ALU benign-HW attack: through
// the library entry point on kStoreThreads shards (contract v2 stores
// the same readings at any thread count), or through the serial layer
// walk when traced.
constexpr unsigned kStoreThreads = 2;

void capture_store(Tracer* tr, core::StealthyAttack& a, std::size_t key_byte,
                   std::size_t traces, const std::string& path) {
  fs::remove(path);
  if (tr == nullptr) {
    core::RunOptions ro;
    ro.store_out = path;
    a.recover_key_byte(key_byte, traces, core::SensorMode::kBenignHw,
                       kStoreThreads, ro);
    return;
  }
  WalkCounts counts;
  walk_byte_campaign(
      *tr, a.setup(),
      a.byte_campaign_config(key_byte, traces, core::SensorMode::kBenignHw),
      SliceSpec{}, path, counts);
}

// --- attack_alu_hw ----------------------------------------------------

class AttackAluHw : public Workload {
 public:
  explicit AttackAluHw(unsigned variant) : key_byte_(kAttackBytes[variant]) {}

  unsigned threads() const override { return 1; }
  std::string inputs() const override {
    return "recover_key_byte(byte " + std::to_string(key_byte_) + ", " +
           std::to_string(kAttackTraces) + " traces, benign-hw ALU, serial)";
  }
  void setup(Tracer* tr) override { attack_ = make_attack(tr, 0x51); }
  OpResult op() override { return run(core::RunOptions{}); }
  OpResult observed(slm::obs::CampaignObserver& ob) override {
    core::RunOptions ro;
    ro.observer = &ob;
    return run(ro);
  }
  OpResult walk(Tracer& tr, WalkCounts& counts) override {
    const auto r = walk_byte_campaign(
        tr, attack_->setup(),
        attack_->byte_campaign_config(key_byte_, kAttackTraces,
                                      core::SensorMode::kBenignHw),
        SliceSpec{}, "", counts);
    return op_result(byte_outcome(r.report), r.traces_done);
  }

 private:
  OpResult run(const core::RunOptions& ro) {
    const auto r = attack_->recover_key_byte(
        key_byte_, kAttackTraces, core::SensorMode::kBenignHw, 1, ro);
    return op_result(byte_outcome(r), r.traces);
  }

  std::size_t key_byte_;
  std::unique_ptr<core::StealthyAttack> attack_;
};

// --- fullkey_tdc_sharded ----------------------------------------------

class FullKeyTdc : public Workload {
 public:
  explicit FullKeyTdc(unsigned variant) : seed_(kFullKeySeeds[variant]) {}

  unsigned threads() const override { return kFullKeyThreads; }
  std::string inputs() const override {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "recover_full_key(%zu traces, tdc, fused, early exit, %u "
                  "threads), platform seed 0x%llx",
                  kFullKeyTraces, kFullKeyThreads,
                  static_cast<unsigned long long>(seed_));
    return buf;
  }
  void setup(Tracer* tr) override { attack_ = make_attack(tr, seed_); }
  OpResult op() override {
    return run(core::FullKeyOptions{}, kFullKeyThreads);
  }
  OpResult observed(slm::obs::CampaignObserver& ob) override {
    core::FullKeyOptions fo;
    fo.run.observer = &ob;
    return run(fo, kFullKeyThreads);
  }
  std::string serial_outcome() override {
    return run(core::FullKeyOptions{}, 1).outcome;
  }
  OpResult walk(Tracer& tr, WalkCounts& counts) override {
    const auto r = walk_fullkey(
        tr, attack_->setup(),
        attack_->fullkey_campaign_config(kFullKeyTraces,
                                         core::SensorMode::kTdcFull),
        core::FullKeyConfig{}, kFullKeyThreads, SliceSpec{}, counts);
    return op_result(key_outcome(r.report), r.report.traces_captured);
  }

 private:
  OpResult run(const core::FullKeyOptions& fo, unsigned threads) {
    const auto r = attack_->recover_full_key(
        kFullKeyTraces, core::SensorMode::kTdcFull, threads, fo);
    return op_result(key_outcome(r), r.traces_captured);
  }

  std::uint64_t seed_;
  std::unique_ptr<core::StealthyAttack> attack_;
};

// --- replay_analyze ---------------------------------------------------

class ReplayAnalyze : public Workload {
 public:
  ReplayAnalyze(unsigned variant, const std::string& work_dir)
      : key_byte_(kReplayBytes[variant]),
        path_(work_dir + "/replay.slmtrc") {}

  unsigned threads() const override { return 1; }
  std::string inputs() const override {
    return "replay_all(byte-campaign store: byte " +
           std::to_string(key_byte_) + ", " + std::to_string(kReplayTraces) +
           " traces, benign-hw ALU)";
  }
  void setup(Tracer* tr) override {
    attack_ = make_attack(tr, 0x51);
    capture_store(tr, *attack_, key_byte_, kReplayTraces, path_);
    schedule_ = byte_schedule(*attack_, key_byte_, kReplayTraces);
  }
  OpResult op() override { return run(nullptr); }
  OpResult observed(slm::obs::CampaignObserver& ob) override {
    return run(&ob);
  }
  OpResult walk(Tracer& tr, WalkCounts& counts) override {
    const auto r = walk_replay(tr, path_, schedule_, lrk(), counts);
    return op_result(replay_outcome(r), r.traces);
  }

 private:
  crypto::Block lrk() const {
    return attack_->setup().victim().cipher().last_round_key();
  }
  OpResult run(slm::obs::CampaignObserver* ob) {
    const store::TraceStoreReader reader(path_);
    const auto r = store::replay_all(reader, schedule_, lrk(), {}, ob);
    return op_result(replay_outcome(r), r.traces);
  }

  std::size_t key_byte_;
  std::string path_;
  std::unique_ptr<core::StealthyAttack> attack_;
  std::vector<std::size_t> schedule_;
};

// --- serve_preempt ----------------------------------------------------

struct SliceEvent {
  std::string job;
  std::size_t from = 0;
  std::size_t halt_after = 0;
};

class ServePreempt : public Workload {
 public:
  ServePreempt(unsigned variant, const std::string& work_dir)
      : store_path_(fs::absolute(work_dir + "/serve_store.slmtrc").string()),
        spool_(work_dir + "/spool"),
        results_(work_dir + "/results"),
        walk_dir_(work_dir + "/walk") {
    // Eight jobs: four benign-HW byte attacks, two TDC full-key runs and
    // two store analyses, dealt to three tenants. The variant picks the
    // attacked bytes and the tenant deal; sizes are fixed.
    const serve::JobKind kinds[] = {
        serve::JobKind::kAttack,  serve::JobKind::kFullKey,
        serve::JobKind::kAttack,  serve::JobKind::kAnalyze,
        serve::JobKind::kAttack,  serve::JobKind::kFullKey,
        serve::JobKind::kAttack,  serve::JobKind::kAnalyze};
    for (std::size_t i = 0; i < 8; ++i) {
      serve::JobSpec s;
      s.id = "job" + std::to_string(i);
      s.tenant = kServeTenants[(i + variant) % 3];
      s.kind = kinds[i];
      s.circuit = core::BenignCircuit::kAlu;
      switch (s.kind) {
        case serve::JobKind::kAttack:
          s.mode = core::SensorMode::kBenignHw;
          s.traces = kServeAttackTraces;
          s.key_byte = kServeAttackBytes[(i / 2 + variant) % kVariants];
          break;
        case serve::JobKind::kFullKey:
          s.mode = core::SensorMode::kTdcFull;
          s.traces = kServeFullKeyTraces;
          break;
        default:
          s.mode = core::SensorMode::kTdcFull;
          s.traces = kServeStoreTraces;
          s.store = store_path_;
          break;
      }
      jobs_.push_back(s);
    }
  }

  unsigned threads() const override { return 1; }
  std::string inputs() const override {
    return "serve(8 jobs: 4 attack benign-hw x" +
           std::to_string(kServeAttackTraces) + ", 2 full-key tdc x" +
           std::to_string(kServeFullKeyTraces) + ", 2 analyze of a full-key tdc store x" +
           std::to_string(kServeStoreTraces) + "; 3 tenants; timeslice " +
           std::to_string(kServeTimeslice) + " traces; 1 pool thread)";
  }
  void setup(Tracer* tr) override {
    attack_ = make_attack(tr, 0x51);
    // Captured untraced: the walk has no full-key store writer, so the
    // serve set-up charges no store.write span.
    fs::remove(store_path_);
    core::FullKeyOptions fo;
    fo.run.store_out = store_path_;
    attack_->recover_full_key(kServeStoreTraces, core::SensorMode::kTdcFull,
                              kStoreThreads, fo);
  }
  void prepare() override {
    fs::remove_all(spool_);
    fs::remove_all(results_);
    fs::create_directories(spool_);
    for (const serve::JobSpec& s : jobs_) {
      std::ofstream os(spool_ + "/" + s.id + ".json");
      os << serve::job_to_json(s) << '\n';
    }
  }
  OpResult op() override {
    serve::ServeOptions o;
    o.spool_dir = spool_;
    o.results_dir = results_;
    o.max_queue = jobs_.size();
    o.timeslice_traces = kServeTimeslice;
    o.threads = 1;
    o.poll_ms = 20;
    o.idle_polls = 2;
    const serve::ServeReport rep = serve::serve(o);
    SLM_REQUIRE(rep.jobs_admitted == jobs_.size() &&
                    rep.jobs_completed == jobs_.size() &&
                    rep.jobs_failed == 0 && rep.jobs_rejected == 0,
                "serve_preempt: not every job completed");
    OpResult r;
    std::vector<std::string> lines;
    for (const serve::JobSpec& s : jobs_) {
      std::ifstream is(results_ + "/" + s.id + "/result.json");
      std::string line;
      std::getline(is, line);
      lines.push_back(line);
      r.traces += static_cast<double>(s.traces);
    }
    r.outcome = results_outcome(lines);
    r.jobs = static_cast<double>(rep.jobs_completed);
    read_stream(r.turnaround_s);
    stats_.slices = static_cast<double>(rep.slices);
    stats_.preemptions = static_cast<double>(rep.preemptions);
    return r;
  }
  OpResult observed(slm::obs::CampaignObserver&) override {
    // Every serve job already runs under its own observer; the daemon's
    // metrics land in results/serve.jsonl.
    return op();
  }
  ServeStats serve_stats() const override { return stats_; }

  // Re-run the last op's slices, in its order, through the walk.
  OpResult walk(Tracer& tr, WalkCounts& counts) override {
    SLM_REQUIRE(!slices_.empty(), "serve_preempt: walk needs a prior op");
    fs::remove_all(walk_dir_);
    std::map<std::string, std::string> done;
    Lane& L = tr.coordinator();
    for (const SliceEvent& ev : slices_) {
      const serve::JobSpec& s = spec(ev.job);
      std::unique_ptr<core::StealthyAttack> a;
      {
        Span sp(L, Layer::kSetup);
        a = std::make_unique<core::StealthyAttack>(s.circuit);
        sp.add(1, 0);
      }
      const SliceSpec slice{walk_dir_ + "/" + s.id + "/ckpt", ev.halt_after};
      slm::obs::JsonWriter w = header(s);
      if (s.kind == serve::JobKind::kAttack) {
        const auto r = walk_byte_campaign(
            tr, a->setup(),
            a->byte_campaign_config(s.key_byte, s.traces, s.mode), slice, "",
            counts);
        if (!r.completed) continue;
        const auto& k = r.report;
        w.field("key_byte", static_cast<std::uint64_t>(s.key_byte))
            .field("success", k.success)
            .field("true", hex_byte(k.true_value))
            .field("recovered", hex_byte(k.recovered))
            .field("mtd_traces",
                   static_cast<std::uint64_t>(k.mtd.traces.value_or(0)))
            .field("margin", hexfloat(k.mtd.final_margin));
      } else if (s.kind == serve::JobKind::kFullKey) {
        const auto r = walk_fullkey(
            tr, a->setup(), a->fullkey_campaign_config(s.traces, s.mode),
            core::FullKeyConfig{}, 1, slice, counts);
        if (!r.completed) continue;
        const auto& k = r.report;
        w.field("success", k.success)
            .field("last_round_key", crypto::block_to_hex(k.last_round_key))
            .field("master_key", crypto::block_to_hex(k.master_key))
            .field("bytes_early_exited",
                   static_cast<std::uint64_t>(k.bytes_early_exited));
      } else {
        {
          Span sp(L, Layer::kCampaignCtor);
          const core::CpaCampaign c(
              a->setup(),
              a->fullkey_campaign_config(kServeStoreTraces, s.mode));
          sp.add(1, 0);
        }
        const auto lrk = a->setup().victim().cipher().last_round_key();
        const auto r = walk_replay(
            tr, s.store, core::checkpoint_schedule({}, kServeStoreTraces), lrk,
            counts);
        w.field("store_kind", store::store_kind_name(store::StoreKind::kFullKey))
            .field("store_traces", static_cast<std::uint64_t>(r.traces))
            .field("attack_recovered", hex_byte(r.attack.recovered_guess))
            .field("attack_success", r.attack.key_recovered)
            .field("master_key",
                   crypto::block_to_hex(crypto::recover_master_key(
                       r.fullkey.recovered_last_round_key)))
            .field("fullkey_success", r.fullkey.success)
            .field("leakage_detected", r.tvla.leakage_detected)
            .field("max_abs_t", hexfloat(r.tvla.max_abs_t))
            .field("success", r.fullkey.success);
      }
      done[s.id] = w.str();
    }
    OpResult r;
    std::vector<std::string> lines;
    for (const serve::JobSpec& s : jobs_) {
      lines.push_back(done.count(s.id) ? done[s.id] : "missing");
      r.traces += static_cast<double>(s.traces);
    }
    r.outcome = results_outcome(lines);
    r.jobs = static_cast<double>(done.size());
    return r;
  }

 private:
  const serve::JobSpec& spec(const std::string& id) const {
    for (const serve::JobSpec& s : jobs_) {
      if (s.id == id) return s;
    }
    throw slm::Error("serve_preempt: unknown job '" + id + "'");
  }
  static slm::obs::JsonWriter header(const serve::JobSpec& s) {
    slm::obs::JsonWriter w;
    w.field("job", s.id)
        .field("tenant", s.tenant)
        .field("kind", serve::job_kind_name(s.kind))
        .field("circuit", serve::circuit_cli_name(s.circuit))
        .field("mode", serve::mode_cli_name(s.mode))
        .field("traces", static_cast<std::uint64_t>(s.traces));
    return w;
  }
  static std::string results_outcome(const std::vector<std::string>& lines) {
    Digest d;
    for (const std::string& l : lines) d.add(l);
    return "jobs=" + std::to_string(lines.size()) + " results=" + d.hex();
  }
  // Slices, queue waits and turnarounds from the daemon's serve.jsonl:
  // a job is ready at admission and again at each preemption.
  void read_stream(std::vector<double>& turnaround) {
    std::ifstream is(results_ + "/serve.jsonl");
    std::map<std::string, double> admitted, ready, started;
    slices_.clear();
    stats_.queue_wait_s.clear();
    stats_.slice_s.clear();
    std::string line;
    while (std::getline(is, line)) {
      const auto obj = slm::obs::FlatJson::parse(line);
      const auto ev = obj.string_field("ev");
      const auto job = obj.string_field("job");
      const auto ts = obj.number_field("ts");
      if (!ev || !job || !ts) continue;
      if (*ev == "job_admitted") {
        admitted[*job] = ready[*job] = *ts;
      } else if (*ev == "job_slice_start") {
        slices_.push_back(SliceEvent{
            *job, static_cast<std::size_t>(obj.uint_field("from").value_or(0)),
            static_cast<std::size_t>(
                obj.uint_field("halt_after").value_or(0))});
        stats_.queue_wait_s.push_back(*ts - ready[*job]);
        started[*job] = *ts;
      } else if (*ev == "job_preempted") {
        stats_.slice_s.push_back(*ts - started[*job]);
        ready[*job] = *ts;
      } else if (*ev == "job_done") {
        stats_.slice_s.push_back(*ts - started[*job]);
        turnaround.push_back(*ts - admitted[*job]);
      }
    }
  }

  std::string store_path_;
  std::string spool_;
  std::string results_;
  std::string walk_dir_;
  std::vector<serve::JobSpec> jobs_;
  std::unique_ptr<core::StealthyAttack> attack_;
  std::vector<SliceEvent> slices_;
  ServeStats stats_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        unsigned variant,
                                        const std::string& work_dir) {
  variant %= kVariants;
  if (name == "attack_alu_hw") return std::make_unique<AttackAluHw>(variant);
  if (name == "fullkey_tdc_sharded") {
    return std::make_unique<FullKeyTdc>(variant);
  }
  if (name == "replay_analyze") {
    return std::make_unique<ReplayAnalyze>(variant, work_dir);
  }
  if (name == "serve_preempt") {
    return std::make_unique<ServePreempt>(variant, work_dir);
  }
  throw slm::Error("unknown workload '" + name + "'");
}

}  // namespace slmperf
