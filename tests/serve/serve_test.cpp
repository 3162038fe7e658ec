// Campaign-as-a-service: fair-share scheduling, admission control, and
// the preempt -> resume bit-exactness bar. The headline property mirrors
// resume_test at the daemon level: a job served in checkpoint-bounded
// timeslices (including across a simulated daemon kill + restart) must
// produce a result.json byte-identical to the same job served
// uninterrupted.
#include "serve/daemon.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/attack.hpp"
#include "obs/jsonl.hpp"
#include "serve/job.hpp"
#include "serve/scheduler.hpp"

namespace slm::serve {
namespace {

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

QueuedJob make_job(const std::string& id, const std::string& tenant,
                   std::int64_t priority = 0) {
  QueuedJob j;
  j.spec.id = id;
  j.spec.tenant = tenant;
  j.spec.priority = priority;
  return j;
}

void write_job_file(const std::string& spool, const JobSpec& spec) {
  std::filesystem::create_directories(spool);
  std::ofstream out(spool + "/" + spec.id + ".json", std::ios::binary);
  out << job_to_json(spec);
  ASSERT_TRUE(out.good());
}

JobSpec attack_spec(const std::string& id, const std::string& tenant,
                    std::uint64_t traces, std::uint64_t key_byte) {
  JobSpec s;
  s.id = id;
  s.tenant = tenant;
  s.kind = JobKind::kAttack;
  s.traces = traces;
  s.key_byte = key_byte;
  return s;
}

// ---------------------------------------------------------------------
// FairShareScheduler
// ---------------------------------------------------------------------

TEST(FairShareSchedulerTest, LeastChargedTenantPopsFirst) {
  FairShareScheduler sched(8);
  sched.admit(make_job("a1", "alice"));
  sched.admit(make_job("b1", "bob"));
  sched.charge("alice", 1000);  // alice already got service

  auto j = sched.next();
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(j->spec.tenant, "bob");  // bob is behind, he goes first
}

TEST(FairShareSchedulerTest, AdmissionOrderBreaksTenantTies) {
  FairShareScheduler sched(8);
  sched.admit(make_job("a1", "alice"));
  sched.admit(make_job("b1", "bob"));
  sched.admit(make_job("a2", "alice"));

  // All tenants at charge 0: strict admission order.
  EXPECT_EQ(sched.next()->spec.id, "a1");
  EXPECT_EQ(sched.next()->spec.id, "b1");
  EXPECT_EQ(sched.next()->spec.id, "a2");
}

TEST(FairShareSchedulerTest, PriorityOrdersWithinATenant) {
  FairShareScheduler sched(8);
  sched.admit(make_job("low", "alice", 0));
  sched.admit(make_job("high", "alice", 5));

  // Same tenant, same charge: the later-admitted high-priority job
  // still jumps the earlier low-priority one.
  EXPECT_EQ(sched.next()->spec.id, "high");
  EXPECT_EQ(sched.next()->spec.id, "low");
}

TEST(FairShareSchedulerTest, FairnessDominatesPriority) {
  // No cross-tenant priority inversion: a tenant cannot starve others
  // by marking every job high priority — cumulative service decides
  // first, priority only orders a tenant's own backlog.
  FairShareScheduler sched(8);
  sched.admit(make_job("loud1", "loud", 100));
  sched.admit(make_job("loud2", "loud", 100));
  sched.admit(make_job("quiet1", "quiet", 0));

  auto first = sched.next();
  ASSERT_TRUE(first.has_value());
  sched.charge(first->spec.tenant, 500);

  auto second = sched.next();
  ASSERT_TRUE(second.has_value());
  // Whoever went first, the OTHER tenant goes second.
  EXPECT_NE(second->spec.tenant, first->spec.tenant);
}

TEST(FairShareSchedulerTest, BoundedQueueRejectsAtCapacity) {
  FairShareScheduler sched(2);
  sched.admit(make_job("j1", "alice"));
  sched.admit(make_job("j2", "bob"));
  EXPECT_EQ(sched.depth(), 2u);
  EXPECT_THROW(sched.admit(make_job("j3", "carol")), QueueFullError);
  EXPECT_EQ(sched.depth(), 2u);  // rejected job left no residue
}

TEST(FairShareSchedulerTest, TryAdmitRefusesWithoutThrowing) {
  // The spool watcher's admission path: a refusal must come back as
  // `false`, never as an exception (an exception escaping the watcher
  // thread would std::terminate the daemon).
  FairShareScheduler sched(1);
  EXPECT_TRUE(sched.try_admit(make_job("j1", "alice")));
  EXPECT_FALSE(sched.try_admit(make_job("j2", "bob")));
  EXPECT_EQ(sched.depth(), 1u);

  // The daemon's admission race: the loop pops (freeing a slot), the
  // watcher's depth check passes, then the capacity-exempt requeue
  // refills the queue. try_admit re-checks under the lock and refuses.
  auto running = sched.next();
  ASSERT_TRUE(running.has_value());
  EXPECT_EQ(sched.depth(), 0u);  // a depth check would pass here...
  sched.requeue(*running);       // ...but the preempted job returns
  EXPECT_FALSE(sched.try_admit(make_job("j3", "carol")));
  EXPECT_EQ(sched.next()->spec.id, "j1");
}

TEST(FairShareSchedulerTest, RequeueIsCapacityExempt) {
  FairShareScheduler sched(1);
  sched.admit(make_job("j1", "alice"));
  auto running = sched.next();
  ASSERT_TRUE(running.has_value());
  sched.admit(make_job("j2", "bob"));  // queue full again

  // Preempting j1 must never bounce it — it was already admitted and
  // holds a checkpoint.
  running->traces_done = 500;
  EXPECT_NO_THROW(sched.requeue(*running));
  EXPECT_EQ(sched.depth(), 2u);
}

TEST(FairShareSchedulerTest, RequeueKeepsSeqAheadOfLaterSubmissions) {
  FairShareScheduler sched(8);
  sched.admit(make_job("first", "alice"));
  auto running = sched.next();
  ASSERT_TRUE(running.has_value());
  sched.admit(make_job("second", "alice"));
  sched.requeue(*running);

  // The preempted job keeps its original admission slot, so at equal
  // charge/priority it resumes before the tenant's newer job.
  EXPECT_EQ(sched.next()->spec.id, "first");
  EXPECT_EQ(sched.next()->spec.id, "second");
}

TEST(FairShareSchedulerTest, ScheduleIsDeterministic) {
  auto run_once = [] {
    FairShareScheduler sched(8);
    sched.admit(make_job("a1", "alice"));
    sched.admit(make_job("b1", "bob", 2));
    sched.admit(make_job("c1", "carol"));
    sched.admit(make_job("a2", "alice", 9));
    std::vector<std::string> order;
    while (auto j = sched.next()) {
      order.push_back(j->spec.id);
      sched.charge(j->spec.tenant, 100);
    }
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(FairShareSchedulerTest, SharesMergeChargedAndPending) {
  FairShareScheduler sched(8);
  sched.admit(make_job("a1", "alice"));
  sched.admit(make_job("a2", "alice"));
  sched.charge("bob", 700);  // bob finished everything already

  auto shares = sched.shares();
  ASSERT_EQ(shares.size(), 2u);  // sorted by tenant name
  EXPECT_EQ(shares[0].tenant, "alice");
  EXPECT_EQ(shares[0].charged, 0u);
  EXPECT_EQ(shares[0].pending, 2u);
  EXPECT_EQ(shares[1].tenant, "bob");
  EXPECT_EQ(shares[1].charged, 700u);
  EXPECT_EQ(shares[1].pending, 0u);
}

// ---------------------------------------------------------------------
// Job specs
// ---------------------------------------------------------------------

TEST(JobSpecTest, JsonRoundTrips) {
  JobSpec s;
  s.id = "job_0007_eve";
  s.tenant = "eve";
  s.priority = -3;
  s.kind = JobKind::kFullKey;
  s.circuit = core::BenignCircuit::kC6288x2;
  s.mode = core::SensorMode::kBenignHw;
  s.traces = 12345;

  const JobSpec back = parse_job_json(job_to_json(s), "test");
  EXPECT_EQ(back.id, s.id);
  EXPECT_EQ(back.tenant, s.tenant);
  EXPECT_EQ(back.priority, s.priority);
  EXPECT_EQ(back.kind, s.kind);
  EXPECT_EQ(back.circuit, s.circuit);
  EXPECT_EQ(back.mode, s.mode);
  EXPECT_EQ(back.traces, s.traces);
}

TEST(JobSpecTest, AnalyzeJobsRoundTripTheStorePath) {
  JobSpec s;
  s.id = "job_0009_eve";
  s.tenant = "eve";
  s.kind = JobKind::kAnalyze;
  s.store = "results/eve/run.trc";

  const JobSpec back = parse_job_json(job_to_json(s), "test");
  EXPECT_EQ(back.kind, JobKind::kAnalyze);
  EXPECT_EQ(back.store, s.store);

  // Pre-analyze specs never carried a "store" field; their serialized
  // form must stay byte-stable, so the field is emitted only when set.
  JobSpec legacy;
  legacy.tenant = "bob";
  EXPECT_EQ(job_to_json(legacy).find("store"), std::string::npos);
}

TEST(JobSpecTest, RejectsBadSpecs) {
  // Missing tenant.
  EXPECT_THROW(parse_job_json(R"({"kind":"attack","traces":100})", "t"),
               JobSpecError);
  // Zero trace budget.
  EXPECT_THROW(
      parse_job_json(R"({"tenant":"a","kind":"attack","traces":0})", "t"),
      JobSpecError);
  // Unknown kind / circuit / mode.
  EXPECT_THROW(parse_job_json(R"({"tenant":"a","kind":"dance"})", "t"),
               JobSpecError);
  EXPECT_THROW(parse_job_json(R"({"tenant":"a","circuit":"fpga"})", "t"),
               JobSpecError);
  EXPECT_THROW(parse_job_json(R"({"tenant":"a","mode":"psychic"})", "t"),
               JobSpecError);
  // Unknown field — typos must not be silently ignored.
  EXPECT_THROW(parse_job_json(R"({"tenant":"a","trace":100})", "t"),
               JobSpecError);
  // Key byte out of range.
  EXPECT_THROW(parse_job_json(R"({"tenant":"a","key_byte":16})", "t"),
               JobSpecError);
  // The process fabric is retired: a job that asks for it is refused
  // by name, whatever its kind. The 0 older job files carry is accepted.
  for (const char* json :
       {R"({"tenant":"a","kind":"tvla","fabric_shards":2})",
        R"({"tenant":"a","kind":"attack","fabric_shards":4})",
        R"({"tenant":"a","fabric_shards":"2"})"}) {
    try {
      (void)parse_job_json(json, "t");
      ADD_FAILURE() << "accepted " << json;
    } catch (const JobSpecError& e) {
      EXPECT_NE(std::string(e.what()).find("process fabric is gone"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_NO_THROW(
      parse_job_json(R"({"tenant":"a","kind":"tvla","fabric_shards":0})", "t"));
  // Analyze jobs replay a store — the path is mandatory, and no other
  // kind accepts one.
  EXPECT_THROW(parse_job_json(R"({"tenant":"a","kind":"analyze"})", "t"),
               JobSpecError);
  EXPECT_THROW(
      parse_job_json(R"({"tenant":"a","kind":"attack","store":"x.trc"})", "t"),
      JobSpecError);
  // Malformed JSON.
  EXPECT_THROW(parse_job_json(R"({"tenant":"a",)", "t"), Error);
}

TEST(JobSpecTest, RejectsPathTraversalIds) {
  // Ids become results-directory names (<results>/<id>) and the spool
  // is tenant-writable, so separators, "..", and hidden names must all
  // be refused at parse time — before the daemon creates anything.
  for (const char* id : {"../../x", "a/b", "..", "a\\b", ".hidden", ""}) {
    const std::string json =
        std::string(R"({"tenant":"a","id":")") + id + R"("})";
    EXPECT_THROW(parse_job_json(json, "t"), JobSpecError) << id;
  }
  // The shapes `slm submit` mints stay accepted.
  EXPECT_EQ(parse_job_json(R"({"tenant":"a","id":"job_0007_a-b.c"})", "t").id,
            "job_0007_a-b.c");
}

// ---------------------------------------------------------------------
// FlatJson (the serve-side inverse of obs::JsonWriter)
// ---------------------------------------------------------------------

TEST(FlatJsonTest, ParsesTypedFields) {
  const auto j = obs::FlatJson::parse(
      R"({"ev":"job_done","traces":3000,"ok":true,"margin":-0.25,)"
      R"("note":"a\"b\\c\nd","nested":{"x":[1,2]},"gone":null})");
  EXPECT_EQ(j.string_field("ev"), "job_done");
  EXPECT_EQ(j.uint_field("traces"), 3000u);
  EXPECT_EQ(j.bool_field("ok"), true);
  EXPECT_EQ(j.number_field("margin"), -0.25);
  EXPECT_EQ(j.string_field("note"), "a\"b\\c\nd");  // escapes decoded
  EXPECT_TRUE(j.has("nested"));
  EXPECT_TRUE(j.has("gone"));
  EXPECT_FALSE(j.has("absent"));
}

TEST(FlatJsonTest, TypeMismatchesYieldNullopt) {
  const auto j = obs::FlatJson::parse(R"({"s":"x","n":-1,"f":1.5})");
  EXPECT_EQ(j.number_field("s"), std::nullopt);
  EXPECT_EQ(j.string_field("n"), std::nullopt);
  EXPECT_EQ(j.uint_field("n"), std::nullopt);  // negative
  EXPECT_EQ(j.uint_field("f"), std::nullopt);  // non-integral
  EXPECT_EQ(j.bool_field("s"), std::nullopt);
}

TEST(FlatJsonTest, MalformedInputThrows) {
  EXPECT_THROW(obs::FlatJson::parse(""), Error);
  EXPECT_THROW(obs::FlatJson::parse("[1,2]"), Error);
  EXPECT_THROW(obs::FlatJson::parse(R"({"a":1)"), Error);
  EXPECT_THROW(obs::FlatJson::parse(R"({"a":1} trailing)"), Error);
  EXPECT_THROW(obs::FlatJson::parse(R"({"a" 1})"), Error);
}

// ---------------------------------------------------------------------
// serve(): the daemon loop end to end
// ---------------------------------------------------------------------

// Small enough to run in well under a second each, large enough that a
// 400-trace timeslice lands several checkpoint preemptions (tdc-mode
// attacks on the ALU circuit disclose the key byte around 500 traces).
constexpr std::uint64_t kAttackTraces = 1200;

void submit_three_tenants(const std::string& spool) {
  write_job_file(spool, attack_spec("job_a", "alice", kAttackTraces, 3));
  write_job_file(spool, attack_spec("job_b", "bob", kAttackTraces, 5));
  JobSpec tvla;
  tvla.id = "job_c";
  tvla.tenant = "carol";
  tvla.kind = JobKind::kTvla;
  tvla.traces = 600;
  write_job_file(spool, tvla);
}

ServeOptions base_options(const std::string& spool,
                          const std::string& results) {
  ServeOptions opt;
  opt.spool_dir = spool;
  opt.results_dir = results;
  opt.threads = 2;
  opt.poll_ms = 1;
  return opt;
}

const std::vector<std::string> kJobIds = {"job_a", "job_b", "job_c"};

TEST(ServeDaemonTest, PreemptedResultsAreByteIdenticalToUninterrupted) {
  const std::string spool_ref = fresh_dir("serve_ref_spool");
  const std::string results_ref = fresh_dir("serve_ref_results");
  submit_three_tenants(spool_ref);
  const ServeReport ref = serve(base_options(spool_ref, results_ref));
  EXPECT_EQ(ref.jobs_admitted, 3u);
  EXPECT_EQ(ref.jobs_completed, 3u);
  EXPECT_EQ(ref.jobs_failed, 0u);
  EXPECT_EQ(ref.preemptions, 0u);  // no timeslice -> run to completion
  EXPECT_FALSE(ref.halted);

  const std::string spool_ts = fresh_dir("serve_ts_spool");
  const std::string results_ts = fresh_dir("serve_ts_results");
  submit_three_tenants(spool_ts);
  ServeOptions opt = base_options(spool_ts, results_ts);
  opt.timeslice_traces = 400;
  const ServeReport ts = serve(opt);
  EXPECT_EQ(ts.jobs_completed, 3u);
  EXPECT_GT(ts.preemptions, 0u);  // the slicing actually happened
  EXPECT_GT(ts.slices, 3u);

  // The bar: byte-identical result files, preempted vs uninterrupted.
  for (const auto& id : kJobIds) {
    EXPECT_EQ(slurp(results_ts + "/" + id + "/result.json"),
              slurp(results_ref + "/" + id + "/result.json"))
        << id;
  }
}

TEST(ServeDaemonTest, KilledDaemonResumesBitExactlyOnRestart) {
  const std::string spool_ref = fresh_dir("serve_kref_spool");
  const std::string results_ref = fresh_dir("serve_kref_results");
  submit_three_tenants(spool_ref);
  serve(base_options(spool_ref, results_ref));

  const std::string spool = fresh_dir("serve_kill_spool");
  const std::string results = fresh_dir("serve_kill_results");
  submit_three_tenants(spool);
  ServeOptions opt = base_options(spool, results);
  opt.timeslice_traces = 400;
  opt.max_slices = 2;  // "kill" the daemon with work still queued
  const ServeReport killed = serve(opt);
  EXPECT_TRUE(killed.halted);
  EXPECT_EQ(killed.slices, 2u);
  EXPECT_LT(killed.jobs_completed, 3u);

  // Unfinished jobs are visible as job.json without result.json.
  std::size_t unfinished = 0;
  for (const auto& id : kJobIds) {
    if (std::filesystem::exists(results + "/" + id + "/job.json") &&
        !std::filesystem::exists(results + "/" + id + "/result.json")) {
      ++unfinished;
    }
  }
  EXPECT_GT(unfinished, 0u);

  // Restart over the same directories: recovery re-admits every
  // unfinished job at its checkpoint and drains.
  ServeOptions again = base_options(spool, results);
  again.timeslice_traces = 400;
  const ServeReport resumed = serve(again);
  EXPECT_EQ(resumed.jobs_recovered, unfinished);
  EXPECT_FALSE(resumed.halted);
  EXPECT_EQ(killed.jobs_completed + resumed.jobs_completed, 3u);

  for (const auto& id : kJobIds) {
    EXPECT_EQ(slurp(results + "/" + id + "/result.json"),
              slurp(results_ref + "/" + id + "/result.json"))
        << id;
  }
}

// The last value the daemon's run_end manifest reports for a counter.
double manifest_counter(const std::string& feed, const std::string& name) {
  const std::size_t at = feed.rfind("\"" + name + "\":");
  if (at == std::string::npos) return 0.0;
  return std::stod(feed.substr(at + name.size() + 3));
}

TEST(ServeDaemonTest, PreemptedBenignHwJobRunsItsPrepassOnce) {
  // A benign-HW job sliced at every checkpoint next to a TDC job: every
  // slice rebuilds the campaign, but only the first runs the 4000-trace
  // bits-of-interest pre-pass; the later ones reuse it from the
  // daemon's set-up memo, and the result is byte-identical to an
  // uninterrupted run's.
  //
  // Both jobs are staged as admitted-but-unfinished (results/<id>/
  // job.json), so the restart scan queues them together before the
  // loop starts. Spooled, the loop could pop job_hw before the watcher
  // admits job_tdc, and a job alone in the queue is never preempted.
  JobSpec hw = attack_spec("job_hw", "alice", kAttackTraces, 3);
  hw.mode = core::SensorMode::kBenignHw;
  const auto stage = [&](const std::string& results) {
    for (const JobSpec& spec :
         {hw, attack_spec("job_tdc", "bob", kAttackTraces, 5)}) {
      std::filesystem::create_directories(results + "/" + spec.id);
      std::ofstream out(results + "/" + spec.id + "/job.json",
                        std::ios::binary);
      out << job_to_json(spec);
      ASSERT_TRUE(out.good());
    }
  };
  const std::string spool_ref = fresh_dir("serve_memo_ref_spool");
  const std::string results_ref = fresh_dir("serve_memo_ref_results");
  stage(results_ref);
  serve(base_options(spool_ref, results_ref));

  const std::string spool = fresh_dir("serve_memo_spool");
  const std::string results = fresh_dir("serve_memo_results");
  stage(results);
  ServeOptions opt = base_options(spool, results);
  opt.timeslice_traces = 100;
  const ServeReport rep = serve(opt);
  EXPECT_EQ(rep.jobs_completed, 2u);
  EXPECT_EQ(slurp(results + "/job_hw/result.json"),
            slurp(results_ref + "/job_hw/result.json"));

  std::vector<std::string> prepass;
  std::istringstream events(slurp(results + "/job_hw/events.jsonl"));
  for (std::string line; std::getline(events, line);) {
    const obs::FlatJson ev = obs::FlatJson::parse(line);
    if (ev.string_field("ev") == "run_start") {
      prepass.push_back(ev.string_field("prepass").value_or("?"));
    }
  }
  ASSERT_GE(prepass.size(), 3u);  // preempted at least twice
  EXPECT_EQ(prepass[0], "ran");
  for (std::size_t i = 1; i < prepass.size(); ++i) {
    EXPECT_EQ(prepass[i], "reused") << "slice " << i;
  }

  // Every later slice hit both the response matrix and the pre-pass.
  const std::string feed = slurp(results + "/serve.jsonl");
  const double later = static_cast<double>(prepass.size() - 1);
  EXPECT_GE(manifest_counter(feed, "slm.campaign.setup_memo_hits_total"),
            2.0 * later);
  EXPECT_GE(manifest_counter(feed, "slm.campaign.setup_memo_misses_total"),
            2.0);
  // One queue wait per slice, one turnaround per finished job.
  EXPECT_NE(feed.find("\"slm.serve.queue_wait_seconds\":{\"count\":" +
                      std::to_string(rep.slices) + ","),
            std::string::npos);
  EXPECT_NE(feed.find("\"slm.serve.turnaround_seconds\":{\"count\":2,"),
            std::string::npos);
}

TEST(ServeDaemonTest, RecoversJobFileWithRetiredZeroFabricShards) {
  // Job files written before the process fabric was retired carry
  // "fabric_shards":0 (job_to_json wrote it into every spool file and
  // results/<id>/job.json). A daemon restarted across the upgrade must
  // still recover such a job, and finish it as it would a current one.
  const std::string spool_ref = fresh_dir("serve_old_ref_spool");
  const std::string results_ref = fresh_dir("serve_old_ref_results");
  write_job_file(spool_ref,
                 attack_spec("job_old", "alice", kAttackTraces, 3));
  serve(base_options(spool_ref, results_ref));

  const std::string spool = fresh_dir("serve_old_spool");
  const std::string results = fresh_dir("serve_old_results");
  std::filesystem::create_directories(results + "/job_old");
  {
    std::ofstream out(results + "/job_old/job.json", std::ios::binary);
    out << R"({"id":"job_old","tenant":"alice","priority":0,)"
           R"("kind":"attack","circuit":"alu","mode":"tdc",)"
           R"("traces":1200,"key_byte":3,"fabric_shards":0})"
        << "\n";
  }
  const ServeReport rep = serve(base_options(spool, results));
  EXPECT_EQ(rep.jobs_recovered, 1u);
  EXPECT_EQ(rep.jobs_completed, 1u);
  EXPECT_EQ(rep.jobs_failed, 0u);
  EXPECT_EQ(slurp(results + "/job_old/result.json"),
            slurp(results_ref + "/job_old/result.json"));
}

TEST(ServeDaemonTest, MalformedSpoolFileIsRejectedNotFatal) {
  const std::string spool = fresh_dir("serve_rej_spool");
  const std::string results = fresh_dir("serve_rej_results");
  std::filesystem::create_directories(spool);
  {
    std::ofstream bad(spool + "/job_bad.json", std::ios::binary);
    bad << R"({"tenant":"mallory","kind":"nonsense"})";
  }
  write_job_file(spool, attack_spec("job_ok", "alice", kAttackTraces, 3));

  const ServeReport rep = serve(base_options(spool, results));
  EXPECT_EQ(rep.jobs_admitted, 1u);
  EXPECT_EQ(rep.jobs_rejected, 1u);
  EXPECT_EQ(rep.jobs_completed, 1u);
  // Rejected files are quarantined for inspection, never deleted.
  EXPECT_TRUE(std::filesystem::exists(spool + "/rejected/job_bad.json"));
  EXPECT_TRUE(std::filesystem::exists(results + "/job_ok/result.json"));
}

TEST(ServeDaemonTest, AnalyzeJobsReplayAStoreDeterministically) {
  // Capture a byte-campaign store under the exact defaults the daemon
  // reconstructs from the store identity, then serve an analyze job
  // against it twice: both runs must complete and write byte-identical
  // result files (the fused replay is a pure function of the store).
  const std::string store_path =
      fresh_dir("serve_analyze_capture") + ".trc";
  std::filesystem::remove(store_path);
  core::StealthyAttack attack(core::BenignCircuit::kAlu);
  core::CampaignConfig cfg =
      attack.byte_campaign_config(3, 600, core::SensorMode::kTdcFull);
  cfg.store_out = store_path;
  core::CpaCampaign capture(attack.setup(), cfg);
  capture.run();
  ASSERT_TRUE(std::filesystem::exists(store_path));

  JobSpec spec;
  spec.id = "job_an";
  spec.tenant = "dora";
  spec.kind = JobKind::kAnalyze;
  spec.store = store_path;

  std::vector<std::string> results_json;
  for (const char* tag : {"serve_an1", "serve_an2"}) {
    const std::string spool = fresh_dir(std::string(tag) + "_spool");
    const std::string results = fresh_dir(std::string(tag) + "_results");
    write_job_file(spool, spec);
    const ServeReport rep = serve(base_options(spool, results));
    EXPECT_EQ(rep.jobs_admitted, 1u);
    EXPECT_EQ(rep.jobs_completed, 1u);
    EXPECT_EQ(rep.jobs_failed, 0u);
    results_json.push_back(slurp(results + "/job_an/result.json"));
  }
  EXPECT_EQ(results_json[0], results_json[1]);
  // The fused pass ran all three analyses over the one store sweep.
  EXPECT_NE(results_json[0].find("\"store_kind\":\"byte-campaign\""),
            std::string::npos);
  EXPECT_NE(results_json[0].find("attack_recovered"), std::string::npos);
  EXPECT_NE(results_json[0].find("master_key"), std::string::npos);
  EXPECT_NE(results_json[0].find("leakage_detected"), std::string::npos);
  std::filesystem::remove(store_path);
}

TEST(ServeDaemonTest, AnalyzeJobWithMissingStoreFailsNotFatal) {
  const std::string spool = fresh_dir("serve_anbad_spool");
  const std::string results = fresh_dir("serve_anbad_results");
  JobSpec spec;
  spec.id = "job_ghost";
  spec.tenant = "eve";
  spec.kind = JobKind::kAnalyze;
  spec.store = fresh_dir("serve_anbad") + "/no_such.trc";
  write_job_file(spool, spec);
  write_job_file(spool, attack_spec("job_ok", "alice", kAttackTraces, 3));

  const ServeReport rep = serve(base_options(spool, results));
  EXPECT_EQ(rep.jobs_admitted, 2u);
  EXPECT_EQ(rep.jobs_failed, 1u);
  EXPECT_EQ(rep.jobs_completed, 1u);
  EXPECT_TRUE(std::filesystem::exists(results + "/job_ok/result.json"));
  // The failed job still writes a record (so restart never retries it
  // forever), marked failed.
  EXPECT_NE(slurp(results + "/job_ghost/result.json").find("\"failed\":true"),
            std::string::npos);
}

TEST(ServeDaemonTest, StatusReflectsTheFeed) {
  const std::string spool = fresh_dir("serve_st_spool");
  const std::string results = fresh_dir("serve_st_results");
  submit_three_tenants(spool);
  ServeOptions opt = base_options(spool, results);
  opt.timeslice_traces = 400;
  const ServeReport rep = serve(opt);

  const StatusSummary st = read_status(results, spool);
  EXPECT_TRUE(st.found);
  EXPECT_EQ(st.queue_depth, 0u);
  EXPECT_EQ(st.completed, rep.jobs_completed);
  EXPECT_EQ(st.failed, 0u);
  EXPECT_EQ(st.slices, rep.slices);
  EXPECT_EQ(st.preemptions, rep.preemptions);
  EXPECT_EQ(st.spool_pending, 0u);
  ASSERT_EQ(st.tenants.size(), 3u);
  EXPECT_EQ(st.tenants[0].tenant, "alice");
  EXPECT_EQ(st.tenants[0].charged, kAttackTraces);

  // No feed at all -> found == false, everything zero.
  const StatusSummary none = read_status(fresh_dir("serve_st_none"), spool);
  EXPECT_FALSE(none.found);
}

}  // namespace
}  // namespace slm::serve
