#include "serve/daemon.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>

#include "common/binio.hpp"
#include "common/error.hpp"
#include "core/attack.hpp"
#include "core/checkpoint.hpp"
#include "core/parallel.hpp"
#include "core/setup_memo.hpp"
#include "crypto/aes128.hpp"
#include "obs/jsonl.hpp"
#include "store/replay.hpp"
#include "store/trace_store.hpp"

namespace slm::serve {

namespace fs = std::filesystem;

namespace {

std::string hex_byte(std::uint8_t b) {
  char buf[8];
  std::snprintf(buf, sizeof buf, "0x%02x", b);
  return buf;
}

// Hexfloat: the exact bits, so byte-comparing two result files IS the
// bit-exactness claim.
std::string hexfloat(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// Atomic write: result.json appearing at all means the job finished —
/// a daemon killed mid-write (or refused a short write) leaves only the
/// tmp file, and the restart recovery scan reruns the job from its
/// checkpoint.
void write_atomic(const std::string& path, const std::string& body) {
  write_file_atomic(
      path, [&body](std::ostream& os) { os << body << '\n'; }, "serve");
}

/// The deterministic outcome record of one job. Excludes everything
/// schedule-dependent (timings, resume points, thread counts) on
/// purpose: a preempted-and-resumed run and an uninterrupted run of the
/// same job must produce byte-identical files (serve_smoke diffs them).
struct SliceOutcome {
  bool completed = false;
  bool success = false;
  std::uint64_t traces_done = 0;  ///< resume point when preempted
  std::string result_json;        ///< set iff completed
};

obs::JsonWriter result_header(const JobSpec& spec) {
  obs::JsonWriter w;
  w.field("job", spec.id)
      .field("tenant", spec.tenant)
      .field("kind", job_kind_name(spec.kind))
      .field("circuit", circuit_cli_name(spec.circuit))
      .field("mode", mode_cli_name(spec.mode))
      .field("traces", static_cast<std::uint64_t>(spec.traces));
  return w;
}

SliceOutcome run_attack_slice(const QueuedJob& job, std::uint64_t halt_after,
                              core::ThreadPool* pool, core::SetupMemo* memo,
                              obs::CampaignObserver* job_ob) {
  const JobSpec& spec = job.spec;
  core::StealthyAttack attack(spec.circuit);
  core::RunOptions ro;
  ro.observer = job_ob;
  ro.checkpoint_dir = job.dir + "/ckpt";
  ro.resume = true;  // missing snapshot = fresh start
  ro.halt_after_traces = halt_after;
  ro.pool = pool;
  ro.setup_memo = memo;
  SliceOutcome out;
  try {
    if (spec.kind == JobKind::kFullKey) {
      core::FullKeyOptions fk;
      fk.run = ro;
      const auto r = attack.recover_full_key(spec.traces, spec.mode,
                                             /*threads=*/1, fk);
      out.completed = true;
      out.success = r.success;
      out.traces_done = spec.traces;
      obs::JsonWriter w = result_header(spec);
      w.field("success", r.success)
          .field("last_round_key", crypto::block_to_hex(r.last_round_key))
          .field("master_key", crypto::block_to_hex(r.master_key))
          .field("bytes_early_exited",
                 static_cast<std::uint64_t>(r.bytes_early_exited));
      out.result_json = w.str();
    } else {
      const auto r = attack.recover_key_byte(spec.key_byte, spec.traces,
                                             spec.mode, /*threads=*/1, ro);
      out.completed = true;
      out.success = r.success;
      out.traces_done = spec.traces;
      obs::JsonWriter w = result_header(spec);
      w.field("key_byte", static_cast<std::uint64_t>(spec.key_byte))
          .field("success", r.success)
          .field("true", hex_byte(r.true_value))
          .field("recovered", hex_byte(r.recovered))
          .field("mtd_traces",
                 static_cast<std::uint64_t>(r.mtd.traces.value_or(0)))
          .field("margin", hexfloat(r.mtd.final_margin));
      out.result_json = w.str();
    }
  } catch (const core::CampaignHalted& h) {
    out.completed = false;
    out.traces_done = h.traces();
  }
  return out;
}

SliceOutcome run_tvla_slice(const QueuedJob& job, core::SetupMemo* memo,
                            obs::CampaignObserver* job_ob) {
  const JobSpec& spec = job.spec;
  core::StealthyAttack attack(spec.circuit);
  core::CampaignConfig cfg =
      attack.byte_campaign_config(spec.key_byte, spec.traces, spec.mode);
  cfg.observer = job_ob;
  cfg.setup_memo = memo;
  core::CpaCampaign campaign(attack.setup(), cfg);
  const sca::WelchTTest t = campaign.run_tvla(spec.traces);
  SliceOutcome out;
  out.completed = true;
  out.success = true;  // an assessment always "succeeds"; leakage is data
  out.traces_done = spec.traces;
  obs::JsonWriter w = result_header(spec);
  w.field("success", true)
      .field("leakage_detected", t.leakage_detected())
      .field("max_abs_t", hexfloat(t.max_abs_t()));
  out.result_json = w.str();
  return out;
}

/// kAnalyze: one fused one-pass replay of the job's SLMTRC1 store
/// (store::replay_all), campaign inferred from the store identity the
/// same way `slm analyze` does. No capture, no checkpoints — the sweep
/// runs at fold speed, so the slice is non-preemptible by construction.
SliceOutcome run_analyze_slice(const QueuedJob& job, core::SetupMemo* memo,
                               obs::CampaignObserver* job_ob) {
  const JobSpec& spec = job.spec;
  store::TraceStoreReader reader(spec.store);
  const store::StoreIdentity& id = reader.identity();
  const store::StoreKind kind = reader.kind();
  const std::size_t n = reader.trace_count();
  const auto circuit = static_cast<core::BenignCircuit>(id.circuit);
  const auto mode = static_cast<core::SensorMode>(id.mode);
  const std::size_t key_byte = static_cast<std::size_t>(id.target_key_byte);

  core::StealthyAttack attack(circuit);
  core::CampaignConfig cfg =
      kind == store::StoreKind::kFullKey
          ? attack.fullkey_campaign_config(n, mode)
          : attack.byte_campaign_config(
                key_byte, kind == store::StoreKind::kTvla ? n / 2 : n, mode);
  // The campaign only fingerprints the store; the memo spares it the
  // response-matrix build, and the observer counts that lookup.
  cfg.observer = job_ob;
  cfg.setup_memo = memo;
  core::CpaCampaign campaign(attack.setup(), cfg);
  reader.identity().require_compatible(campaign.store_identity(kind, n),
                                       "serve analyze job " + spec.id);

  store::ReplayAllOptions aopts;
  if (kind == store::StoreKind::kTvla) {
    aopts.attack = false;
    aopts.fullkey = false;
  }
  const store::ReplayAllResult ar = store::replay_all(
      reader, core::checkpoint_schedule(cfg.checkpoints, n),
      attack.setup().victim().cipher().last_round_key(), aopts, job_ob);

  SliceOutcome out;
  out.completed = true;
  out.traces_done = n;
  obs::JsonWriter w = result_header(spec);
  w.field("store_kind", store::store_kind_name(kind))
      .field("store_traces", static_cast<std::uint64_t>(n));
  if (ar.has_attack) {
    w.field("attack_recovered", hex_byte(ar.attack.recovered_guess))
        .field("attack_success", ar.attack.key_recovered);
  }
  if (ar.has_fullkey) {
    w.field("master_key",
            crypto::block_to_hex(crypto::recover_master_key(
                ar.fullkey.recovered_last_round_key)))
        .field("fullkey_success", ar.fullkey.success);
  }
  if (ar.has_tvla) {
    w.field("leakage_detected", ar.tvla.leakage_detected)
        .field("max_abs_t", hexfloat(ar.tvla.max_abs_t));
  }
  out.success = kind == store::StoreKind::kTvla ? ar.tvla.leakage_detected
                                                : ar.fullkey.success;
  w.field("success", out.success);
  out.result_json = w.str();
  return out;
}

/// Where a slice must stop so the job yields after ~`timeslice` more
/// traces: 0 (run to completion) when no other work is queued, when
/// timeslicing is off, or when the first checkpoint past the budget is
/// already the job's final one (halting there would just re-run the
/// finish). Preemption granularity IS the checkpoint grid — that's what
/// makes it bit-exact for free.
std::uint64_t slice_halt_point(const JobSpec& spec, std::uint64_t traces_done,
                               std::uint64_t timeslice, bool others_waiting) {
  if (timeslice == 0 || !others_waiting) return 0;
  if (spec.kind == JobKind::kTvla || spec.kind == JobKind::kAnalyze) {
    return 0;  // non-preemptible: no checkpoint support
  }
  const std::uint64_t want = traces_done + timeslice;
  for (const std::size_t cp : core::checkpoint_schedule({}, spec.traces)) {
    if (cp >= want) {
      return cp >= spec.traces ? 0 : want;
    }
  }
  return 0;
}

void move_to_rejected(const fs::path& file, const fs::path& spool) {
  const fs::path dir = spool / "rejected";
  std::error_code ec;
  fs::create_directories(dir, ec);
  fs::rename(file, dir / file.filename(), ec);
  if (ec) fs::remove(file, ec);  // cross-device fallback: drop it loudly
}

std::vector<fs::path> spool_files(const fs::path& spool) {
  std::vector<fs::path> files;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(spool, ec)) {
    if (e.is_regular_file() && e.path().extension() == ".json") {
      files.push_back(e.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

}  // namespace

ServeReport serve(const ServeOptions& opt) {
  SLM_REQUIRE(!opt.spool_dir.empty(), "serve: need a spool directory");
  SLM_REQUIRE(!opt.results_dir.empty(), "serve: need a results directory");
  const fs::path spool(opt.spool_dir);
  const fs::path results(opt.results_dir);
  fs::create_directories(spool / "rejected");
  fs::create_directories(results);

  obs::CampaignObserver ob((results / "serve.jsonl").string());
  obs::MetricsRegistry& m = ob.metrics();
  FairShareScheduler sched(opt.max_queue);
  ServeReport rep;
  // Watcher-vs-loop shared counters live behind this lock; the
  // scheduler and the observer have their own.
  std::mutex rep_m;

  const unsigned threads = core::resolve_threads(opt.threads);
  core::ThreadPool pool(threads);
  // Set up each job once, not once per slice: every in-process campaign
  // borrows this memo for the daemon's lifetime.
  core::SetupMemo memo;

  ob.event("serve_start", obs::JsonWriter()
                              .field("spool", opt.spool_dir)
                              .field("results", opt.results_dir)
                              .field("max_queue",
                                     static_cast<std::uint64_t>(opt.max_queue))
                              .field("timeslice", opt.timeslice_traces)
                              .field("threads",
                                     static_cast<std::uint64_t>(threads)));

  const auto emit_state = [&](const std::string& running) {
    std::uint64_t admitted, recovered, rejected, completed, failed,
        preemptions, slices;
    {
      std::lock_guard<std::mutex> g(rep_m);
      admitted = rep.jobs_admitted;
      recovered = rep.jobs_recovered;
      rejected = rep.jobs_rejected;
      completed = rep.jobs_completed;
      failed = rep.jobs_failed;
      preemptions = rep.preemptions;
      slices = rep.slices;
    }
    const auto shares = sched.shares();
    m.set("slm.serve.queue_depth", static_cast<double>(sched.depth()));
    m.set("slm.serve.tenants", static_cast<double>(shares.size()));
    ob.event("serve_state",
             obs::JsonWriter()
                 .field("queue_depth", static_cast<std::uint64_t>(sched.depth()))
                 .field("running", running)
                 .field("slices", slices)
                 .field("admitted", admitted)
                 .field("recovered", recovered)
                 .field("rejected", rejected)
                 .field("completed", completed)
                 .field("failed", failed)
                 .field("preemptions", preemptions));
    for (const TenantShare& s : shares) {
      ob.event("tenant_share", obs::JsonWriter()
                                   .field("tenant", s.tenant)
                                   .field("charged", s.charged)
                                   .field("pending",
                                          static_cast<std::uint64_t>(s.pending)));
    }
  };

  // Restart recovery: any per-job directory with a job.json but no
  // result.json is a job a previous daemon admitted and never finished.
  // Re-admit it (capacity-exempt — it was admitted once already) at its
  // checkpoint's trace count. Fair-share charge restarts from zero:
  // service accounting is per daemon lifetime.
  {
    std::vector<fs::path> dirs;
    std::error_code ec;
    for (const auto& e : fs::directory_iterator(results, ec)) {
      if (e.is_directory() && fs::exists(e.path() / "job.json") &&
          !fs::exists(e.path() / "result.json")) {
        dirs.push_back(e.path());
      }
    }
    std::sort(dirs.begin(), dirs.end());
    std::uint64_t seq = 0;
    for (const fs::path& d : dirs) {
      QueuedJob qj;
      try {
        qj.spec = load_job_file((d / "job.json").string());
      } catch (const JobSpecError&) {
        continue;  // half-written job dir from a crash mid-admit
      }
      qj.dir = d.string();
      qj.seq = seq++;
      qj.admitted_at = qj.ready_at = obs::monotonic_seconds();
      if (const auto ck = core::load_checkpoint((d / "ckpt").string())) {
        qj.traces_done = ck->traces_done;
      }
      m.add("slm.serve.jobs_recovered_total");
      ob.event("job_recovered", obs::JsonWriter()
                                    .field("job", qj.spec.id)
                                    .field("tenant", qj.spec.tenant)
                                    .field("traces_done", qj.traces_done));
      {
        std::lock_guard<std::mutex> g(rep_m);
        ++rep.jobs_recovered;
      }
      sched.requeue(std::move(qj));
    }
  }

  // Spool watcher: the only admitter. Runs concurrently with the serve
  // loop popping — the mutex-guarded scheduler is the contended surface
  // serve_tsan races.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> empty_scans{0};
  std::thread watcher([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const std::vector<fs::path> files = spool_files(spool);
      if (files.empty()) {
        empty_scans.fetch_add(1, std::memory_order_acq_rel);
      } else {
        empty_scans.store(0, std::memory_order_release);
      }
      for (const fs::path& f : files) {
        const auto reject = [&](const char* reason) {
          move_to_rejected(f, spool);
          m.add("slm.serve.rejected");
          ob.event("job_rejected", obs::JsonWriter()
                                       .field("file", f.filename().string())
                                       .field("reason", reason));
          std::lock_guard<std::mutex> g(rep_m);
          ++rep.jobs_rejected;
        };
        // Nothing may escape this thread — an uncaught exception here is
        // std::terminate for the whole daemon — so every failure mode
        // maps to a rejection: malformed specs, a full queue, and
        // filesystem errors while staging the job directory.
        try {
          JobSpec spec = load_job_file(f.string());
          // Cheap early refusal; NOT a capacity guarantee. The serve
          // loop's capacity-exempt requeue() can refill the queue between
          // this check and the try_admit below, so admission itself must
          // (and does) re-check under the scheduler lock.
          if (sched.depth() >= sched.capacity()) {
            reject("queue_full");
            continue;
          }
          QueuedJob qj;
          qj.spec = spec;
          qj.dir = (results / spec.id).string();
          qj.admitted_at = qj.ready_at = obs::monotonic_seconds();
          if (fs::exists(qj.dir)) {
            reject("duplicate_id");
            continue;
          }
          // Admit order matters for crash safety: job.json lands in the
          // results dir FIRST (the restart scan's source of truth), the
          // in-memory admit is second (it can still refuse — see above —
          // in which case the staged directory is undone), and the spool
          // file goes away last.
          fs::create_directories(qj.dir);
          write_atomic(qj.dir + "/job.json", job_to_json(spec));
          if (!sched.try_admit(qj)) {
            std::error_code ec;
            fs::remove_all(qj.dir, ec);  // a later resubmit is no duplicate
            reject("queue_full");
            continue;
          }
          std::error_code ec;
          fs::remove(f, ec);
          m.add("slm.serve.jobs_admitted_total");
          m.set("slm.serve.queue_depth", static_cast<double>(sched.depth()));
          ob.event("job_admitted",
                   obs::JsonWriter()
                       .field("job", spec.id)
                       .field("tenant", spec.tenant)
                       .field("priority", spec.priority)
                       .field("kind", job_kind_name(spec.kind))
                       .field("traces", spec.traces)
                       .field("queue_depth",
                              static_cast<std::uint64_t>(sched.depth())));
          {
            std::lock_guard<std::mutex> g(rep_m);
            ++rep.jobs_admitted;
          }
        } catch (const JobSpecError&) {
          reject("bad_spec");
        } catch (const std::exception&) {
          reject("admit_error");
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(opt.poll_ms));
    }
  });

  emit_state("");

  bool max_slices_tripped = false;
  while (true) {
    {
      std::lock_guard<std::mutex> g(rep_m);
      if (opt.max_slices > 0 && rep.slices >= opt.max_slices) {
        max_slices_tripped = true;
        break;
      }
    }
    std::optional<QueuedJob> job = sched.next();
    if (!job) {
      // Idle-drain exit only after a fresh rescan of our own: a job file
      // landing just after the watcher's last scan must keep the loop
      // alive (the watcher admits it next poll), not be mislabeled as a
      // halt or silently stranded.
      if (empty_scans.load(std::memory_order_acquire) >= opt.idle_polls &&
          sched.empty() && spool_files(spool).empty()) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(opt.poll_ms));
      continue;
    }

    const JobSpec& spec = job->spec;
    const std::uint64_t halt_after = slice_halt_point(
        spec, job->traces_done, opt.timeslice_traces, !sched.empty());
    m.observe("slm.serve.queue_wait_seconds",
              obs::monotonic_seconds() - job->ready_at);
    ob.event("job_slice_start", obs::JsonWriter()
                                    .field("job", spec.id)
                                    .field("tenant", spec.tenant)
                                    .field("from", job->traces_done)
                                    .field("halt_after", halt_after));
    emit_state(spec.id);

    const double t0 = obs::monotonic_seconds();
    SliceOutcome out;
    bool failed = false;
    std::string error;
    std::optional<obs::CampaignObserver> job_ob;
    try {
      job_ob.emplace(job->dir + "/events.jsonl");
      if (spec.kind == JobKind::kTvla) {
        out = run_tvla_slice(*job, &memo, &*job_ob);
      } else if (spec.kind == JobKind::kAnalyze) {
        out = run_analyze_slice(*job, &memo, &*job_ob);
      } else {
        out = run_attack_slice(*job, halt_after, &pool, &memo, &*job_ob);
      }
    } catch (const std::exception& e) {
      failed = true;
      error = e.what();
    }
    if (job_ob) {
      // The slice's memo lookups, summed into the daemon's registry.
      for (const char* name : {"slm.campaign.setup_memo_hits_total",
                               "slm.campaign.setup_memo_misses_total"}) {
        if (const double n = job_ob->metrics().counter(name); n > 0.0) {
          m.add(name, n);
        }
      }
      job_ob.reset();  // close the job's stream before its result lands
    }
    m.observe("slm.serve.slice_seconds", obs::monotonic_seconds() - t0);
    {
      std::lock_guard<std::mutex> g(rep_m);
      ++rep.slices;
    }

    if (failed) {
      // A failed job still writes its (non-deterministic) record so the
      // restart scan does not retry it forever; "failed":true marks it.
      obs::JsonWriter w = result_header(spec);
      w.field("failed", true).field("error", error);
      write_atomic(job->dir + "/result.json", w.str());
      m.add("slm.serve.jobs_failed_total");
      ob.event("job_failed", obs::JsonWriter()
                                 .field("job", spec.id)
                                 .field("tenant", spec.tenant)
                                 .field("error", error));
      std::lock_guard<std::mutex> g(rep_m);
      ++rep.jobs_failed;
    } else if (out.completed) {
      write_atomic(job->dir + "/result.json", out.result_json);
      sched.charge(spec.tenant, out.traces_done - job->traces_done);
      m.add("slm.serve.jobs_completed_total");
      m.add("slm.serve.job_traces_total",
            static_cast<double>(out.traces_done - job->traces_done));
      m.observe("slm.serve.turnaround_seconds",
                obs::monotonic_seconds() - job->admitted_at);
      ob.event("job_done", obs::JsonWriter()
                               .field("job", spec.id)
                               .field("tenant", spec.tenant)
                               .field("success", out.success)
                               .field("traces", out.traces_done));
      std::lock_guard<std::mutex> g(rep_m);
      ++rep.jobs_completed;
    } else {
      sched.charge(spec.tenant, out.traces_done - job->traces_done);
      m.add("slm.serve.preemptions_total");
      m.add("slm.serve.job_traces_total",
            static_cast<double>(out.traces_done - job->traces_done));
      ob.event("job_preempted", obs::JsonWriter()
                                    .field("job", spec.id)
                                    .field("tenant", spec.tenant)
                                    .field("at", out.traces_done));
      job->traces_done = out.traces_done;
      job->ready_at = obs::monotonic_seconds();
      {
        std::lock_guard<std::mutex> g(rep_m);
        ++rep.preemptions;
      }
      sched.requeue(std::move(*job));
    }
    emit_state("");
  }

  stop.store(true, std::memory_order_release);
  watcher.join();

  // `halted` is reserved for the max-slices path (CLI exit 12). Files
  // that slipped into the spool between the idle-drain rescan and the
  // watcher stopping are reported separately as spool_remaining — they
  // are not lost, the next serve() over the same spool admits them.
  rep.spool_remaining = spool_files(spool).size();
  rep.halted =
      max_slices_tripped && (!sched.empty() || rep.spool_remaining > 0);
  emit_state("");
  ob.write_manifest(
      obs::JsonWriter()
          .field("admitted", static_cast<std::uint64_t>(rep.jobs_admitted))
          .field("recovered", static_cast<std::uint64_t>(rep.jobs_recovered))
          .field("rejected", static_cast<std::uint64_t>(rep.jobs_rejected))
          .field("completed", static_cast<std::uint64_t>(rep.jobs_completed))
          .field("failed", static_cast<std::uint64_t>(rep.jobs_failed))
          .field("preemptions", static_cast<std::uint64_t>(rep.preemptions))
          .field("slices", static_cast<std::uint64_t>(rep.slices))
          .field("halted", rep.halted)
          .field("spool_remaining",
                 static_cast<std::uint64_t>(rep.spool_remaining)));
  return rep;
}

StatusSummary read_status(const std::string& results_dir,
                          const std::string& spool_dir) {
  StatusSummary s;
  std::ifstream is(fs::path(results_dir) / "serve.jsonl");
  if (is) {
    s.found = true;
    std::string line;
    while (std::getline(is, line)) {
      obs::FlatJson obj;
      try {
        obj = obs::FlatJson::parse(line);
      } catch (const Error&) {
        continue;  // torn tail of a live stream
      }
      const auto ev = obj.string_field("ev");
      if (!ev) continue;
      if (*ev == "serve_state") {
        s.queue_depth = obj.uint_field("queue_depth").value_or(0);
        s.slices = obj.uint_field("slices").value_or(0);
        s.completed = obj.uint_field("completed").value_or(0);
        s.failed = obj.uint_field("failed").value_or(0);
        s.rejected = obj.uint_field("rejected").value_or(0);
        s.preemptions = obj.uint_field("preemptions").value_or(0);
        s.running_job = obj.string_field("running").value_or("");
      } else if (*ev == "tenant_share") {
        const auto tenant = obj.string_field("tenant");
        if (!tenant) continue;
        StatusTenant* row = nullptr;
        for (StatusTenant& t : s.tenants) {
          if (t.tenant == *tenant) row = &t;
        }
        if (row == nullptr) {
          s.tenants.push_back(StatusTenant{*tenant, 0, 0});
          row = &s.tenants.back();
        }
        row->charged = obj.uint_field("charged").value_or(0);
        row->pending = obj.uint_field("pending").value_or(0);
      }
    }
  }
  if (!spool_dir.empty()) {
    s.spool_pending = spool_files(spool_dir).size();
  }
  std::sort(s.tenants.begin(), s.tenants.end(),
            [](const StatusTenant& a, const StatusTenant& b) {
              return a.tenant < b.tenant;
            });
  return s;
}

}  // namespace slm::serve
