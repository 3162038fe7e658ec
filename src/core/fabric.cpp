#include "core/fabric.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <filesystem>
#include <thread>

#include "common/binio.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "core/capture.hpp"
#include "core/checkpoint.hpp"
#include "obs/jsonl.hpp"
#include "obs/observer.hpp"

namespace slm::core {

namespace {

constexpr char kSnapMagic[] = "SLMSNAP1";

void put_identity(ByteWriter& out, const SnapshotIdentity& id) {
  out.put_u32(id.circuit);
  out.put_u32(id.mode);
  out.put_u64(id.seed);
  out.put_u64(id.total_traces);
  out.put_u64(id.samples);
  out.put_u64(id.target_key_byte);
  out.put_u64(id.target_bit);
  out.put_u64(id.single_bit);
  out.put_u8(id.compiled);
  out.put_u32(id.rng_contract);
  out.put_u8(id.fullkey);
}

SnapshotIdentity get_identity(ByteReader& in) {
  SnapshotIdentity id;
  id.circuit = in.get_u32();
  id.mode = in.get_u32();
  id.seed = in.get_u64();
  id.total_traces = in.get_u64();
  id.samples = in.get_u64();
  id.target_key_byte = in.get_u64();
  id.target_bit = in.get_u64();
  id.single_bit = in.get_u64();
  id.compiled = in.get_u8();
  id.rng_contract = in.get_u32();
  id.fullkey = in.get_u8();
  return id;
}

}  // namespace

std::uint32_t SnapshotIdentity::fingerprint() const {
  ByteWriter canon;
  put_identity(canon, *this);
  return crc32(canon.bytes().data(), canon.size());
}

bool SnapshotIdentity::operator==(const SnapshotIdentity& o) const {
  return circuit == o.circuit && mode == o.mode && seed == o.seed &&
         total_traces == o.total_traces && samples == o.samples &&
         target_key_byte == o.target_key_byte && target_bit == o.target_bit &&
         single_bit == o.single_bit && compiled == o.compiled &&
         rng_contract == o.rng_contract && fullkey == o.fullkey;
}

std::vector<TraceRange> plan_shards(std::uint64_t total, unsigned shards) {
  SLM_REQUIRE(shards > 0, "plan_shards: zero shards");
  std::vector<TraceRange> out;
  out.reserve(shards);
  for (unsigned i = 0; i < shards; ++i) {
    out.push_back(TraceRange{total * i / shards, total * (i + 1) / shards});
  }
  return out;
}

RangeLedger::RangeLedger(std::uint64_t total) : total_(total) {}

void RangeLedger::cover(TraceRange r) {
  if (r.begin >= r.end) {
    throw SnapshotRangeError("range ledger: empty or inverted trace range [" +
                             std::to_string(r.begin) + ", " +
                             std::to_string(r.end) + ")");
  }
  if (r.end > total_) {
    throw SnapshotRangeError("range ledger: range [" +
                             std::to_string(r.begin) + ", " +
                             std::to_string(r.end) +
                             ") exceeds the campaign budget of " +
                             std::to_string(total_) + " traces");
  }
  auto it = std::lower_bound(
      ranges_.begin(), ranges_.end(), r,
      [](const TraceRange& a, const TraceRange& b) { return a.begin < b.begin; });
  const auto overlap = [&](const TraceRange& existing) {
    throw SnapshotRangeError(
        "range ledger: range [" + std::to_string(r.begin) + ", " +
        std::to_string(r.end) + ") overlaps already-covered [" +
        std::to_string(existing.begin) + ", " + std::to_string(existing.end) +
        ") — merging it would double-count traces");
  };
  if (it != ranges_.begin() && std::prev(it)->end > r.begin) {
    overlap(*std::prev(it));
  }
  if (it != ranges_.end() && it->begin < r.end) overlap(*it);
  it = ranges_.insert(it, r);
  // Coalesce with touching neighbours so ranges() stays canonical.
  if (it != ranges_.begin() && std::prev(it)->end == it->begin) {
    std::prev(it)->end = it->end;
    it = ranges_.erase(it);
    --it;
  }
  if (std::next(it) != ranges_.end() && it->end == std::next(it)->begin) {
    it->end = std::next(it)->end;
    ranges_.erase(std::next(it));
  }
}

std::uint64_t RangeLedger::covered() const {
  std::uint64_t n = 0;
  for (const TraceRange& r : ranges_) n += r.count();
  return n;
}

std::vector<TraceRange> RangeLedger::missing() const {
  std::vector<TraceRange> gaps;
  std::uint64_t cursor = 0;
  for (const TraceRange& r : ranges_) {
    if (cursor < r.begin) gaps.push_back(TraceRange{cursor, r.begin});
    cursor = r.end;
  }
  if (cursor < total_) gaps.push_back(TraceRange{cursor, total_});
  return gaps;
}

std::size_t save_snapshot(const std::string& path,
                          const AccumulatorSnapshot& snap) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
    SLM_REQUIRE(!ec, "snapshot: cannot create directory '" +
                         parent.string() + "'");
  }
  ByteWriter payload;
  put_identity(payload, snap.id);
  payload.put_u32(snap.id.fingerprint());
  payload.put_u64(snap.ranges.size());
  for (const TraceRange& r : snap.ranges) {
    payload.put_u64(r.begin);
    payload.put_u64(r.end);
  }
  payload.put_u64(snap.accumulator.size());
  payload.put_bytes(snap.accumulator.data(), snap.accumulator.size());
  return write_framed_file(path, kSnapMagic, kSnapshotVersion,
                           {payload.bytes()}, "snapshot");
}

AccumulatorSnapshot load_snapshot(const std::string& path) {
  std::optional<std::vector<std::uint8_t>> payload;
  try {
    payload = read_framed_file(path, kSnapMagic, kSnapshotVersion, "snapshot");
  } catch (const Error& e) {
    throw SnapshotFormatError(e.what());
  }
  if (!payload) {
    throw SnapshotFormatError("snapshot: no file at '" + path + "'");
  }

  AccumulatorSnapshot snap;
  snap.source = path;
  try {
    ByteReader in(payload->data(), payload->size());
    snap.id = get_identity(in);
    SLM_REQUIRE(snap.id.rng_contract == 2,
                "snapshot: '" + path + "' was captured under RNG contract v" +
                    std::to_string(snap.id.rng_contract) +
                    "; contract v1 (sequential streams) is retired");
    SLM_REQUIRE(snap.id.compiled != 0,
                "snapshot: '" + path + "' holds a reference-kernel "
                "(compiled = 0) accumulator; that capture path is retired");
    const std::uint32_t stored_fp = in.get_u32();
    SLM_REQUIRE(stored_fp == snap.id.fingerprint(),
                "snapshot: config fingerprint does not match the identity "
                "fields in '" + path + "'");
    const std::uint64_t range_count = in.get_u64();
    SLM_REQUIRE(range_count <= in.remaining() / 16,
                "snapshot: range table overruns payload");
    snap.ranges.reserve(range_count);
    for (std::uint64_t i = 0; i < range_count; ++i) {
      TraceRange r;
      r.begin = in.get_u64();
      r.end = in.get_u64();
      snap.ranges.push_back(r);
    }
    const std::uint64_t acc_size = in.get_u64();
    SLM_REQUIRE(acc_size <= in.remaining(),
                "snapshot: accumulator blob overruns payload");
    snap.accumulator.resize(acc_size);
    in.get_bytes(snap.accumulator.data(), acc_size);
    SLM_REQUIRE(in.done(), "snapshot: trailing bytes after payload");
  } catch (const SnapshotRangeError&) {
    throw;
  } catch (const Error& e) {
    throw SnapshotFormatError(e.what());
  }

  // Range discipline is a separate failure class from file corruption:
  // a structurally valid file claiming overlapping coverage must fail
  // as a double-count, not as "corrupt".
  RangeLedger ledger(snap.id.total_traces);
  for (const TraceRange& r : snap.ranges) {
    try {
      ledger.cover(r);
    } catch (const SnapshotRangeError& e) {
      throw SnapshotRangeError(std::string(e.what()) + " (in '" + path +
                               "')");
    }
  }
  return snap;
}

AccumulatorSnapshot merge_snapshots(
    const std::vector<AccumulatorSnapshot>& parts) {
  SLM_REQUIRE(!parts.empty(), "merge: no snapshots to merge");
  const SnapshotIdentity& id = parts[0].id;
  for (std::size_t i = 1; i < parts.size(); ++i) {
    const SnapshotIdentity& o = parts[i].id;
    const std::string where =
        parts[i].source.empty() ? "snapshot #" + std::to_string(i)
                                : "'" + parts[i].source + "'";
    const auto mismatch = [&](const char* what) {
      throw SnapshotMismatch("merge: " + where +
                             " was captured under a different " + what +
                             " than " +
                             (parts[0].source.empty()
                                  ? std::string("snapshot #0")
                                  : "'" + parts[0].source + "'"));
    };
    if (o.seed != id.seed) mismatch("seed");
    if (o.rng_contract != id.rng_contract) mismatch("RNG contract");
    if (o.circuit != id.circuit) mismatch("benign circuit");
    if (o.mode != id.mode) mismatch("sensor mode");
    if (o.total_traces != id.total_traces) mismatch("trace budget");
    if (o.samples != id.samples) mismatch("sampling window");
    if (o.target_key_byte != id.target_key_byte ||
        o.target_bit != id.target_bit) {
      mismatch("CPA target");
    }
    if (o.single_bit != id.single_bit) mismatch("sensor bit");
    if (o.fullkey != id.fullkey) mismatch("campaign kind (full-key flag)");
    if (!(o == id)) mismatch("config (fingerprint)");
  }

  RangeLedger ledger(id.total_traces);
  for (const AccumulatorSnapshot& part : parts) {
    for (const TraceRange& r : part.ranges) {
      try {
        ledger.cover(r);
      } catch (const SnapshotRangeError& e) {
        throw SnapshotRangeError(
            std::string(e.what()) +
            (part.source.empty() ? "" : " (while merging '" + part.source +
                                            "')"));
      }
    }
  }

  const std::size_t samples = static_cast<std::size_t>(id.samples);
  const auto load_acc = [&](auto& acc, const AccumulatorSnapshot& part) {
    try {
      ByteReader in(part.accumulator.data(), part.accumulator.size());
      acc.load(in);
      SLM_REQUIRE(in.done(), "snapshot: trailing accumulator bytes");
    } catch (const Error& e) {
      throw SnapshotFormatError(
          std::string(e.what()) +
          (part.source.empty() ? "" : " (in '" + part.source + "')"));
    }
  };
  AccumulatorSnapshot out;
  out.id = id;
  out.ranges = ledger.ranges();
  const auto merge_all = [&](auto merged, auto one) {
    for (const AccumulatorSnapshot& part : parts) {
      load_acc(one, part);
      merged.merge(one);
    }
    ByteWriter acc_out;
    merged.save(acc_out);
    return acc_out.bytes();
  };
  out.accumulator =
      id.fullkey != 0
          ? merge_all(sca::MultiByteCpa(samples), sca::MultiByteCpa(samples))
          : merge_all(sca::XorClassCpa(samples), sca::XorClassCpa(samples));
  return out;
}

sca::CpaEngine fold_snapshot_byte(const AccumulatorSnapshot& snap,
                                  std::size_t key_byte) {
  const std::size_t samples = static_cast<std::size_t>(snap.id.samples);
  const sca::LastRoundBitModel model(key_byte, snap.id.target_bit);
  ByteReader in(snap.accumulator.data(), snap.accumulator.size());
  if (snap.id.fullkey != 0) {
    SLM_REQUIRE(key_byte < sca::MultiByteCpa::kBytes,
                "fold: key byte out of range");
    sca::MultiByteCpa mb(samples);
    mb.load(in);
    SLM_REQUIRE(in.done(), "snapshot: trailing accumulator bytes");
    return mb.fold(key_byte, model.pattern().data());
  }
  SLM_REQUIRE(key_byte == snap.id.target_key_byte,
              "fold: single-byte snapshot targets key byte " +
                  std::to_string(snap.id.target_key_byte));
  sca::XorClassCpa cls(samples);
  cls.load(in);
  SLM_REQUIRE(in.done(), "snapshot: trailing accumulator bytes");
  return cls.fold(model.pattern().data());
}

FabricWorker::FabricWorker(AttackSetup& setup, const CampaignConfig& cfg,
                           bool fullkey)
    : setup_(setup), campaign_(setup, cfg), fullkey_(fullkey) {}

const SnapshotIdentity& FabricWorker::identity() {
  if (resolved_) return id_;
  (void)resolve_contract(campaign_.cfg_.rng_contract);
  // Selection pre-pass: deterministic from the config seed alone, so
  // every worker of the same campaign resolves identical bits — nothing
  // shard-specific leaks into the identity.
  bits_ = campaign_.resolve_sensor_bits();

  const CampaignConfig& cfg = campaign_.cfg_;
  id_.circuit = static_cast<std::uint32_t>(setup_.circuit_kind());
  id_.mode = static_cast<std::uint32_t>(cfg.mode);
  id_.seed = cfg.seed;
  id_.total_traces = cfg.traces;
  id_.samples = campaign_.sample_times_.size();
  id_.target_key_byte = cfg.target_key_byte;
  id_.target_bit = cfg.target_bit;
  id_.single_bit = cfg.single_bit;
  id_.compiled = 1;
  id_.rng_contract = static_cast<std::uint32_t>(RngContract::kV2);
  id_.fullkey = fullkey_ ? 1 : 0;
  resolved_ = true;
  return id_;
}

AccumulatorSnapshot FabricWorker::run(const FabricJob& job) {
  identity();
  const CampaignConfig& cfg = campaign_.cfg_;
  const std::uint64_t a = job.range.begin;
  const std::uint64_t bEnd = job.range.end;
  if (a >= bEnd || bEnd > cfg.traces) {
    throw SnapshotRangeError(
        "fabric: worker range [" + std::to_string(a) + ", " +
        std::to_string(bEnd) + ") is empty or exceeds the campaign budget of " +
        std::to_string(cfg.traces) + " traces");
  }
  SLM_REQUIRE(!job.snapshot_out.empty(), "fabric: worker needs a snapshot path");

  obs::CampaignObserver* const ob = cfg.observer;
  const std::size_t samples = campaign_.sample_times_.size();
  // The engines' capture loop, single-threaded over [a, bEnd): the
  // accumulator content per trace index is byte-identical to theirs.
  const CapturePlan plan = campaign_.capture_plan(bits_);
  const std::vector<sca::LastRoundBitModel> models =
      fullkey_ ? sca::key_byte_models(cfg.target_bit)
               : std::vector<sca::LastRoundBitModel>{sca::LastRoundBitModel(
                     cfg.target_key_byte, cfg.target_bit)};

  // Snapshot boundaries: the snapshot_every grid within the range, the
  // halt point (so the partial snapshot covers exactly [a, a+halt)),
  // and the range end.
  std::vector<std::uint64_t> bounds;
  if (job.snapshot_every > 0) {
    for (std::uint64_t s = a + job.snapshot_every; s < bEnd;
         s += job.snapshot_every) {
      bounds.push_back(s);
    }
  }
  if (job.halt_after > 0 && a + job.halt_after < bEnd) {
    bounds.push_back(a + job.halt_after);
  }
  bounds.push_back(bEnd);
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

  if (ob != nullptr) {
    ob->metrics().set("slm.fabric.range_traces",
                      static_cast<double>(bEnd - a));
    ob->event("fabric_worker_start",
              obs::JsonWriter()
                  .field("begin", a)
                  .field("end", bEnd)
                  .field("fullkey", fullkey_)
                  .field("fingerprint",
                         static_cast<std::uint64_t>(id_.fingerprint()))
                  .field("snapshot_out", job.snapshot_out));
  }

  const auto write_snapshot = [&](std::uint64_t covered_end,
                                  const auto& acc) {
    AccumulatorSnapshot snap;
    snap.id = id_;
    snap.ranges = {TraceRange{a, covered_end}};
    ByteWriter w;
    acc.save(w);
    snap.accumulator = w.bytes();
    const double s0 = obs::monotonic_seconds();
    const std::size_t bytes = save_snapshot(job.snapshot_out, snap);
    if (ob != nullptr) {
      ob->metrics().add("slm.fabric.snapshots_total");
      ob->metrics().add("slm.fabric.snapshot_bytes_total",
                        static_cast<double>(bytes));
      ob->metrics().observe("slm.fabric.snapshot_write_seconds",
                            obs::monotonic_seconds() - s0);
      ob->event("fabric_snapshot",
                obs::JsonWriter()
                    .field("begin", a)
                    .field("end", bEnd)
                    .field("covered_end", covered_end)
                    .field("bytes", static_cast<std::uint64_t>(bytes))
                    .field("path", job.snapshot_out));
    }
    return snap;
  };

  // One shard over the accumulator this worker's analysis uses, captured
  // a snapshot interval at a time.
  const auto run_range = [&](auto sh) {
    AccumulatorSnapshot last_snap;
    std::uint64_t g = a;
    for (const std::uint64_t cp : bounds) {
      campaign_.capture_range(plan, models, g, cp, sh, nullptr);
      g = cp;
      last_snap = write_snapshot(cp, sh.acc);
      if (job.halt_after > 0 && cp - a >= job.halt_after) {
        if (ob != nullptr) {
          ob->event("halt", obs::JsonWriter()
                                .field("traces", cp)
                                .field("path", job.snapshot_out));
        }
        throw CampaignHalted(static_cast<std::size_t>(cp), job.snapshot_out);
      }
    }
    return last_snap;
  };
  return fullkey_ ? run_range(Shard<sca::MultiByteCpa>(samples))
                  : run_range(Shard<sca::XorClassCpa>(samples));
}

void FabricProgress::reset(std::size_t workers) {
  std::lock_guard<std::mutex> g(m_);
  covered_.assign(workers, 0);
}

void FabricProgress::update(std::size_t worker, std::uint64_t covered_end) {
  std::lock_guard<std::mutex> g(m_);
  if (worker < covered_.size() && covered_end > covered_[worker]) {
    covered_[worker] = covered_end;
  }
}

std::uint64_t FabricProgress::covered(std::size_t worker) const {
  std::lock_guard<std::mutex> g(m_);
  return worker < covered_.size() ? covered_[worker] : 0;
}

std::uint64_t FabricProgress::total_covered() const {
  std::lock_guard<std::mutex> g(m_);
  std::uint64_t n = 0;
  for (const std::uint64_t c : covered_) n += c;
  return n;
}

namespace {

pid_t spawn_worker(const std::string& binary,
                   const std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.reserve(args.size() + 2);
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);
  const pid_t pid = fork();
  SLM_REQUIRE(pid >= 0, "fabric: fork failed");
  if (pid == 0) {
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  return pid;
}

}  // namespace

CoordinateResult coordinate_local(const CoordinateOptions& opt) {
  SLM_REQUIRE(opt.shards > 0, "fabric: need at least one shard");
  SLM_REQUIRE(opt.total_traces > 0, "fabric: zero-trace campaign");
  SLM_REQUIRE(!opt.work_dir.empty(), "fabric: need a work directory");
  SLM_REQUIRE(!opt.slm_binary.empty(), "fabric: need the worker binary path");
  {
    std::error_code ec;
    std::filesystem::create_directories(opt.work_dir, ec);
    SLM_REQUIRE(!ec, "fabric: cannot create work directory '" +
                         opt.work_dir + "'");
  }
  obs::CampaignObserver* const ob = opt.observer;
  if (ob != nullptr) {
    ob->metrics().set("slm.fabric.shards_total",
                      static_cast<double>(opt.shards));
    ob->event("fabric_run_start",
              obs::JsonWriter()
                  .field("shards", static_cast<std::uint64_t>(opt.shards))
                  .field("traces", opt.total_traces)
                  .field("binary", opt.slm_binary)
                  .field("work_dir", opt.work_dir));
  }

  struct Assignment {
    TraceRange range;
    unsigned shard;  ///< original shard label, for logs/events
    bool kill = false;
  };
  std::deque<Assignment> queue;
  {
    const std::vector<TraceRange> shards =
        plan_shards(opt.total_traces, opt.shards);
    for (unsigned i = 0; i < shards.size(); ++i) {
      if (shards[i].count() == 0) continue;
      queue.push_back(
          {shards[i], i, opt.kill_shard >= 0 &&
                             i == static_cast<unsigned>(opt.kill_shard) &&
                             opt.kill_after > 0});
    }
  }

  RangeLedger ledger(opt.total_traces);
  std::vector<AccumulatorSnapshot> parts;
  FabricProgress progress;
  CoordinateResult result;

  unsigned round = 0;
  while (!queue.empty()) {
    SLM_REQUIRE(round <= opt.max_reissue_rounds,
                "fabric: shard reissue limit reached with " +
                    std::to_string(ledger.missing().size()) +
                    " range(s) still uncovered — workers keep failing");
    struct Worker {
      Assignment job;
      pid_t pid = -1;
      std::string snap;
      std::string jsonl;
      int rc = -1;
      bool reaped = false;
    };
    std::vector<Worker> workers;
    workers.reserve(queue.size());
    // Spawn the whole round BEFORE starting monitor threads: fork from
    // a single-threaded coordinator state is the portable-safe order.
    for (std::size_t w = 0; !queue.empty(); ++w) {
      Worker wk;
      wk.job = queue.front();
      queue.pop_front();
      const std::string stem = (std::filesystem::path(opt.work_dir) /
                                ("shard_r" + std::to_string(round) + "_" +
                                 std::to_string(w)))
                                   .string();
      wk.snap = stem + ".snap";
      wk.jsonl = stem + ".jsonl";
      std::vector<std::string> args;
      args.push_back("attack");
      args.insert(args.end(), opt.worker_args.begin(), opt.worker_args.end());
      args.push_back("--range");
      args.push_back(std::to_string(wk.job.range.begin) + ":" +
                     std::to_string(wk.job.range.end));
      args.push_back("--snapshot-out");
      args.push_back(wk.snap);
      args.push_back("--trace-out");
      args.push_back(wk.jsonl);
      if (opt.snapshot_every > 0) {
        args.push_back("--snapshot-every");
        args.push_back(std::to_string(opt.snapshot_every));
      }
      if (wk.job.kill && round == 0) {
        args.push_back("--halt-after");
        args.push_back(std::to_string(opt.kill_after));
      }
      wk.pid = spawn_worker(opt.slm_binary, args);
      ++result.workers_spawned;
      if (ob != nullptr) {
        ob->metrics().add("slm.fabric.workers_spawned_total");
        ob->event("fabric_worker_spawn",
                  obs::JsonWriter()
                      .field("shard", static_cast<std::uint64_t>(wk.job.shard))
                      .field("round", static_cast<std::uint64_t>(round))
                      .field("begin", wk.job.range.begin)
                      .field("end", wk.job.range.end)
                      .field("pid", static_cast<std::int64_t>(wk.pid))
                      .field("kill", wk.job.kill && round == 0));
      }
      workers.push_back(std::move(wk));
    }

    // Per-worker monitor threads tail the worker JSONL streams into the
    // shared progress view while the coordinator loop below reads it
    // concurrently — the locking here is what fabric_tsan races.
    progress.reset(workers.size());
    std::atomic<bool> stop{false};
    std::vector<std::thread> monitors;
    monitors.reserve(workers.size());
    for (std::size_t w = 0; w < workers.size(); ++w) {
      monitors.emplace_back([&, w] {
        const std::string path = workers[w].jsonl;
        for (;;) {
          if (const std::optional<double> c =
                  obs::last_event_value(path, "fabric_snapshot",
                                        "covered_end")) {
            progress.update(w, static_cast<std::uint64_t>(*c));
          }
          if (stop.load(std::memory_order_acquire)) break;
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
      });
    }

    std::size_t live = workers.size();
    std::uint64_t last_covered = 0;
    while (live > 0) {
      for (Worker& wk : workers) {
        if (wk.reaped) continue;
        int status = 0;
        const pid_t r = waitpid(wk.pid, &status, WNOHANG);
        if (r == wk.pid) {
          wk.reaped = true;
          wk.rc = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
          --live;
          if (ob != nullptr) {
            ob->event("fabric_worker_exit",
                      obs::JsonWriter()
                          .field("shard",
                                 static_cast<std::uint64_t>(wk.job.shard))
                          .field("rc", static_cast<std::int64_t>(wk.rc)));
          }
        }
      }
      const std::uint64_t covered_now = progress.total_covered();
      if (ob != nullptr) {
        ob->metrics().add("slm.fabric.progress_polls_total");
        if (covered_now != last_covered) {
          ob->metrics().set("slm.fabric.traces_covered",
                            static_cast<double>(ledger.covered() +
                                                covered_now));
          last_covered = covered_now;
        }
      }
      if (live > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    stop.store(true, std::memory_order_release);
    for (std::thread& t : monitors) t.join();

    // Salvage: whatever complete snapshot prefix each worker left behind
    // counts as covered; the rest of its assignment is reissued.
    for (const Worker& wk : workers) {
      TraceRange remainder = wk.job.range;
      bool salvaged = false;
      try {
        AccumulatorSnapshot snap = load_snapshot(wk.snap);
        SLM_REQUIRE(snap.ranges.size() == 1 &&
                        snap.ranges[0].begin == wk.job.range.begin &&
                        snap.ranges[0].end <= wk.job.range.end,
                    "fabric: worker snapshot '" + wk.snap +
                        "' does not cover a prefix of its assigned range");
        ledger.cover(snap.ranges[0]);
        remainder.begin = snap.ranges[0].end;
        parts.push_back(std::move(snap));
        salvaged = true;
      } catch (const SnapshotFormatError& e) {
        // Worker died before its first snapshot: nothing usable on disk,
        // the full range goes back to the queue.
        log_info() << "fabric: shard " << wk.job.shard
                   << " left no usable snapshot (" << e.what() << ")";
      }
      if (wk.rc != 0) {
        ++result.worker_failures;
        if (ob != nullptr) {
          ob->metrics().add("slm.fabric.worker_failures_total");
        }
      }
      if (remainder.count() > 0) {
        SLM_REQUIRE(wk.rc != 0,
                    "fabric: worker exited cleanly but covered only [" +
                        std::to_string(wk.job.range.begin) + ", " +
                        std::to_string(remainder.begin) + ") of [" +
                        std::to_string(wk.job.range.begin) + ", " +
                        std::to_string(wk.job.range.end) + ")");
        queue.push_back({remainder, wk.job.shard, false});
        ++result.ranges_reissued;
        if (ob != nullptr) {
          ob->metrics().add("slm.fabric.reissues_total");
          ob->event("fabric_reissue",
                    obs::JsonWriter()
                        .field("shard",
                               static_cast<std::uint64_t>(wk.job.shard))
                        .field("begin", remainder.begin)
                        .field("end", remainder.end)
                        .field("salvaged", salvaged));
        }
      }
    }
    ++round;
  }

  SLM_REQUIRE(ledger.complete(),
              "fabric: coordinator finished with uncovered ranges");
  AccumulatorSnapshot merged = merge_snapshots(parts);
  result.snapshots_merged = parts.size();
  result.merged_path =
      (std::filesystem::path(opt.work_dir) / "merged.snap").string();
  const std::size_t bytes = save_snapshot(result.merged_path, merged);
  if (ob != nullptr) {
    ob->metrics().add("slm.fabric.snapshots_merged_total",
                      static_cast<double>(parts.size()));
    ob->metrics().set("slm.fabric.traces_covered",
                      static_cast<double>(ledger.covered()));
    ob->event("fabric_merge",
              obs::JsonWriter()
                  .field("snapshots",
                         static_cast<std::uint64_t>(parts.size()))
                  .field("covered", ledger.covered())
                  .field("bytes", static_cast<std::uint64_t>(bytes))
                  .field("path", result.merged_path));
  }
  return result;
}

}  // namespace slm::core
