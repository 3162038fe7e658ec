// slm — command-line front end to the library.
//
//   slm gen   --circuit rca|ks|c6288|wallace|barrel [--width N] [--out F]
//   slm check FILE.bench [--strict-clock-mhz F]
//   slm sta   FILE.bench [--clock-mhz F]
//   slm atpg  FILE.bench [--band LO HI]
//   slm attack [--circuit alu|c6288] [--mode tdc|tdc-bit|hw|bit|ro]
//              [--traces N] [--key-byte B] [--threads N]
//              [--full-key] [--early-exit on|off] [--early-exit-margin F]
//              [--checkpoint-dir D] [--resume D] [--halt-after N]
//              [--trace-out F.jsonl]
//              [--store-out F.trc | --from-store F.trc [--fused-tvla]]
//   slm capture --store-out F.trc [--tvla] [+ attack/tvla flags]
//   slm analyze --from-store F.trc [--trace-out F.jsonl]
//   slm tvla   [--circuit C] [--mode M] [--traces N-per-population]
//              [--store-out F.trc | --from-store F.trc]
//
// Circuits are exchanged in ISCAS .bench format, so the checker/STA/ATPG
// subcommands also work on external netlists.
#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "atpg/stimulus_search.hpp"
#include "bitstream/checker.hpp"
#include "common/error.hpp"
#include "core/attack.hpp"
#include "core/checkpoint.hpp"
#include "core/parallel.hpp"
#include "obs/observer.hpp"
#include "serve/daemon.hpp"
#include "serve/job.hpp"
#include "store/replay.hpp"
#include "store/trace_store.hpp"
#include "netlist/bench_format.hpp"
#include "netlist/generators/adder.hpp"
#include "netlist/generators/c6288.hpp"
#include "netlist/generators/fast_datapath.hpp"
#include "timing/sta.hpp"

using namespace slm;

namespace {

struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;

  std::string get(const std::string& key, const std::string& dflt) const {
    const auto it = options.find(key);
    return it == options.end() ? dflt : it->second;
  }
  double get_d(const std::string& key, double dflt) const {
    const auto it = options.find(key);
    return it == options.end() ? dflt : std::stod(it->second);
  }
  std::size_t get_n(const std::string& key, std::size_t dflt) const {
    const auto it = options.find(key);
    return it == options.end() ? dflt
                               : static_cast<std::size_t>(
                                     std::stoull(it->second));
  }
};

Args parse_args(int argc, char** argv, int first) {
  Args args;
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) == 0) {
      const std::string key = a.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        args.options[key] = argv[++i];
      } else {
        args.options[key] = "1";
      }
    } else {
      args.positional.push_back(a);
    }
  }
  return args;
}

netlist::Netlist load_bench(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw Error("cannot open '" + path + "'");
  return netlist::parse_bench(is, path);
}

int cmd_gen(const Args& args) {
  const std::string kind = args.get("circuit", "rca");
  const std::size_t width = args.get_n("width", 0);
  netlist::Netlist nl("x");
  if (kind == "rca") {
    netlist::AdderOptions opt;
    if (width) opt.width = width;
    nl = make_ripple_carry_adder(opt);
  } else if (kind == "ks") {
    netlist::KoggeStoneOptions opt;
    if (width) opt.width = width;
    nl = make_kogge_stone_adder(opt);
  } else if (kind == "c6288") {
    netlist::C6288Options opt;
    if (width) opt.operand_width = width;
    nl = make_c6288(opt);
  } else if (kind == "wallace") {
    netlist::WallaceOptions opt;
    if (width) opt.operand_width = width;
    nl = make_wallace_multiplier(opt);
  } else if (kind == "barrel") {
    netlist::BarrelShifterOptions opt;
    if (width) opt.width = width;
    nl = make_barrel_shifter(opt);
  } else {
    throw Error("unknown --circuit '" + kind + "'");
  }
  const std::string out = args.get("out", "");
  if (out.empty()) {
    netlist::write_bench(nl, std::cout);
  } else {
    std::ofstream os(out);
    if (!os) throw Error("cannot write '" + out + "'");
    netlist::write_bench(nl, os);
    std::cout << "wrote " << nl.logic_gate_count() << " gates to " << out
              << "\n";
  }
  return 0;
}

int cmd_check(const Args& args) {
  if (args.positional.empty()) throw Error("check: need a .bench file");
  const auto nl = load_bench(args.positional[0]);
  bitstream::CheckerOptions opt;
  const double strict_mhz = args.get_d("strict-clock-mhz", 0.0);
  if (strict_mhz > 0) opt.operating_clock_period_ns = 1000.0 / strict_mhz;
  const auto report = bitstream::BitstreamChecker(opt).check(nl);
  std::cout << report.summary() << "\n";
  return report.passed() ? 0 : 2;
}

int cmd_sta(const Args& args) {
  if (args.positional.empty()) throw Error("sta: need a .bench file");
  const auto nl = load_bench(args.positional[0]);
  timing::Sta sta(nl);
  const double clock_mhz = args.get_d("clock-mhz", 0.0);
  std::cout << "gates: " << nl.logic_gate_count()
            << ", endpoints: " << nl.outputs().size() << "\n"
            << "critical delay: " << sta.critical_delay() << " ns\n";
  if (clock_mhz > 0) {
    const double period = 1000.0 / clock_mhz;
    const auto failing = sta.failing_endpoints(period);
    std::cout << "at " << clock_mhz << " MHz (" << period
              << " ns): " << failing.size() << " failing endpoints\n";
  }
  std::cout << sta.report_critical_path();
  return 0;
}

int cmd_atpg(const Args& args) {
  if (args.positional.empty()) throw Error("atpg: need a .bench file");
  const auto nl = load_bench(args.positional[0]);
  const double lo = args.get_d("band-lo", 2.2);
  const double hi = args.get_d("band-hi", 3.6);
  atpg::StimulusSearchConfig cfg;
  cfg.random_trials = args.get_n("trials", 150);
  cfg.hill_climb_iters = args.get_n("climb", 300);
  atpg::StimulusSearch search(nl, cfg);
  const auto pair = search.find_sensor_stimulus(lo, hi);
  std::cout << "endpoints toggling in [" << lo << ", " << hi
            << "] ns: " << pair.endpoints_in_band << "\n"
            << "max settle: " << pair.max_settle_ns << " ns\n"
            << "reset   = " << pair.reset.to_string() << "\n"
            << "measure = " << pair.measure.to_string() << "\n";
  return pair.endpoints_in_band > 0 ? 0 : 3;
}

// Circuit / sensor-mode flags shared by the attack, capture and tvla
// verbs (one parse, identical vocabulary everywhere).
core::BenignCircuit parse_circuit(const Args& args) {
  const std::string s = args.get("circuit", "alu");
  return s == "c6288" ? core::BenignCircuit::kC6288x2
                      : core::BenignCircuit::kAlu;
}

core::SensorMode parse_mode(const Args& args, const char* dflt) {
  const std::string mode_s = args.get("mode", dflt);
  if (mode_s == "tdc") return core::SensorMode::kTdcFull;
  if (mode_s == "tdc-bit") return core::SensorMode::kTdcSingleBit;
  if (mode_s == "hw") return core::SensorMode::kBenignHw;
  if (mode_s == "bit") return core::SensorMode::kBenignSingleBit;
  if (mode_s == "ro") return core::SensorMode::kRoCounter;
  throw Error("unknown --mode '" + mode_s + "'");
}

// The options `attack`, `capture`, `tvla`, `submit` and `serve` accept
// (nullptr: the verb checks none). Anything else — a typo, or a retired
// flag — is a usage error, not silently ignored.
const std::vector<std::string>* known_options(const std::string& cmd) {
  static const std::vector<std::string> kCampaign = {
      "circuit",        "mode",           "traces",     "key-byte",
      "threads",        "block",          "trace-out",  "tvla",
      "checkpoint-dir", "resume",         "halt-after", "store-out",
      "from-store",     "fused-tvla",     "full-key",   "early-exit",
      "early-exit-margin"};
  static const std::vector<std::string> kSubmit = {
      "spool",  "tenant",   "priority", "kind",      "circuit", "mode",
      "traces", "key-byte", "store",    "queue-cap", "id"};
  static const std::vector<std::string> kServe = {
      "spool",   "results",    "max-queue", "timeslice",
      "threads", "max-slices", "poll-ms",   "idle-polls"};
  if (cmd == "attack" || cmd == "capture" || cmd == "tvla") return &kCampaign;
  if (cmd == "submit") return &kSubmit;
  if (cmd == "serve") return &kServe;
  return nullptr;
}

// Observability: --trace-out wins over the SLM_TRACE environment knob;
// either attaches a metrics registry + JSONL event sink.
std::unique_ptr<obs::CampaignObserver> make_observer(const Args& args) {
  const std::string trace_out = args.get("trace-out", "");
  if (!trace_out.empty()) {
    return std::make_unique<obs::CampaignObserver>(trace_out);
  }
  return obs::observer_from_env();
}

// The verdict line of a Welch t-test section; `prefix` names a specific
// (key-model partitioned) t-test where one rides along an attack.
void print_tvla_verdict(const char* prefix, double max_abs_t, bool leakage) {
  std::printf("%smax |t| = %.2f (threshold %.1f) -> %s\n", prefix, max_abs_t,
              sca::WelchTTest::kThreshold,
              leakage ? "LEAKAGE" : "no leakage evidence");
}

// The per-byte table of a replayed full-key section.
void print_byte_table(const store::ReplayFullKeyResult& fr) {
  std::printf("byte  true  recovered  ok   converged\n");
  for (std::size_t b = 0; b < fr.bytes.size(); ++b) {
    const sca::FullKeyByteResult& br = fr.bytes[b];
    std::printf("%4zu  0x%02x       0x%02x  %s  %7zu%s\n", b, br.correct,
                br.recovered, br.success ? "yes" : "NO ", br.traces,
                br.early_exited ? " (early exit)" : "");
  }
}

int cmd_attack(const Args& args) {
  const core::BenignCircuit circuit = parse_circuit(args);
  const core::SensorMode mode = parse_mode(args, "hw");

  const std::size_t traces = args.get_n("traces", 150000);
  const std::size_t key_byte = args.get_n("key-byte", 3);
  // 0 = all hardware threads; 1 = one shard on the calling thread.
  const unsigned threads =
      static_cast<unsigned>(args.get_n("threads", 0));

  // Crash-safe checkpointing: --checkpoint-dir snapshots at every
  // checkpoint; --resume <dir> implies it and continues a killed run
  // bit-exactly. --halt-after simulates the kill for tests/drills.
  core::RunOptions opts;
  opts.checkpoint_dir = args.get("checkpoint-dir", "");
  const std::string resume_dir = args.get("resume", "");
  if (!resume_dir.empty()) {
    opts.resume = true;
    if (opts.checkpoint_dir.empty()) opts.checkpoint_dir = resume_dir;
    if (!std::filesystem::exists(core::checkpoint_file(resume_dir))) {
      throw Error("attack --resume: no snapshot at '" +
                  core::checkpoint_file(resume_dir) + "'");
    }
  }
  opts.halt_after_traces = args.get_n("halt-after", 0);
  if (opts.halt_after_traces > 0 && opts.checkpoint_dir.empty()) {
    throw Error("attack --halt-after: needs --checkpoint-dir (nothing to "
                "resume from otherwise)");
  }
  // --block tiles the capture loop (0 = SLM_BLOCK env, else the default;
  // any value is bit-identical, including across a kill/resume pair).
  // SLM_SIMD=0 in the environment selects the scalar block kernels.
  opts.block = args.get_n("block", 0);

  std::unique_ptr<obs::CampaignObserver> observer = make_observer(args);
  opts.observer = observer.get();

  // Capture-once, replay-many (docs/STORE.md): --store-out additionally
  // persists every captured trace into an SLMTRC1 store; --from-store
  // replays a store through the CPA folds at fold speed instead of
  // capturing anything at all.
  opts.store_out = args.get("store-out", "");
  const std::string from_store = args.get("from-store", "");
  if (!from_store.empty() && !opts.store_out.empty()) {
    throw Error("attack: --from-store replays an existing store — it "
                "cannot also capture one; drop --store-out");
  }
  if (!from_store.empty() &&
      (!opts.checkpoint_dir.empty() || opts.resume ||
       opts.halt_after_traces > 0)) {
    throw Error("attack --from-store: replay never captures, so there is "
                "nothing to checkpoint — drop --checkpoint-dir/--resume/"
                "--halt-after");
  }
  if (!opts.store_out.empty() && opts.resume) {
    throw Error("attack --store-out: cannot combine with --resume — traces "
                "captured before the snapshot would be missing from the "
                "store");
  }
  // --fused-tvla rides the replay sweep (docs/STORE.md): the same
  // one-pass fold additionally feeds a specific Welch t-test partitioned
  // by the target leakage model's predicted class bit.
  const bool fused_tvla = args.options.count("fused-tvla") > 0;
  if (fused_tvla && from_store.empty()) {
    throw Error("attack --fused-tvla: fuses the t-test into the "
                "--from-store replay pass — add --from-store F.trc");
  }

  // --full-key: one shared capture pass attacks all 16 last-round key
  // bytes at once (docs/FULLKEY.md).
  const bool full_key = args.options.count("full-key") > 0;
  core::FullKeyOptions fk_opts;
  if (full_key) {
    const std::string ee = args.get("early-exit", "on");
    if (ee == "off" || ee == "0") {
      fk_opts.fused.early_exit = false;
    } else if (ee != "on" && ee != "1") {
      throw Error("unknown --early-exit '" + ee + "' (expected on or off)");
    }
    fk_opts.fused.early_exit_margin =
        args.get_d("early-exit-margin", fk_opts.fused.early_exit_margin);
  }

  core::StealthyAttack attack(circuit);

  // Replay path (docs/STORE.md): fold the stored readings through the
  // same CPA engines at the same checkpoint schedule the live capture
  // used — bit-identical results (partition invariance, sca/cpa.hpp)
  // without regenerating a single trace. The store's fingerprint must
  // match the campaign these flags resolve to (exit 14 otherwise).
  if (!from_store.empty()) {
    store::TraceStoreReader reader(from_store);
    const std::size_t rtraces = reader.trace_count();
    core::CampaignConfig cfg =
        full_key ? attack.fullkey_campaign_config(rtraces, mode)
                 : attack.byte_campaign_config(key_byte, rtraces, mode);
    cfg.observer = observer.get();
    core::CpaCampaign campaign(attack.setup(), cfg);
    const store::StoreKind kind = full_key ? store::StoreKind::kFullKey
                                           : store::StoreKind::kByteCampaign;
    reader.identity().require_compatible(
        campaign.store_identity(kind, rtraces), "attack --from-store");
    const std::vector<std::size_t> checkpoints =
        core::checkpoint_schedule(cfg.checkpoints, rtraces);
    const crypto::Block true_lrk =
        attack.setup().victim().cipher().last_round_key();
    std::cout << "replaying " << store::store_kind_name(reader.kind())
              << " store " << from_store << ": " << rtraces << " traces, "
              << reader.samples() << " sample(s), " << reader.chunk_count()
              << " chunk(s)\n";

    store::ReplayAllOptions aopts;
    aopts.attack = !full_key;
    aopts.fullkey = full_key;
    aopts.tvla = fused_tvla;
    aopts.fullkey_opts = fk_opts.fused;
    const store::ReplayAllResult ar = store::replay_all(
        reader, checkpoints, true_lrk, aopts, observer.get());
    const char* const fused_note = fused_tvla ? " (fused tvla)" : "";
    if (full_key) {
      const store::ReplayFullKeyResult& fr = ar.fullkey;
      std::printf("fullkey replay: %zu traces folded, %.2f s%s\n", fr.traces,
                  ar.replay_seconds, fused_note);
      print_byte_table(fr);
      std::printf("last-round key: true %s recovered %s\n",
                  crypto::block_to_hex(true_lrk).c_str(),
                  crypto::block_to_hex(fr.recovered_last_round_key).c_str());
      const crypto::Block true_master = crypto::recover_master_key(true_lrk);
      const crypto::Block recovered_master =
          crypto::recover_master_key(fr.recovered_last_round_key);
      std::printf("master key:     true %s recovered %s -> %s\n",
                  crypto::block_to_hex(true_master).c_str(),
                  crypto::block_to_hex(recovered_master).c_str(),
                  fr.success ? "RECOVERED" : "not recovered");
    } else {
      const store::ReplayAttackResult& r = ar.attack;
      std::printf("replay: %zu traces folded, %.2f s%s\n", r.traces,
                  ar.replay_seconds, fused_note);
      std::printf("true 0x%02x recovered 0x%02x -> %s", r.correct_guess,
                  r.recovered_guess,
                  r.key_recovered ? "RECOVERED" : "not recovered");
      if (r.mtd.disclosed()) std::printf(" (~%zu traces)", *r.mtd.traces);
      std::printf("\n");
    }
    if (ar.has_tvla) {
      print_tvla_verdict("specific tvla: ", ar.tvla.max_abs_t,
                         ar.tvla.leakage_detected);
    }
    return (full_key ? ar.fullkey.success : ar.attack.key_recovered) ? 0 : 4;
  }

  if (full_key) {
    std::cout << "circuit " << core::benign_circuit_name(circuit)
              << ", mode " << core::sensor_mode_name(mode) << ", " << traces
              << " traces, full key (fused), threads "
              << core::resolve_threads(threads) << "\n";
  } else {
    std::cout << "circuit " << core::benign_circuit_name(circuit)
              << ", mode " << core::sensor_mode_name(mode) << ", " << traces
              << " traces, key byte " << key_byte << ", threads "
              << core::resolve_threads(threads) << "\n";
  }
  const auto audit = attack.check_stealthiness();
  std::cout << "bitstream check: " << audit.summary() << "\n";

  if (full_key) {
    fk_opts.run = opts;
    core::StealthyAttack::FullKeyReport fr;
    try {
      fr = attack.recover_full_key(traces, mode, threads, fk_opts);
    } catch (const core::CampaignHalted& halted) {
      std::cout << "campaign halted after " << halted.traces()
                << " traces; snapshot at " << halted.snapshot_path() << "\n"
                << "resume with: slm attack --full-key --resume "
                << opts.checkpoint_dir << "\n";
      return 5;
    } catch (const core::CheckpointContractMismatch& mismatch) {
      std::cerr << "slm: error: " << mismatch.what() << "\n";
      return 6;
    }

    if (fr.resumed_from > 0) {
      std::cout << "resumed from trace " << fr.resumed_from << "\n";
    }
    std::printf("fullkey: %zu traces captured, %u thread(s), block %zu, "
                "%.2f s\n",
                fr.traces_captured, fr.threads_used, fr.block_size,
                fr.capture_seconds);
    std::printf("byte  true  recovered  ok   converged\n");
    for (const auto& b : fr.bytes) {
      std::printf("%4zu  0x%02x       0x%02x  %s  %7zu%s\n", b.key_byte,
                  b.true_value, b.recovered, b.success ? "yes" : "NO ",
                  b.traces, b.early_exited ? " (early exit)" : "");
    }
    const crypto::Block true_lrk =
        attack.setup().victim().cipher().last_round_key();
    std::printf("last-round key: true %s recovered %s\n",
                crypto::block_to_hex(true_lrk).c_str(),
                crypto::block_to_hex(fr.last_round_key).c_str());
    const crypto::Block true_master = crypto::recover_master_key(true_lrk);
    std::printf("master key:     true %s recovered %s -> %s\n",
                crypto::block_to_hex(true_master).c_str(),
                crypto::block_to_hex(fr.master_key).c_str(),
                fr.success ? "RECOVERED" : "not recovered");

    if (observer != nullptr && observer->has_sink()) {
      observer->write_manifest(
          obs::JsonWriter()
              .field("circuit", core::benign_circuit_name(circuit))
              .field("mode", core::sensor_mode_name(mode))
              .field("fullkey", true)
              .field("traces_captured",
                     static_cast<std::uint64_t>(fr.traces_captured))
              .field("bytes_early_exited",
                     static_cast<std::uint64_t>(fr.bytes_early_exited))
              .field("master_key", crypto::block_to_hex(fr.master_key))
              .field("success", fr.success)
              .field("threads", static_cast<std::uint64_t>(fr.threads_used))
              .field("block", static_cast<std::uint64_t>(fr.block_size))
              .field("capture_seconds", fr.capture_seconds));
    }
    return fr.success ? 0 : 4;
  }

  core::KeyByteReport r;
  try {
    r = attack.recover_key_byte(key_byte, traces, mode, threads, opts);
  } catch (const core::CampaignHalted& halted) {
    std::cout << "campaign halted after " << halted.traces()
              << " traces; snapshot at " << halted.snapshot_path() << "\n"
              << "resume with: slm attack --resume "
              << opts.checkpoint_dir << "\n";
    return 5;
  } catch (const core::CheckpointContractMismatch& mismatch) {
    std::cerr << "slm: error: " << mismatch.what() << "\n";
    return 6;
  }

  if (r.resumed_from > 0) {
    std::cout << "resumed from trace " << r.resumed_from << "\n";
  }
  if (r.capture_seconds > 0.0) {
    std::printf("campaign: %u thread(s), block %zu, %.2f s, "
                "%.0f traces/sec\n",
                r.threads_used, r.block_size, r.capture_seconds,
                static_cast<double>(r.traces) / r.capture_seconds);
  }
  if (observer != nullptr && r.kernel_seconds > 0.0) {
    std::printf("phase split: kernel %.2f s, cpa %.2f s, selection %.2f s, "
                "checkpoint io %.2f s\n",
                r.kernel_seconds, r.cpa_seconds, r.selection_seconds,
                r.checkpoint_io_seconds);
  }
  std::printf("true 0x%02x recovered 0x%02x -> %s", r.true_value,
              r.recovered, r.success ? "RECOVERED" : "not recovered");
  if (r.mtd.disclosed()) std::printf(" (~%zu traces)", *r.mtd.traces);
  std::printf("\n");

  if (observer != nullptr && observer->has_sink()) {
    observer->write_manifest(
        obs::JsonWriter()
            .field("circuit", core::benign_circuit_name(circuit))
            .field("mode", core::sensor_mode_name(mode))
            .field("key_byte", static_cast<std::uint64_t>(key_byte))
            .field("traces", static_cast<std::uint64_t>(r.traces))
            .field("recovered", static_cast<std::uint64_t>(r.recovered))
            .field("success", r.success)
            .field("threads", static_cast<std::uint64_t>(r.threads_used))
            .field("block", static_cast<std::uint64_t>(r.block_size))
            .field("capture_seconds", r.capture_seconds));
  }
  return r.success ? 0 : 4;
}

// `slm tvla` — non-specific leakage assessment with the configured
// sensor: fixed-vs-random plaintext populations through Welch's t-test
// per sample point, no key hypothesis at all (sca/tvla.hpp). --store-out
// captures the interleaved populations into an SLMTRC1 store;
// --from-store replays one at fold speed. Exit 0 = leakage evidence
// (max |t| > 4.5), 4 = none.
int cmd_tvla(const Args& args) {
  const core::BenignCircuit circuit = parse_circuit(args);
  const core::SensorMode mode = parse_mode(args, "tdc");
  const std::size_t tpp = args.get_n("traces", 2000);  // per population
  const std::size_t key_byte = args.get_n("key-byte", 3);
  std::unique_ptr<obs::CampaignObserver> observer = make_observer(args);

  const std::string store_out = args.get("store-out", "");
  const std::string from_store = args.get("from-store", "");
  if (!store_out.empty() && !from_store.empty()) {
    throw Error("tvla: --from-store replays an existing store — it cannot "
                "also capture one; drop --store-out");
  }

  core::StealthyAttack attack(circuit);

  if (!from_store.empty()) {
    store::TraceStoreReader reader(from_store);
    const std::size_t total = reader.trace_count();
    // The capture interleaves fixed/random, so the per-population count
    // is half the store; the identity check rejects non-TVLA stores
    // (kind is a fingerprinted field).
    core::CampaignConfig cfg =
        attack.byte_campaign_config(key_byte, total / 2, mode);
    cfg.observer = observer.get();
    core::CpaCampaign campaign(attack.setup(), cfg);
    reader.identity().require_compatible(
        campaign.store_identity(store::StoreKind::kTvla, total),
        "tvla --from-store");
    store::ReplayAllOptions aopts;
    aopts.attack = false;
    aopts.fullkey = false;
    const store::ReplayAllResult ar = store::replay_all(
        reader, {}, crypto::Block{}, aopts, observer.get());
    std::printf("tvla replay: %zu fixed + %zu random traces, %.2f s\n",
                ar.tvla.fixed_traces, ar.tvla.random_traces,
                ar.replay_seconds);
    print_tvla_verdict("", ar.tvla.max_abs_t, ar.tvla.leakage_detected);
    return ar.tvla.leakage_detected ? 0 : 4;
  }

  core::CampaignConfig cfg = attack.byte_campaign_config(key_byte, tpp, mode);
  cfg.observer = observer.get();
  cfg.store_out = store_out;
  core::CpaCampaign campaign(attack.setup(), cfg);
  std::cout << "circuit " << core::benign_circuit_name(circuit) << ", mode "
            << core::sensor_mode_name(mode) << ", " << tpp
            << " traces per population\n";
  // 0 = all hardware threads; the t-values never depend on it.
  const unsigned threads = static_cast<unsigned>(args.get_n("threads", 0));
  const sca::WelchTTest tt = campaign.run_tvla(tpp, threads);
  print_tvla_verdict("", tt.max_abs_t(), tt.leakage_detected());
  return tt.leakage_detected() ? 0 : 4;
}

// `slm capture` — capture-only front end (docs/STORE.md): run the
// configured campaign and persist its traces into an SLMTRC1 store for
// later `--from-store` replay. Sugar for `slm attack/tvla --store-out`
// (the attack still runs and reports — capture IS the campaign; the
// store is the reusable byproduct). `--tvla` captures the fixed-vs-
// random populations instead of an attack stream.
int cmd_capture(const Args& args) {
  if (args.get("store-out", "").empty()) {
    throw Error("capture: need --store-out FILE.trc");
  }
  if (!args.get("from-store", "").empty()) {
    throw Error("capture: --from-store is a replay flag — use `slm attack "
                "--from-store` or `slm tvla --from-store`");
  }
  return args.options.count("tvla") > 0 ? cmd_tvla(args) : cmd_attack(args);
}

// `slm analyze` — fused one-pass store analytics (docs/STORE.md): sweep
// an SLMTRC1 store ONCE and feed every analysis its kind supports from
// the same cache-resident column blocks — target-byte attack, all-16-
// bytes full key, and the Welch t-test — instead of one replay pass per
// analysis. The campaign is inferred from the store identity (circuit,
// mode, target byte); the reconstructed fingerprint must
// still match (exit 14), so analyze never mislabels a store captured
// under non-default config. Exit 0 = full key recovered (attack-kind
// stores) / leakage evidence (tvla stores), 4 otherwise.
int cmd_analyze(const Args& args) {
  std::string from_store = args.get("from-store", "");
  if (from_store.empty() && !args.positional.empty()) {
    from_store = args.positional[0];
  }
  if (from_store.empty()) throw Error("analyze: need --from-store F.trc");
  std::unique_ptr<obs::CampaignObserver> observer = make_observer(args);

  store::TraceStoreReader reader(from_store);
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
  cfg.observer = observer.get();
  core::CpaCampaign campaign(attack.setup(), cfg);
  reader.identity().require_compatible(campaign.store_identity(kind, n),
                                       "analyze");
  const std::vector<std::size_t> checkpoints =
      core::checkpoint_schedule(cfg.checkpoints, n);
  const crypto::Block true_lrk =
      attack.setup().victim().cipher().last_round_key();

  std::cout << "analyzing " << store::store_kind_name(kind) << " store "
            << from_store << ": " << n << " traces, " << reader.samples()
            << " sample(s), circuit " << core::benign_circuit_name(circuit)
            << ", mode " << core::sensor_mode_name(mode) << "\n";

  store::ReplayAllOptions aopts;
  if (kind == store::StoreKind::kTvla) {
    aopts.attack = false;
    aopts.fullkey = false;
  }
  const store::ReplayAllResult ar =
      store::replay_all(reader, checkpoints, true_lrk, aopts, observer.get());
  std::printf("fused pass: %zu traces, one sweep, %.2f s\n", ar.traces,
              ar.replay_seconds);

  if (ar.has_attack) {
    const store::ReplayAttackResult& r = ar.attack;
    std::printf("attack byte %zu: true 0x%02x recovered 0x%02x -> %s",
                key_byte, r.correct_guess, r.recovered_guess,
                r.key_recovered ? "RECOVERED" : "not recovered");
    if (r.mtd.disclosed()) std::printf(" (~%zu traces)", *r.mtd.traces);
    std::printf("\n");
  }
  if (ar.has_fullkey) {
    const store::ReplayFullKeyResult& fr = ar.fullkey;
    print_byte_table(fr);
    const crypto::Block true_master = crypto::recover_master_key(true_lrk);
    const crypto::Block recovered_master =
        crypto::recover_master_key(fr.recovered_last_round_key);
    std::printf("master key: true %s recovered %s -> %s\n",
                crypto::block_to_hex(true_master).c_str(),
                crypto::block_to_hex(recovered_master).c_str(),
                fr.success ? "RECOVERED" : "not recovered");
  }
  if (ar.has_tvla) {
    print_tvla_verdict(
        kind == store::StoreKind::kTvla ? "tvla: " : "specific tvla: ",
        ar.tvla.max_abs_t, ar.tvla.leakage_detected);
  }
  if (kind == store::StoreKind::kTvla) {
    return ar.tvla.leakage_detected ? 0 : 4;
  }
  return ar.fullkey.success ? 0 : 4;
}

// Campaign-as-a-service verbs (docs/SERVE.md): submit writes a job file
// into the spool, serve is the resident multi-tenant scheduler, status
// summarizes the daemon's JSONL feed. Exit codes: 10 = job rejected
// (queue/spool full), 11 = bad job spec, 12 = serve stopped by
// --max-slices with work remaining (see docs/CLI.md).

// Exclusive flock over <spool>/.lock, held for the whole of one submit:
// the capacity count, the .seq read-modify-write, and the claim of the
// final spool name must be one critical section or two concurrent
// submitters can mint the same id and silently clobber each other's
// queued job file.
class SpoolLock {
 public:
  explicit SpoolLock(const std::filesystem::path& path)
      : fd_(::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644)) {
    if (fd_ < 0 || ::flock(fd_, LOCK_EX) != 0) {
      const std::string why = std::strerror(errno);
      if (fd_ >= 0) ::close(fd_);
      throw Error("submit: cannot lock '" + path.string() + "': " + why);
    }
  }
  ~SpoolLock() { ::close(fd_); }  // close releases the flock
  SpoolLock(const SpoolLock&) = delete;
  SpoolLock& operator=(const SpoolLock&) = delete;

 private:
  int fd_;
};

int cmd_submit(const Args& args) {
  const std::string spool = args.get("spool", "");
  if (spool.empty()) throw Error("submit: need --spool DIR");
  std::filesystem::create_directories(spool);
  const SpoolLock lock(std::filesystem::path(spool) / ".lock");

  serve::JobSpec spec;
  spec.tenant = args.get("tenant", "");
  spec.priority = static_cast<std::int64_t>(args.get_d("priority", 0));
  spec.kind = serve::job_kind_from_name(args.get("kind", "attack"), "submit");
  spec.circuit =
      serve::circuit_from_name(args.get("circuit", "alu"), "submit");
  spec.mode = serve::mode_from_name(args.get("mode", "tdc"), "submit");
  spec.traces = args.get_n("traces", 20000);
  spec.key_byte = args.get_n("key-byte", 3);
  spec.store = args.get("store", "");

  // Backpressure starts at the submission edge: the spool is the
  // queue's antechamber, so a tenant hits the bounded-queue refusal
  // (exit 10) here instead of silently deepening the backlog.
  const std::size_t cap =
      args.get_n("queue-cap", serve::kDefaultQueueCapacity);
  std::size_t pending = 0;
  for (const auto& e : std::filesystem::directory_iterator(spool)) {
    if (e.is_regular_file() && e.path().extension() == ".json") ++pending;
  }
  if (pending >= cap) {
    throw serve::QueueFullError(
        "submit: spool holds " + std::to_string(pending) + "/" +
        std::to_string(cap) + " pending job(s); try again later");
  }

  // Deterministic ids from a per-spool sequence file: two identically
  // ordered submission batches produce identical ids (and therefore
  // byte-identical result files — serve_smoke relies on it).
  std::string id = args.get("id", "");
  if (id.empty()) {
    const std::filesystem::path seq_file =
        std::filesystem::path(spool) / ".seq";
    std::size_t seq = 0;
    if (std::ifstream sf(seq_file); sf) sf >> seq;
    std::string tenant_tag;
    for (const char c : spec.tenant) {
      tenant_tag += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "job_%04zu_", seq);
    id = buf + tenant_tag;
    std::ofstream(seq_file, std::ios::trunc) << (seq + 1) << "\n";
  }
  spec.id = id;

  // One validation authority: round-trip through the daemon's own
  // parser, so submit can never write a file serve would reject.
  const std::string json = serve::job_to_json(spec);
  (void)serve::parse_job_json(json, "submit");

  const std::filesystem::path file =
      std::filesystem::path(spool) / (id + ".json");
  // Write to a per-process tmp name, then link(2) it into place: the
  // complete file appears under its final name atomically (the daemon
  // never reads a torn job), and — unlike rename — link refuses to
  // clobber, so a duplicate id surfaces as EEXIST instead of silently
  // replacing another tenant's queued job.
  const std::filesystem::path tmp =
      file.string() + "." + std::to_string(::getpid()) + ".tmp";
  {
    std::ofstream os(tmp, std::ios::trunc);
    if (!(os << json << "\n")) {
      throw Error("submit: cannot write '" + tmp.string() + "'");
    }
  }
  if (::link(tmp.c_str(), file.c_str()) != 0) {
    const int err = errno;
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    if (err == EEXIST) {
      throw serve::JobSpecError("submit: job id '" + id +
                                "' already queued in " + spool);
    }
    throw Error("submit: cannot create '" + file.string() +
                "': " + std::strerror(err));
  }
  {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
  }
  std::printf("submitted %s (tenant %s, %s, %llu traces) -> %s\n",
              id.c_str(), spec.tenant.c_str(),
              serve::job_kind_name(spec.kind),
              static_cast<unsigned long long>(spec.traces),
              file.string().c_str());
  return 0;
}

int cmd_serve(const Args& args) {
  serve::ServeOptions so;
  so.spool_dir = args.get("spool", "");
  so.results_dir = args.get("results", "");
  if (so.spool_dir.empty() || so.results_dir.empty()) {
    throw Error("serve: need --spool DIR and --results DIR");
  }
  so.max_queue = args.get_n("max-queue", serve::kDefaultQueueCapacity);
  so.timeslice_traces = args.get_n("timeslice", 0);
  so.threads = static_cast<unsigned>(args.get_n("threads", 1));
  so.max_slices = args.get_n("max-slices", 0);
  so.poll_ms = args.get_n("poll-ms", 25);
  so.idle_polls = args.get_n("idle-polls", 2);

  const serve::ServeReport rep = serve::serve(so);
  std::printf("serve: %zu slice(s): %zu admitted (+%zu recovered), "
              "%zu completed, %zu failed, %zu rejected, %zu preemption(s)\n",
              rep.slices, rep.jobs_admitted, rep.jobs_recovered,
              rep.jobs_completed, rep.jobs_failed, rep.jobs_rejected,
              rep.preemptions);
  if (rep.halted) {
    std::printf("serve: halted by --max-slices with work remaining; "
                "restart with the same --spool/--results to resume\n");
    return 12;
  }
  if (rep.spool_remaining > 0) {
    // NOT the max-slices halt (exit 12): the daemon drained everything
    // it admitted, but job file(s) arrived during shutdown.
    std::printf("serve: drained, but %zu job file(s) arrived in the spool "
                "during shutdown; rerun with the same --spool/--results "
                "to admit them\n",
                rep.spool_remaining);
    return 0;
  }
  std::printf("serve: drained\n");
  return 0;
}

int cmd_status(const Args& args) {
  const std::string results = args.get("results", "");
  if (results.empty()) throw Error("status: need --results DIR");
  const serve::StatusSummary s =
      serve::read_status(results, args.get("spool", ""));
  if (!s.found) {
    std::printf("status: no serve feed at %s/serve.jsonl\n",
                results.c_str());
    return 1;
  }
  std::printf("queue depth: %llu   spool pending: %llu   running: %s\n",
              static_cast<unsigned long long>(s.queue_depth),
              static_cast<unsigned long long>(s.spool_pending),
              s.running_job.empty() ? "-" : s.running_job.c_str());
  std::printf("slices %llu  completed %llu  failed %llu  rejected %llu  "
              "preempted %llu\n",
              static_cast<unsigned long long>(s.slices),
              static_cast<unsigned long long>(s.completed),
              static_cast<unsigned long long>(s.failed),
              static_cast<unsigned long long>(s.rejected),
              static_cast<unsigned long long>(s.preemptions));
  std::printf("%-16s %12s %8s\n", "tenant", "charged", "pending");
  for (const serve::StatusTenant& t : s.tenants) {
    std::printf("%-16s %12llu %8llu\n", t.tenant.c_str(),
                static_cast<unsigned long long>(t.charged),
                static_cast<unsigned long long>(t.pending));
  }
  return 0;
}

int usage() {
  std::cerr
      << "usage: slm <command> [options]\n"
         "  gen    --circuit rca|ks|c6288|wallace|barrel [--width N] "
         "[--out F]\n"
         "  check  FILE.bench [--strict-clock-mhz F]\n"
         "  sta    FILE.bench [--clock-mhz F]\n"
         "  atpg   FILE.bench [--band-lo NS] [--band-hi NS]\n"
         "  attack [--circuit alu|c6288] [--mode tdc|tdc-bit|hw|bit|ro]\n"
         "         [--traces N] [--key-byte B] [--threads N] [--block N]\n"
         "         [--full-key] [--early-exit on|off] "
         "[--early-exit-margin F]\n"
         "         [--checkpoint-dir D] [--resume D] [--halt-after N]\n"
         "         [--trace-out F.jsonl]\n"
         "         [--store-out F.trc | --from-store F.trc [--fused-tvla]]\n"
         "  capture --store-out F.trc [--tvla] [+ attack/tvla flags]\n"
         "  analyze --from-store F.trc [--trace-out F.jsonl]\n"
         "  tvla   [--circuit alu|c6288] [--mode tdc|tdc-bit|hw|bit|ro]\n"
         "         [--traces N-per-population] [--key-byte B]\n"
         "         [--trace-out F.jsonl]\n"
         "         [--store-out F.trc | --from-store F.trc]\n"

         "  submit --spool D --tenant T\n"
         "         [--kind attack|full-key|tvla|analyze]\n"
         "         [--priority P] [--circuit alu|c6288] [--mode M]\n"
         "         [--traces N] [--key-byte B]\n"
         "         [--store F.trc] [--queue-cap N] [--id ID]\n"
         "  serve  --spool D --results D [--max-queue N] [--timeslice N]\n"
         "         [--threads N] [--max-slices N] [--poll-ms MS]\n"
         "         [--idle-polls N]\n"
         "  status --results D [--spool D]\n";
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const Args args = parse_args(argc, argv, 2);
  if (const std::vector<std::string>* known = known_options(cmd)) {
    for (const auto& option : args.options) {
      if (std::find(known->begin(), known->end(), option.first) ==
          known->end()) {
        std::cerr << "slm: " << cmd << ": unknown option --" << option.first
                  << "\n";
        return usage();
      }
    }
  }
  try {
    if (cmd == "gen") return cmd_gen(args);
    if (cmd == "check") return cmd_check(args);
    if (cmd == "sta") return cmd_sta(args);
    if (cmd == "atpg") return cmd_atpg(args);
    if (cmd == "attack") return cmd_attack(args);
    if (cmd == "capture") return cmd_capture(args);
    if (cmd == "analyze") return cmd_analyze(args);
    if (cmd == "tvla") return cmd_tvla(args);
    if (cmd == "submit") return cmd_submit(args);
    if (cmd == "serve") return cmd_serve(args);
    if (cmd == "status") return cmd_status(args);
    std::cerr << "slm: unknown command '" << cmd << "'\n";
    return usage();
  } catch (const serve::QueueFullError& e) {
    std::cerr << "slm: error: " << e.what() << "\n";
    return 10;
  } catch (const serve::JobSpecError& e) {
    std::cerr << "slm: error: " << e.what() << "\n";
    return 11;
  } catch (const store::StoreFormatError& e) {
    std::cerr << "slm: error: " << e.what() << "\n";
    return 13;
  } catch (const store::StoreMismatch& e) {
    std::cerr << "slm: error: " << e.what() << "\n";
    return 14;
  } catch (const std::exception& e) {
    std::cerr << "slm: error: " << e.what() << "\n";
    return 1;
  }
}
