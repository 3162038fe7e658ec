// Campaign-as-a-service job specs (docs/SERVE.md).
//
// A job is one campaign request from one tenant: a single-byte attack,
// a fused full-key attack, or a TVLA leakage assessment. Jobs travel as
// one-object JSON files: `slm submit` writes them into a spool
// directory, the `slm serve` daemon admits them into its bounded
// fair-share queue. No network stack — the spool directory IS the
// submission API, which keeps the protocol inspectable with `ls` and
// `cat` and makes the daemon trivially crash-safe (a job file is moved,
// never mutated).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/error.hpp"
#include "core/campaign.hpp"
#include "core/setup.hpp"

namespace slm::serve {

/// Malformed or out-of-range job file / submit request (CLI exit 11).
class JobSpecError : public Error {
 public:
  using Error::Error;
};

/// Admission control: the bounded queue (or the spool backing it) is at
/// capacity and the job was refused (CLI exit 10, `slm.serve.rejected`).
class QueueFullError : public Error {
 public:
  using Error::Error;
};

enum class JobKind {
  kAttack,   ///< single last-round key byte, CPA
  kFullKey,  ///< fused 16-byte campaign (recover_full_key)
  kTvla,     ///< Welch t-test leakage assessment (non-preemptible)
  kAnalyze,  ///< fused one-pass replay of an SLMTRC1 store
             ///< (store::replay_all; non-preemptible)
};

const char* job_kind_name(JobKind k);

/// Bounded-queue capacity both `slm submit` (spool backpressure) and the
/// daemon scheduler default to; --queue-cap / --max-queue override it.
inline constexpr std::size_t kDefaultQueueCapacity = 8;

/// One tenant's campaign request. Field names match the JSON schema in
/// docs/SERVE.md one to one.
struct JobSpec {
  std::string id;      ///< spool-file stem; assigned by `slm submit`
  std::string tenant;  ///< required — the fair-share accounting key
  std::int64_t priority = 0;  ///< higher first among a tenant's own jobs
  JobKind kind = JobKind::kAttack;
  core::BenignCircuit circuit = core::BenignCircuit::kAlu;
  core::SensorMode mode = core::SensorMode::kTdcFull;
  std::uint64_t traces = 20000;  ///< per population for kTvla
  std::uint64_t key_byte = 3;    ///< kAttack only
  /// kAnalyze only (required there): path to the SLMTRC1 store the
  /// fused one-pass replay sweeps. The store's own identity supplies
  /// circuit/mode/traces; the spec fields are informational.
  std::string store;
};

/// Parse + validate one job object. `where` names the source (file
/// path, "submit") for error messages. Throws JobSpecError on malformed
/// JSON, unknown fields values, a missing tenant, a zero trace budget,
/// or an id that is not a safe results-directory name (must match
/// [A-Za-z0-9._-]+ with no leading dot — ids become <results>/<id>, so
/// separators and ".." would be path traversal from the spool).
JobSpec parse_job_json(std::string_view text, const std::string& where);

/// Read `path` and parse it; the job id becomes the file stem.
JobSpec load_job_file(const std::string& path);

/// Serialize (the exact schema parse_job_json accepts — round-trips).
std::string job_to_json(const JobSpec& spec);

/// Name <-> enum helpers shared with the CLI ("attack" / "full-key" /
/// "tvla" / "analyze"; circuits "alu" / "c6288"; modes "tdc" /
/// "tdc-bit" / "hw" / "bit" / "ro"). The from_* directions throw
/// JobSpecError.
JobKind job_kind_from_name(std::string_view name, const std::string& where);
core::BenignCircuit circuit_from_name(std::string_view name,
                                      const std::string& where);
core::SensorMode mode_from_name(std::string_view name,
                                const std::string& where);
const char* circuit_cli_name(core::BenignCircuit c);
const char* mode_cli_name(core::SensorMode m);

}  // namespace slm::serve
