#include "serve/job.hpp"

#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/jsonl.hpp"

namespace slm::serve {

namespace {

// A job id becomes a results-directory name (<results>/<id>), and the
// spool is writable by every tenant — so anything that could escape or
// hide inside the results tree is refused outright: path separators,
// ".." (via the leading-dot rule), and every character outside
// [A-Za-z0-9._-]. Mirrors the tenant-tag sanitization in `slm submit`.
void validate_job_id(const std::string& id, const std::string& where) {
  bool ok = !id.empty() && id.front() != '.';
  for (const char c : id) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '.' &&
        c != '_' && c != '-') {
      ok = false;
      break;
    }
  }
  if (!ok) {
    throw JobSpecError(where + ": job id '" + id +
                       "' must match [A-Za-z0-9._-]+ and not start "
                       "with '.'");
  }
}

}  // namespace

const char* job_kind_name(JobKind k) {
  switch (k) {
    case JobKind::kAttack:
      return "attack";
    case JobKind::kFullKey:
      return "full-key";
    case JobKind::kTvla:
      return "tvla";
    case JobKind::kAnalyze:
      return "analyze";
  }
  return "?";
}

JobKind job_kind_from_name(std::string_view name, const std::string& where) {
  if (name == "attack") return JobKind::kAttack;
  if (name == "full-key") return JobKind::kFullKey;
  if (name == "tvla") return JobKind::kTvla;
  if (name == "analyze") return JobKind::kAnalyze;
  throw JobSpecError(where + ": unknown job kind '" + std::string(name) +
                     "' (want attack | full-key | tvla | analyze)");
}

core::BenignCircuit circuit_from_name(std::string_view name,
                                      const std::string& where) {
  if (name == "alu") return core::BenignCircuit::kAlu;
  if (name == "c6288") return core::BenignCircuit::kC6288x2;
  throw JobSpecError(where + ": unknown circuit '" + std::string(name) +
                     "' (want alu | c6288)");
}

core::SensorMode mode_from_name(std::string_view name,
                                const std::string& where) {
  if (name == "tdc") return core::SensorMode::kTdcFull;
  if (name == "tdc-bit") return core::SensorMode::kTdcSingleBit;
  if (name == "hw") return core::SensorMode::kBenignHw;
  if (name == "bit") return core::SensorMode::kBenignSingleBit;
  if (name == "ro") return core::SensorMode::kRoCounter;
  throw JobSpecError(where + ": unknown mode '" + std::string(name) +
                     "' (want tdc | tdc-bit | hw | bit | ro)");
}

const char* circuit_cli_name(core::BenignCircuit c) {
  return c == core::BenignCircuit::kC6288x2 ? "c6288" : "alu";
}

const char* mode_cli_name(core::SensorMode m) {
  switch (m) {
    case core::SensorMode::kTdcFull:
      return "tdc";
    case core::SensorMode::kTdcSingleBit:
      return "tdc-bit";
    case core::SensorMode::kBenignHw:
      return "hw";
    case core::SensorMode::kBenignSingleBit:
      return "bit";
    case core::SensorMode::kRoCounter:
      return "ro";
  }
  return "?";
}

JobSpec parse_job_json(std::string_view text, const std::string& where) {
  obs::FlatJson obj;
  try {
    obj = obs::FlatJson::parse(text);
  } catch (const Error& e) {
    throw JobSpecError(where + ": not a JSON object (" + e.what() + ")");
  }

  static constexpr std::string_view kKnown[] = {
      "id",     "tenant", "priority", "kind",          "circuit",
      "mode",   "traces", "key_byte", "fabric_shards", "store",
  };
  for (const auto& [key, value] : obj.raw_fields()) {
    bool known = false;
    for (const std::string_view k : kKnown) {
      if (key == k) {
        known = true;
        break;
      }
    }
    if (!known) {
      throw JobSpecError(where + ": unknown job field '" + key + "'");
    }
    (void)value;
  }

  JobSpec spec;
  if (const auto id = obj.string_field("id")) {
    validate_job_id(*id, where);
    spec.id = *id;
  }
  const auto tenant = obj.string_field("tenant");
  if (!tenant || tenant->empty()) {
    throw JobSpecError(where + ": job needs a non-empty \"tenant\"");
  }
  spec.tenant = *tenant;

  if (obj.has("priority")) {
    const auto p = obj.number_field("priority");
    if (!p) throw JobSpecError(where + ": \"priority\" must be a number");
    spec.priority = static_cast<std::int64_t>(*p);
  }
  if (obj.has("kind")) {
    const auto k = obj.string_field("kind");
    if (!k) throw JobSpecError(where + ": \"kind\" must be a string");
    spec.kind = job_kind_from_name(*k, where);
  }
  if (obj.has("circuit")) {
    const auto c = obj.string_field("circuit");
    if (!c) throw JobSpecError(where + ": \"circuit\" must be a string");
    spec.circuit = circuit_from_name(*c, where);
  }
  if (obj.has("mode")) {
    const auto m = obj.string_field("mode");
    if (!m) throw JobSpecError(where + ": \"mode\" must be a string");
    spec.mode = mode_from_name(*m, where);
  }
  if (obj.has("traces")) {
    const auto t = obj.uint_field("traces");
    if (!t || *t == 0) {
      throw JobSpecError(where +
                         ": \"traces\" must be a positive integer");
    }
    spec.traces = *t;
  }
  if (obj.has("key_byte")) {
    const auto b = obj.uint_field("key_byte");
    if (!b || *b > 15) {
      throw JobSpecError(where + ": \"key_byte\" must be in [0, 15]");
    }
    spec.key_byte = *b;
  }
  // Retired with the process fabric. Job files written before then carry
  // "fabric_shards": 0 (spool files and results/<id>/job.json), so a
  // zero is accepted and ignored; anything else asked for the fabric.
  if (obj.has("fabric_shards")) {
    const auto f = obj.uint_field("fabric_shards");
    if (!f || *f != 0) {
      throw JobSpecError(where +
                         ": \"fabric_shards\" is retired: the process "
                         "fabric is gone; every job runs in-process on the "
                         "daemon's pool (only 0 is accepted, and ignored)");
    }
  }
  if (obj.has("store")) {
    const auto s = obj.string_field("store");
    if (!s) throw JobSpecError(where + ": \"store\" must be a string");
    if (!s->empty() && spec.kind != JobKind::kAnalyze) {
      throw JobSpecError(where + ": store only applies to analyze jobs");
    }
    spec.store = *s;
  }
  if (spec.kind == JobKind::kAnalyze && spec.store.empty()) {
    throw JobSpecError(where +
                       ": analyze jobs need a non-empty \"store\" path");
  }
  return spec;
}

JobSpec load_job_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw JobSpecError(path + ": cannot read job file");
  std::ostringstream buf;
  buf << is.rdbuf();
  JobSpec spec = parse_job_json(buf.str(), path);
  if (spec.id.empty()) {
    spec.id = std::filesystem::path(path).stem().string();
    validate_job_id(spec.id, path);  // a stem can still be "." or ".foo"
  }
  return spec;
}

std::string job_to_json(const JobSpec& spec) {
  obs::JsonWriter w;
  if (!spec.id.empty()) w.field("id", spec.id);
  w.field("tenant", spec.tenant)
      .field("priority", static_cast<std::int64_t>(spec.priority))
      .field("kind", job_kind_name(spec.kind))
      .field("circuit", circuit_cli_name(spec.circuit))
      .field("mode", mode_cli_name(spec.mode))
      .field("traces", static_cast<std::uint64_t>(spec.traces))
      .field("key_byte", static_cast<std::uint64_t>(spec.key_byte));
  if (!spec.store.empty()) w.field("store", spec.store);
  return w.str();
}

}  // namespace slm::serve
