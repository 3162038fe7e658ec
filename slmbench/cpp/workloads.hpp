// The benchmark's four workloads. Each has a set-up, a unit op (the
// thing timed, through the library's public entry points), a traced
// layer walk of the same op, and an observer-attached run of the op.
// Every op yields an outcome string that is compared with the value
// pinned in slmbench/pins.tsv for its input variant.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/observer.hpp"
#include "trace.hpp"
#include "walk.hpp"

namespace slmperf {

struct OpResult {
  std::string outcome;  ///< compared with the pin
  double traces = 0.0;  ///< traces captured or replayed by the op
  double jobs = 1.0;    ///< jobs completed by the op
  /// Per-job admission-to-result seconds (serve); empty elsewhere.
  std::vector<double> turnaround_s;
};

/// The serve run's own report, from its serve.jsonl stream.
struct ServeStats {
  double slices = 0.0;
  double preemptions = 0.0;
  std::vector<double> queue_wait_s;
  std::vector<double> slice_s;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Worker threads the op's engine runs on (recorded in the output).
  virtual unsigned threads() const = 0;
  /// One line describing the inputs this variant generated.
  virtual std::string inputs() const = 0;

  /// Build everything the op needs. With a tracer, the set-up's library
  /// calls are recorded as spans on its coordinator lane.
  virtual void setup(Tracer* tr) = 0;
  /// Called before every op, untimed (serve re-spools its jobs).
  virtual void prepare() {}
  virtual OpResult op() = 0;
  virtual OpResult walk(Tracer& tr, WalkCounts& counts) = 0;
  /// The op with an obs::CampaignObserver attached.
  virtual OpResult observed(slm::obs::CampaignObserver& ob) = 0;
  /// Serve only: the last op's scheduling report.
  virtual ServeStats serve_stats() const { return {}; }
  /// The op's outcome on one thread, for a workload whose op runs on
  /// more; empty when the op is serial. Under RNG contract v2 it must
  /// equal the op's outcome (checked in pin mode).
  virtual std::string serial_outcome() { return {}; }
};

/// `variant` is derived from the seed; `work_dir` holds stores, spools
/// and checkpoints and is owned by the caller.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        unsigned variant,
                                        const std::string& work_dir);

}  // namespace slmperf
