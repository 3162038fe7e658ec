// Span recorder for the benchmark's layer walk.
//
// Spans are recorded from the benchmark's own files, around each call
// into a library layer: name (the layer), start, end, parent span and
// op id. Every thread that records owns a Lane, so the hot path takes
// no lock. A layer's self time is its span's duration minus the time
// its child spans cover; worker lanes (sharded capture) carry the
// weight 1/threads, so their self times are summed worker CPU seconds
// divided by the thread count and the whole tree still adds up to the
// root span's wall time.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace slmperf {

/// The fixed layer vocabulary (docs: slmbench/README.md). kOp is the
/// root span of one walk op; its self time is the walk's own glue.
enum class Layer : int {
  kRng,
  kEncrypt,
  kVoltages,
  kSensor,
  kSelection,
  kFoldAdd,
  kFoldCheckpoint,
  kMerge,
  kTvla,
  kStoreOpen,
  kStoreReplay,
  kStoreWrite,
  kSetup,
  kCampaignCtor,
  kCheckpointSave,
  kCheckpointLoad,
  kPoolWait,
  kOp,
  kCount,
};

inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);

/// Metric prefix of a layer, e.g. "common.rng".
const char* layer_name(Layer l);

double now_seconds();

/// Per-layer totals over a set of spans.
struct LayerTotals {
  std::array<double, kLayerCount> self_s{};
  std::array<double, kLayerCount> calls{};
  std::array<double, kLayerCount> traces{};
  std::array<double, kLayerCount> bytes{};

  void add(const LayerTotals& o, double scale = 1.0);
  /// Sum of every layer's self time except the kOp root.
  double layer_sum() const;
};

class Lane;

/// RAII span on one lane. Counts are attached with add() before close.
class Span {
 public:
  Span(Lane& lane, Layer layer);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void add(double calls, double traces, double bytes = 0.0);

 private:
  Lane& lane_;
  std::size_t idx_;
};

class Lane {
 public:
  Lane(int id, std::uint64_t op, double weight, int parent_lane,
       std::int64_t parent_span)
      : id_(id), op_(op), weight_(weight), parent_lane_(parent_lane),
        parent_span_(parent_span) {}

  /// Index of the innermost open span (-1 when none).
  std::int64_t current() const {
    return stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
  }
  int id() const { return id_; }

 private:
  friend class Span;
  friend class Tracer;
  struct Record {
    Layer layer;
    double start;
    double end;
    int parent_lane;
    std::int64_t parent_span;
    double calls;
    double traces;
    double bytes;
  };
  int id_;
  std::uint64_t op_;
  double weight_;
  int parent_lane_;
  std::int64_t parent_span_;
  std::vector<Record> records_;
  std::vector<std::size_t> stack_;
};

/// Owns the lanes of one traced op. Not thread-safe itself: lanes are
/// created on the coordinator thread before workers start.
class Tracer {
 public:
  /// Start a new op: clears all spans, returns the coordinator lane.
  Lane& begin_op(std::uint64_t op_id);
  Lane& coordinator() { return lanes_.front(); }

  /// `threads` worker lanes whose root spans are children of the
  /// coordinator's innermost open span, each weighted 1/threads.
  std::vector<Lane*> worker_lanes(unsigned threads);

  /// Self times and counts of the current op's spans.
  LayerTotals totals() const;

  /// Write the current op's spans as JSON lines to `path`.
  void dump_jsonl(const std::string& path, const std::string& workload) const;

 private:
  std::deque<Lane> lanes_;
  std::uint64_t op_ = 0;
};

}  // namespace slmperf
