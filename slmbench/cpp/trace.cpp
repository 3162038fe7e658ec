#include "trace.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>

namespace slmperf {

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kRng: return "common.rng";
    case Layer::kEncrypt: return "crypto.encrypt";
    case Layer::kVoltages: return "pdn.voltages";
    case Layer::kSensor: return "sensors.read";
    case Layer::kSelection: return "sca.selection";
    case Layer::kFoldAdd: return "sca.fold_add";
    case Layer::kFoldCheckpoint: return "sca.fold_checkpoint";
    case Layer::kMerge: return "sca.merge";
    case Layer::kTvla: return "sca.tvla";
    case Layer::kStoreOpen: return "store.open";
    case Layer::kStoreReplay: return "store.replay";
    case Layer::kStoreWrite: return "store.write";
    case Layer::kSetup: return "core.setup";
    case Layer::kCampaignCtor: return "core.campaign_ctor";
    case Layer::kCheckpointSave: return "core.checkpoint_save";
    case Layer::kCheckpointLoad: return "core.checkpoint_load";
    case Layer::kPoolWait: return "core.pool_wait";
    case Layer::kOp: return "op";
    case Layer::kCount: break;
  }
  return "?";
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void LayerTotals::add(const LayerTotals& o, double scale) {
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    self_s[i] += scale * o.self_s[i];
    calls[i] += scale * o.calls[i];
    traces[i] += scale * o.traces[i];
    bytes[i] += scale * o.bytes[i];
  }
}

double LayerTotals::layer_sum() const {
  double s = 0.0;
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    if (static_cast<Layer>(i) != Layer::kOp) s += self_s[i];
  }
  return s;
}

Span::Span(Lane& lane, Layer layer) : lane_(lane), idx_(lane.records_.size()) {
  int parent_lane = lane.id_;
  std::int64_t parent_span = lane.current();
  if (parent_span < 0) {
    parent_lane = lane.parent_lane_;
    parent_span = lane.parent_span_;
  }
  lane.records_.push_back(Lane::Record{layer, now_seconds(), 0.0, parent_lane,
                                       parent_span, 0.0, 0.0, 0.0});
  lane.stack_.push_back(idx_);
}

Span::~Span() {
  lane_.records_[idx_].end = now_seconds();
  lane_.stack_.pop_back();
}

void Span::add(double calls, double traces, double bytes) {
  Lane::Record& r = lane_.records_[idx_];
  r.calls += calls;
  r.traces += traces;
  r.bytes += bytes;
}

Lane& Tracer::begin_op(std::uint64_t op_id) {
  lanes_.clear();
  op_ = op_id;
  lanes_.emplace_back(0, op_id, 1.0, -1, -1);
  return lanes_.front();
}

std::vector<Lane*> Tracer::worker_lanes(unsigned threads) {
  Lane& co = coordinator();
  const std::int64_t parent = co.current();
  std::vector<Lane*> out;
  for (unsigned i = 0; i < threads; ++i) {
    lanes_.emplace_back(static_cast<int>(lanes_.size()), op_,
                        1.0 / static_cast<double>(threads), co.id(), parent);
    out.push_back(&lanes_.back());
  }
  return out;
}

LayerTotals Tracer::totals() const {
  // contrib(span) = w * dur - sum over children of w_c * dur_c; the sum
  // over a tree telescopes to the root's weighted duration.
  std::vector<std::vector<double>> contrib(lanes_.size());
  for (const Lane& l : lanes_) {
    auto& c = contrib[static_cast<std::size_t>(l.id_)];
    c.resize(l.records_.size());
    for (std::size_t i = 0; i < l.records_.size(); ++i) {
      const auto& r = l.records_[i];
      c[i] = l.weight_ * (r.end - r.start);
    }
  }
  for (const Lane& l : lanes_) {
    for (const auto& r : l.records_) {
      if (r.parent_span < 0) continue;
      contrib[static_cast<std::size_t>(r.parent_lane)]
             [static_cast<std::size_t>(r.parent_span)] -=
          l.weight_ * (r.end - r.start);
    }
  }
  LayerTotals t;
  for (const Lane& l : lanes_) {
    const auto& c = contrib[static_cast<std::size_t>(l.id_)];
    for (std::size_t i = 0; i < l.records_.size(); ++i) {
      const auto& r = l.records_[i];
      const auto k = static_cast<std::size_t>(r.layer);
      t.self_s[k] += c[i];
      t.calls[k] += r.calls;
      t.traces[k] += r.traces;
      t.bytes[k] += r.bytes;
    }
  }
  return t;
}

void Tracer::dump_jsonl(const std::string& path,
                        const std::string& workload) const {
  std::ofstream os(path);
  char buf[256];
  for (const Lane& l : lanes_) {
    for (std::size_t i = 0; i < l.records_.size(); ++i) {
      const auto& r = l.records_[i];
      std::snprintf(buf, sizeof buf,
                    "{\"workload\":\"%s\",\"op\":%llu,\"lane\":%d,\"span\":%zu,"
                    "\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                    "\"parent_lane\":%d,\"parent\":%lld,\"weight\":%.6g}\n",
                    workload.c_str(), static_cast<unsigned long long>(op_),
                    l.id_, i, layer_name(r.layer), r.start, r.end,
                    r.parent_lane, static_cast<long long>(r.parent_span),
                    l.weight_);
      os << buf;
    }
  }
}

}  // namespace slmperf
