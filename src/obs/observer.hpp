// CampaignObserver — the single handle core/{campaign,parallel} talk to.
//
// Owns a MetricsRegistry and an optional JSONL event sink. Core code
// receives it as a nullable pointer on CampaignConfig: a null observer
// is the documented zero-overhead path (the hot loops only ever test
// the pointer), a non-null observer buys structured progress events,
// phase spans, and the machine-readable run manifest.
//
// Event schema and the metric-name catalog live in
// docs/OBSERVABILITY.md; the `docs_references` ctest entry fails the
// build if that page and this code drift apart.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "obs/jsonl.hpp"
#include "obs/metrics.hpp"

namespace slm::obs {

class CampaignObserver {
 public:
  /// Metrics-only observer (no event stream).
  CampaignObserver();

  /// Metrics + JSONL events appended to `jsonl_path`. Throws slm::Error
  /// if the file cannot be opened.
  explicit CampaignObserver(const std::string& jsonl_path);

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  bool has_sink() const { return sink_ != nullptr; }

  /// Emit one event line (adds "ts" monotonic seconds and "ev" first).
  /// No-op without a sink; metrics still accumulate either way.
  void event(const char* name, JsonWriter fields);

  /// Phase span: times a named phase, records it into the
  /// `slm.span.<name>_seconds` histogram, and emits a "span" event on
  /// close. Move-only RAII.
  class Span {
   public:
    Span(CampaignObserver* observer, std::string name);
    ~Span();
    Span(Span&& other) noexcept;
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    Span& operator=(Span&&) = delete;

    double elapsed_seconds() const;

   private:
    CampaignObserver* observer_;
    std::string name_;
    double start_;
  };

  Span span(std::string name) { return Span(this, std::move(name)); }

  /// Final machine-readable run record: emits a "run_end" event whose
  /// "metrics" member is the full registry dump.
  void write_manifest(JsonWriter summary_fields);

 private:
  MetricsRegistry metrics_;
  std::unique_ptr<JsonlSink> sink_;
};

/// Observer wired from the environment: SLM_TRACE=<path> attaches a
/// JSONL sink (the CLI flag --trace-out takes precedence); unset returns
/// null — the disabled path. Shared by the CLI and the figure benches.
std::unique_ptr<CampaignObserver> observer_from_env();

}  // namespace slm::obs
