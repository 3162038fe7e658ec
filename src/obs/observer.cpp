#include "obs/observer.hpp"

#include <cstdlib>

namespace slm::obs {

CampaignObserver::CampaignObserver() = default;

CampaignObserver::CampaignObserver(const std::string& jsonl_path)
    : sink_(std::make_unique<JsonlSink>(jsonl_path)) {}

void CampaignObserver::event(const char* name, JsonWriter fields) {
  if (!sink_) return;
  JsonWriter line;
  line.field("ev", name);
  line.field("ts", monotonic_seconds());
  const std::string body = fields.str();
  // Splice the caller's fields into the envelope: {"ev":..,"ts":..,<body>}.
  std::string out = line.str();
  if (body.size() > 2) {
    out.pop_back();  // '}'
    out += ',';
    out += body.substr(1);  // skip '{'
  }
  sink_->write_line(out);
}

CampaignObserver::Span::Span(CampaignObserver* observer, std::string name)
    : observer_(observer),
      name_(std::move(name)),
      start_(monotonic_seconds()) {}

CampaignObserver::Span::Span(Span&& other) noexcept
    : observer_(other.observer_),
      name_(std::move(other.name_)),
      start_(other.start_) {
  other.observer_ = nullptr;
}

double CampaignObserver::Span::elapsed_seconds() const {
  return monotonic_seconds() - start_;
}

CampaignObserver::Span::~Span() {
  if (observer_ == nullptr) return;
  const double seconds = elapsed_seconds();
  observer_->metrics().observe("slm.span." + name_ + "_seconds", seconds);
  JsonWriter fields;
  fields.field("name", name_);
  fields.field("seconds", seconds);
  observer_->event("span", std::move(fields));
}

void CampaignObserver::write_manifest(JsonWriter summary_fields) {
  metrics_.set("slm.run.manifest_written", 1.0);
  summary_fields.raw("metrics", metrics_.to_json());
  event("run_end", std::move(summary_fields));
}

std::unique_ptr<CampaignObserver> observer_from_env() {
  if (const char* path = std::getenv("SLM_TRACE")) {
    if (path[0] != '\0') return std::make_unique<CampaignObserver>(path);
  }
  return nullptr;
}

}  // namespace slm::obs
