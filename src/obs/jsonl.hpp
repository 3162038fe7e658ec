// Minimal JSON-object builder and append-only JSONL sink.
//
// Every campaign event is one self-contained JSON object per line
// (JSON Lines), so `jq`, `grep`, or a tail -f dashboard can consume a
// run in flight. The schema is catalogued in docs/OBSERVABILITY.md.
#pragma once

#include <cstdint>
#include <fstream>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace slm::obs {

/// Builds one flat-or-nested JSON object. Append-only; the caller is
/// responsible for key uniqueness (events use fixed schemas).
class JsonWriter {
 public:
  JsonWriter& field(std::string_view key, std::string_view value);
  JsonWriter& field(std::string_view key, const char* value);
  JsonWriter& field(std::string_view key, double value);
  JsonWriter& field(std::string_view key, std::uint64_t value);
  JsonWriter& field(std::string_view key, std::int64_t value);
  JsonWriter& field(std::string_view key, bool value);
  /// Pre-serialized JSON (nested object/array) — inserted verbatim.
  JsonWriter& raw(std::string_view key, std::string_view json);

  /// The finished object, e.g. {"a":1,"b":"x"}.
  std::string str() const { return body_.empty() ? "{}" : "{" + body_ + "}"; }

  static std::string escape(std::string_view s);

 private:
  void key(std::string_view k);
  std::string body_;
};

/// Append-only JSONL file sink; thread-safe, line-buffered (flushes per
/// event so a killed campaign's stream is still readable up to the last
/// checkpoint — the durability counterpart of the snapshot files).
class JsonlSink {
 public:
  /// Opens `path` for append. Throws slm::Error if the file cannot be
  /// opened.
  explicit JsonlSink(const std::string& path);

  /// Writes one JSON object as a line.
  void write(const JsonWriter& event);
  void write_line(const std::string& json);

  const std::string& path() const { return path_; }
  std::size_t lines_written() const { return lines_; }

 private:
  std::string path_;
  std::ofstream out_;
  std::mutex m_;
  std::size_t lines_ = 0;
};

/// Parsed view of ONE JSON object — the inverse of JsonWriter, sized for
/// the flat schemas this codebase writes (job files, JSONL events).
/// Top-level values may be strings (escapes decoded), numbers, booleans,
/// or null; nested objects/arrays are tolerated and kept as raw JSON
/// text. Duplicate keys keep the LAST occurrence, like most readers.
class FlatJson {
 public:
  /// Parse one complete JSON object (leading/trailing whitespace ok).
  /// Throws slm::Error naming the offending byte offset on malformed
  /// input — callers decide whether that is fatal (a job file) or just
  /// a torn line to skip (tailing a live JSONL stream).
  static FlatJson parse(std::string_view text);

  bool has(std::string_view key) const;

  /// Typed accessors: nullopt when the key is absent OR holds a value
  /// of a different type. uint_field additionally rejects negatives and
  /// non-integral numbers.
  std::optional<std::string> string_field(std::string_view key) const;
  std::optional<double> number_field(std::string_view key) const;
  std::optional<std::uint64_t> uint_field(std::string_view key) const;
  std::optional<bool> bool_field(std::string_view key) const;

  /// All fields in document order as {key, raw value text} — strings
  /// still quoted/escaped, nested structures verbatim.
  const std::vector<std::pair<std::string, std::string>>& raw_fields() const {
    return fields_;
  }

 private:
  const std::string* raw_value(std::string_view key) const;
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace slm::obs
