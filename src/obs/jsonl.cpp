#include "obs/jsonl.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/error.hpp"

namespace slm::obs {

std::string JsonWriter::escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonWriter::key(std::string_view k) {
  if (!body_.empty()) body_ += ',';
  body_ += '"';
  body_ += escape(k);
  body_ += "\":";
}

JsonWriter& JsonWriter::field(std::string_view k, std::string_view v) {
  key(k);
  body_ += '"';
  body_ += escape(v);
  body_ += '"';
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view k, const char* v) {
  return field(k, std::string_view(v));
}

JsonWriter& JsonWriter::field(std::string_view k, double v) {
  key(k);
  if (std::isfinite(v)) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.12g", v);
    body_ += buf;
  } else {
    body_ += "null";
  }
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view k, std::uint64_t v) {
  key(k);
  body_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view k, std::int64_t v) {
  key(k);
  body_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view k, bool v) {
  key(k);
  body_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view k, std::string_view json) {
  key(k);
  body_ += json;
  return *this;
}

JsonlSink::JsonlSink(const std::string& path)
    : path_(path), out_(path, std::ios::app) {
  if (!out_) throw Error("JsonlSink: cannot open '" + path + "' for append");
}

void JsonlSink::write(const JsonWriter& event) { write_line(event.str()); }

void JsonlSink::write_line(const std::string& json) {
  std::lock_guard<std::mutex> g(m_);
  out_ << json << '\n';
  out_.flush();
  ++lines_;
}

namespace {

[[noreturn]] void parse_fail(std::string_view what, std::size_t at) {
  throw Error("FlatJson: " + std::string(what) + " at offset " +
              std::to_string(at));
}

struct Cursor {
  std::string_view s;
  std::size_t i = 0;

  void skip_ws() {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' ||
                            s[i] == '\r')) {
      ++i;
    }
  }
  bool done() const { return i >= s.size(); }
  char peek() const { return s[i]; }
  void expect(char c, std::string_view what) {
    if (done() || s[i] != c) parse_fail(what, i);
    ++i;
  }
};

// Decoded contents of a quoted string; cursor enters at the opening
// quote and leaves past the closing one.
std::string parse_string(Cursor& c) {
  c.expect('"', "expected '\"'");
  std::string out;
  while (true) {
    if (c.done()) parse_fail("unterminated string", c.i);
    const char ch = c.s[c.i++];
    if (ch == '"') return out;
    if (ch != '\\') {
      out += ch;
      continue;
    }
    if (c.done()) parse_fail("dangling escape", c.i);
    const char esc = c.s[c.i++];
    switch (esc) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'u': {
        if (c.i + 4 > c.s.size()) parse_fail("truncated \\u escape", c.i);
        unsigned v = 0;
        for (int k = 0; k < 4; ++k) {
          const char h = c.s[c.i++];
          v <<= 4;
          if (h >= '0' && h <= '9') v |= static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f') v |= static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F') v |= static_cast<unsigned>(h - 'A' + 10);
          else parse_fail("bad \\u escape", c.i - 1);
        }
        // JsonWriter only emits \u for control bytes; decode the ASCII
        // range and substitute '?' for anything wider rather than
        // growing a UTF-8 encoder nothing writes.
        out += v < 0x80 ? static_cast<char>(v) : '?';
        break;
      }
      default: parse_fail("unknown escape", c.i - 1);
    }
  }
}

// Raw text of one value (string/number/literal/nested), cursor past it.
std::string parse_raw_value(Cursor& c) {
  const std::size_t start = c.i;
  if (c.done()) parse_fail("expected value", c.i);
  const char first = c.peek();
  if (first == '"') {
    parse_string(c);  // validates escapes; raw text keeps the quotes
  } else if (first == '{' || first == '[') {
    // Balanced scan, string-aware, so nested structure survives as-is.
    int depth = 0;
    bool in_str = false;
    while (!c.done()) {
      const char ch = c.s[c.i++];
      if (in_str) {
        if (ch == '\\') { if (!c.done()) ++c.i; }
        else if (ch == '"') in_str = false;
      } else if (ch == '"') {
        in_str = true;
      } else if (ch == '{' || ch == '[') {
        ++depth;
      } else if (ch == '}' || ch == ']') {
        if (--depth == 0) break;
      }
    }
    if (depth != 0) parse_fail("unbalanced nesting", start);
  } else {
    while (!c.done()) {
      const char ch = c.peek();
      if (ch == ',' || ch == '}' || ch == ' ' || ch == '\t' || ch == '\n' ||
          ch == '\r') {
        break;
      }
      ++c.i;
    }
    if (c.i == start) parse_fail("expected value", start);
  }
  return std::string(c.s.substr(start, c.i - start));
}

}  // namespace

FlatJson FlatJson::parse(std::string_view text) {
  Cursor c{text};
  c.skip_ws();
  c.expect('{', "expected '{'");
  FlatJson out;
  c.skip_ws();
  if (!c.done() && c.peek() == '}') {
    ++c.i;
  } else {
    while (true) {
      c.skip_ws();
      std::string key = parse_string(c);
      c.skip_ws();
      c.expect(':', "expected ':'");
      c.skip_ws();
      std::string value = parse_raw_value(c);
      // Last duplicate wins: drop any earlier occurrence of the key.
      for (auto it = out.fields_.begin(); it != out.fields_.end(); ++it) {
        if (it->first == key) {
          out.fields_.erase(it);
          break;
        }
      }
      out.fields_.emplace_back(std::move(key), std::move(value));
      c.skip_ws();
      if (c.done()) parse_fail("unterminated object", c.i);
      if (c.peek() == ',') {
        ++c.i;
        continue;
      }
      c.expect('}', "expected ',' or '}'");
      break;
    }
  }
  c.skip_ws();
  if (!c.done()) parse_fail("trailing content", c.i);
  return out;
}

const std::string* FlatJson::raw_value(std::string_view key) const {
  for (const auto& [k, v] : fields_) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool FlatJson::has(std::string_view key) const {
  return raw_value(key) != nullptr;
}

std::optional<std::string> FlatJson::string_field(std::string_view key) const {
  const std::string* raw = raw_value(key);
  if (raw == nullptr || raw->empty() || (*raw)[0] != '"') return std::nullopt;
  Cursor c{*raw};
  return parse_string(c);
}

std::optional<double> FlatJson::number_field(std::string_view key) const {
  const std::string* raw = raw_value(key);
  if (raw == nullptr || raw->empty()) return std::nullopt;
  const char first = (*raw)[0];
  if (first != '-' && (first < '0' || first > '9')) return std::nullopt;
  char* end = nullptr;
  const double v = std::strtod(raw->c_str(), &end);
  if (end != raw->c_str() + raw->size()) return std::nullopt;
  return v;
}

std::optional<std::uint64_t> FlatJson::uint_field(std::string_view key) const {
  const std::optional<double> v = number_field(key);
  if (!v || *v < 0.0 || *v != std::floor(*v) ||
      *v > 18446744073709549568.0 /* largest double below 2^64 */) {
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(*v);
}

std::optional<bool> FlatJson::bool_field(std::string_view key) const {
  const std::string* raw = raw_value(key);
  if (raw == nullptr) return std::nullopt;
  if (*raw == "true") return true;
  if (*raw == "false") return false;
  return std::nullopt;
}

}  // namespace slm::obs
