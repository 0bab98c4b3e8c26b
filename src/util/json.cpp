#include "util/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace wgtt {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonWriter::comma() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (first_in_scope_.empty()) return;
  if (first_in_scope_.back()) {
    first_in_scope_.back() = false;
  } else {
    out_ += ',';
  }
}

JsonWriter& JsonWriter::begin_object() {
  comma();
  out_ += '{';
  first_in_scope_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_ += '}';
  first_in_scope_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma();
  out_ += '[';
  first_in_scope_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_ += ']';
  first_in_scope_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  comma();
  out_ += '"';
  out_ += json_escape(k);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  comma();
  out_ += '"';
  out_ += json_escape(v);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  if (!std::isfinite(v)) return null();
  comma();
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  comma();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  comma();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  comma();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::null() {
  comma();
  out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view v) {
  comma();
  out_ += v;
  return *this;
}

bool write_text_file(const std::string& path, std::string_view contents) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::size_t written = std::fwrite(contents.data(), 1, contents.size(), f);
  const bool ok = written == contents.size() && std::fclose(f) == 0;
  if (written != contents.size()) std::fclose(f);
  return ok;
}

bool read_text_file(const std::string& path, std::string& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  out.clear();
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  auto it = obj_.find(std::string(key));
  return it == obj_.end() ? nullptr : &it->second;
}

double JsonValue::number_or(std::string_view key, double fallback) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->is_number()) ? v->as_number() : fallback;
}

std::string JsonValue::string_or(std::string_view key,
                                 std::string_view fallback) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->is_string()) ? v->as_string()
                                          : std::string(fallback);
}

namespace {

// Recursive-descent parser over a string_view; positions are byte offsets for
// error messages.  Depth is bounded to keep hostile inputs from overflowing
// the stack.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  bool parse(JsonValue& out, std::string* error) {
    bool ok = parse_value(out, 0);
    if (ok) {
      skip_ws();
      if (pos_ != text_.size()) {
        ok = fail("trailing characters after document");
      }
    }
    if (!ok && error != nullptr) *error = error_;
    return ok;
  }

 private:
  static constexpr int kMaxDepth = 128;

  bool fail(const std::string& msg) {
    if (error_.empty()) {
      error_ = msg + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  static void append_utf8(std::string& s, unsigned cp) {
    if (cp < 0x80) {
      s += static_cast<char>(cp);
    } else if (cp < 0x800) {
      s += static_cast<char>(0xC0 | (cp >> 6));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      s += static_cast<char>(0xE0 | (cp >> 12));
      s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      s += static_cast<char>(0xF0 | (cp >> 18));
      s += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool parse_hex4(unsigned& out) {
    if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + i];
      unsigned digit;
      if (c >= '0' && c <= '9') digit = static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') digit = static_cast<unsigned>(c - 'a') + 10;
      else if (c >= 'A' && c <= 'F') digit = static_cast<unsigned>(c - 'A') + 10;
      else return fail("bad hex digit in \\u escape");
      out = out * 16 + digit;
    }
    pos_ += 4;
    return true;
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return fail("expected '\"'");
    out.clear();
    while (true) {
      if (pos_ >= text_.size()) return fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        if (static_cast<unsigned char>(c) < 0x20) {
          return fail("unescaped control character in string");
        }
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) return fail("truncated escape");
      c = text_[pos_++];
      switch (c) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned cp = 0;
          if (!parse_hex4(cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // Surrogate pair: require the low half immediately after.
            if (!literal("\\u")) return fail("lone high surrogate");
            unsigned low = 0;
            if (!parse_hex4(low)) return false;
            if (low < 0xDC00 || low > 0xDFFF) return fail("bad low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return fail("lone low surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default:
          return fail("bad escape character");
      }
    }
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (consume('-')) {}
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return fail("expected number");
    const std::string tok(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (end == nullptr || *end != '\0') return fail("malformed number");
    out = JsonValue(v);
    return true;
  }

  bool parse_value(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      JsonValue::Object obj;
      skip_ws();
      if (!consume('}')) {
        while (true) {
          skip_ws();
          std::string key;
          if (!parse_string(key)) return false;
          skip_ws();
          if (!consume(':')) return fail("expected ':'");
          JsonValue member;
          if (!parse_value(member, depth + 1)) return false;
          obj.insert_or_assign(std::move(key), std::move(member));
          skip_ws();
          if (consume(',')) continue;
          if (consume('}')) break;
          return fail("expected ',' or '}'");
        }
      }
      out = JsonValue(std::move(obj));
      return true;
    }
    if (c == '[') {
      ++pos_;
      JsonValue::Array arr;
      skip_ws();
      if (!consume(']')) {
        while (true) {
          JsonValue element;
          if (!parse_value(element, depth + 1)) return false;
          arr.push_back(std::move(element));
          skip_ws();
          if (consume(',')) continue;
          if (consume(']')) break;
          return fail("expected ',' or ']'");
        }
      }
      out = JsonValue(std::move(arr));
      return true;
    }
    if (c == '"') {
      std::string s;
      if (!parse_string(s)) return false;
      out = JsonValue(std::move(s));
      return true;
    }
    if (literal("null")) {
      out = JsonValue();
      return true;
    }
    if (literal("true")) {
      out = JsonValue(true);
      return true;
    }
    if (literal("false")) {
      out = JsonValue(false);
      return true;
    }
    return parse_number(out);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

bool json_parse(std::string_view text, JsonValue& out, std::string* error) {
  return JsonParser(text).parse(out, error);
}

}  // namespace wgtt
