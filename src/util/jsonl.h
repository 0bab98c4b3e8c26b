// One JSONL record at append speed.
//
// The packets, causal, decisions and health streams each write one JSON
// object per line with a fixed field order and integer-only number
// formatting, so a fixed-seed run emits byte-identical output on any
// platform and any thread count.  JsonlLine is the one formatter they share:
// a record is built in a bounded stack buffer (integers through
// std::to_chars, sim timestamps through write_ts) and lands in the stream's
// document with a single append when the line goes out of scope.  A record
// longer than the buffer (a decision with many candidates, a health window
// with many gauges) reaches the document in pieces; the bytes are the same.
//
// The buffer lives on the caller's stack: there is no static or shared
// scratch, so sweep workers formatting at once share nothing.
#pragma once

#include <cassert>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "util/time.h"

namespace wgtt {

/// Longest integer rendering: INT64_MIN ("-" and 19 digits) or UINT64_MAX
/// (20 digits).
inline constexpr std::size_t kIntMaxChars = 20;
/// Longest write_ts() rendering: an int64 microsecond count, '.', and three
/// fraction digits.
inline constexpr std::size_t kTsMaxChars = kIntMaxChars + 4;

/// Writes sim time `t` as microseconds with exactly three decimals, using
/// integer arithmetic only, into `p` (room for kTsMaxChars); returns one
/// past the last character written.
inline char* write_ts(char* p, Time t) {
  const std::int64_t ns = t.to_ns();
  assert(ns >= 0 && "stream timestamps are sim times, never negative");
  const std::int64_t us = ns / 1000;
  const std::int64_t frac = ns % 1000;
  p = std::to_chars(p, p + kIntMaxChars, us).ptr;
  *p++ = '.';
  *p++ = static_cast<char>('0' + frac / 100);
  *p++ = static_cast<char>('0' + (frac / 10) % 10);
  *p++ = static_cast<char>('0' + frac % 10);
  return p;
}

/// Builds one record and appends it to `out` on destruction:
///
///   JsonlLine(out_).raw("{\"ev\":").num(ev).raw(",\"at_us\":").ts(t)
///       .raw("}\n");
class JsonlLine {
 public:
  explicit JsonlLine(std::string& out) : out_(out) {}
  ~JsonlLine() { flush(); }
  JsonlLine(const JsonlLine&) = delete;
  JsonlLine& operator=(const JsonlLine&) = delete;

  /// Verbatim text: punctuation, keys, and string values that need no
  /// escaping.
  JsonlLine& raw(std::string_view s) {
    if (s.size() > room()) {
      flush();
      if (s.size() > kCapacity) {
        out_.append(s);
        return *this;
      }
    }
    std::memcpy(p_, s.data(), s.size());
    p_ += s.size();
    return *this;
  }

  /// `s` with '"' and '\\' backslash-escaped (names and details that are not
  /// compile-time literals).
  JsonlLine& escaped(std::string_view s) {
    for (char c : s) {
      reserve(2);
      if (c == '"' || c == '\\') *p_++ = '\\';
      *p_++ = c;
    }
    return *this;
  }

  /// Decimal integer, exactly as std::to_string renders it.
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  JsonlLine& num(T v) {
    reserve(kIntMaxChars);
    p_ = std::to_chars(p_, p_ + kIntMaxChars, v).ptr;
    return *this;
  }

  JsonlLine& boolean(bool b) { return raw(b ? "true" : "false"); }

  /// Sim timestamp, see write_ts.
  JsonlLine& ts(Time t) {
    reserve(kTsMaxChars);
    p_ = write_ts(p_, t);
    return *this;
  }

  /// Fixed-point milli-units as an integer, llround(v * 1000): byte-identical
  /// across platforms, unlike printf's %g.
  JsonlLine& milli(double v) { return num(std::llround(v * 1000.0)); }

  /// Exactly three decimals from llround(|v| * 1000) with integer
  /// arithmetic; non-finite values render as 0.000.
  JsonlLine& fixed3(double v) {
    if (!std::isfinite(v)) return raw("0.000");
    const long long scaled = std::llround(std::fabs(v) * 1000.0);
    reserve(1 + kIntMaxChars + 4);
    if (v < 0.0) *p_++ = '-';
    p_ = std::to_chars(p_, p_ + kIntMaxChars, scaled / 1000).ptr;
    const long long frac = scaled % 1000;
    *p_++ = '.';
    *p_++ = static_cast<char>('0' + frac / 100);
    *p_++ = static_cast<char>('0' + (frac / 10) % 10);
    *p_++ = static_cast<char>('0' + frac % 10);
    return *this;
  }

 private:
  static constexpr std::size_t kCapacity = 512;

  std::size_t room() const {
    return static_cast<std::size_t>(buf_ + kCapacity - p_);
  }
  void reserve(std::size_t n) {
    if (n > room()) flush();
  }
  void flush() {
    out_.append(buf_, static_cast<std::size_t>(p_ - buf_));
    p_ = buf_;
  }

  std::string& out_;
  char buf_[kCapacity];  // not zeroed: only the bytes below p_ are read
  char* p_ = buf_;
};

}  // namespace wgtt
