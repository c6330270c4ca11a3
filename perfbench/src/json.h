// Minimal JSON value for the harness report: objects keep insertion order,
// doubles print with round-trip precision, and integers stay integers so
// byte counts compare exactly on the Python side.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace perfbench {

class Json {
 public:
  using Array = std::vector<Json>;
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(int i) : value_(static_cast<std::int64_t>(i)) {}
  Json(std::int64_t i) : value_(i) {}
  Json(std::size_t i) : value_(static_cast<std::int64_t>(i)) {}
  Json(double d) : value_(d) {}
  Json(const char* s) : value_(std::string{s}) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(Array a) : value_(std::move(a)) {}

  static Json object() {
    Json j;
    j.value_ = Object{};
    return j;
  }

  /// Appends (or overwrites) a key of an object value.
  Json& set(const std::string& key, Json value) {
    Object& obj = std::get<Object>(value_);
    for (auto& [k, v] : obj) {
      if (k == key) {
        v = std::move(value);
        return v;
      }
    }
    obj.emplace_back(key, std::move(value));
    return obj.back().second;
  }

  void dump(std::ostream& os) const {
    std::visit([&os](const auto& v) { write(os, v); }, value_);
  }

 private:
  static void write(std::ostream& os, std::nullptr_t) { os << "null"; }
  static void write(std::ostream& os, bool b) { os << (b ? "true" : "false"); }
  static void write(std::ostream& os, std::int64_t i) { os << i; }
  static void write(std::ostream& os, double d) {
    if (!std::isfinite(d)) {
      os << "null";
      return;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", d);
    os << buf;
  }
  static void write(std::ostream& os, const std::string& s) {
    os << '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        os << '\\' << c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        os << buf;
      } else {
        os << c;
      }
    }
    os << '"';
  }
  static void write(std::ostream& os, const Array& a) {
    os << '[';
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (i > 0) os << ',';
      a[i].dump(os);
    }
    os << ']';
  }
  static void write(std::ostream& os, const Object& o) {
    os << '{';
    for (std::size_t i = 0; i < o.size(); ++i) {
      if (i > 0) os << ',';
      write(os, o[i].first);
      os << ':';
      o[i].second.dump(os);
    }
    os << '}';
  }

  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string,
               Array, Object>
      value_;
};

}  // namespace perfbench
