#pragma once

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/report.hpp"

// Minimal JSON writer for the benchmark's one-line result: values are
// appended in call order; doubles keep all 17 significant digits (the
// library's obs::json_num keeps 9).

namespace swbench {

class Json {
 public:
  Json& begin_object() { return open('{'); }
  Json& end_object() { return close('}'); }
  Json& begin_array() { return open('['); }
  Json& end_array() { return close(']'); }

  Json& key(const std::string& k) {
    separator();
    quoted(k);
    out_ += ':';
    after_key_ = true;
    return *this;
  }

  Json& value(double v) {
    separator();
    if (!std::isfinite(v)) {
      out_ += "null";
      return *this;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ += buf;
    return *this;
  }
  Json& value(unsigned long long v) {
    separator();
    out_ += std::to_string(v);
    return *this;
  }
  Json& value(std::size_t v) {
    return value(static_cast<unsigned long long>(v));
  }
  Json& value(const std::string& v) {
    separator();
    quoted(v);
    return *this;
  }
  Json& value(const char* v) { return value(std::string(v)); }
  Json& values(const std::vector<double>& vs) {
    begin_array();
    for (double v : vs) value(v);
    return end_array();
  }

  template <typename T>
  Json& field(const std::string& k, const T& v) {
    key(k);
    return value(v);
  }

  [[nodiscard]] const std::string& str() const { return out_; }

 private:
  Json& open(char c) {
    separator();
    out_ += c;
    first_ = true;
    return *this;
  }
  Json& close(char c) {
    out_ += c;
    first_ = false;
    return *this;
  }
  void separator() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (!first_) out_ += ',';
    first_ = false;
  }
  void quoted(const std::string& s) {
    out_ += '"';
    out_ += swraman::obs::json_escape(s);
    out_ += '"';
  }

  std::string out_;
  bool first_ = true;
  bool after_key_ = false;
};

}  // namespace swbench
