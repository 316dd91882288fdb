// Copyright 2026 the pdblb authors. MIT license.
//
// Minimal streaming JSON writer for the benchmark's result and span files.
// Commas are inserted automatically; non-finite numbers become null.

#ifndef PDBLB_PERFBENCH_JSON_H_
#define PDBLB_PERFBENCH_JSON_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

class JsonWriter {
 public:
  JsonWriter& BeginObject() { return Open('{'); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open('['); }
  JsonWriter& EndArray() { return Close(']'); }

  JsonWriter& Key(const std::string& key) {
    Separate();
    Quote(key);
    out_ += ':';
    after_key_ = true;
    return *this;
  }
  JsonWriter& String(const std::string& value) {
    Separate();
    Quote(value);
    return *this;
  }
  JsonWriter& Number(double value) {
    Separate();
    if (!std::isfinite(value)) {
      out_ += "null";
      return *this;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out_ += buf;
    return *this;
  }
  JsonWriter& Int(int64_t value) {
    Separate();
    out_ += std::to_string(value);
    return *this;
  }
  JsonWriter& Bool(bool value) {
    Separate();
    out_ += value ? "true" : "false";
    return *this;
  }

  const std::string& str() const { return out_; }

 private:
  JsonWriter& Open(char c) {
    Separate();
    out_ += c;
    first_.push_back(true);
    return *this;
  }
  JsonWriter& Close(char c) {
    out_ += c;
    first_.pop_back();
    return *this;
  }
  void Separate() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (!first_.empty()) {
      if (!first_.back()) out_ += ',';
      first_.back() = false;
    }
  }
  void Quote(const std::string& s) {
    out_ += '"';
    for (char c : s) {
      switch (c) {
        case '"': out_ += "\\\""; break;
        case '\\': out_ += "\\\\"; break;
        case '\n': out_ += "\\n"; break;
        case '\t': out_ += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out_ += buf;
          } else {
            out_ += c;
          }
      }
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<bool> first_;
  bool after_key_ = false;
};

}  // namespace perfbench

#endif  // PDBLB_PERFBENCH_JSON_H_
