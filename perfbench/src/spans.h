// Copyright 2026 the pdblb authors. MIT license.
//
// The benchmark's own spans: one per call batch into a layer (Cluster
// construction, Cluster::Run, each probe batch), each with a name, host
// start/end in nanoseconds since the recorder was created, and the index of
// the span that caused it (-1 for a root).  Spans are kept in memory and
// written out once, when the run ends.  Thread-safe: the traced pass runs
// grid points on several workers.

#ifndef PDBLB_PERFBENCH_SPANS_H_
#define PDBLB_PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "json.h"

namespace perfbench {

class SpanRecorder {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = -1;  ///< -1 while open.
    int parent = -1;
  };

  /// Opens a span and returns its id.
  int Begin(std::string name, int parent = -1) {
    int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{std::move(name), now, -1, parent});
    return static_cast<int>(spans_.size()) - 1;
  }

  void End(int id) {
    int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end_ns = now;
  }

  /// All spans as a JSON array of {id, name, start_ns, end_ns, parent}.
  std::string ToJson() const {
    std::lock_guard<std::mutex> lock(mu_);
    JsonWriter w;
    w.BeginArray();
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      w.BeginObject()
          .Key("id").Int(static_cast<int64_t>(i))
          .Key("name").String(s.name)
          .Key("start_ns").Int(s.start_ns)
          .Key("end_ns").Int(s.end_ns)
          .Key("parent").Int(s.parent)
          .EndObject();
    }
    w.EndArray();
    return w.str();
  }

 private:
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  const std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Opens a span for the lifetime of the scope; a null recorder records
/// nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name, int parent = -1)
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->Begin(std::move(name), parent)
                                : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  int id_;
};

}  // namespace perfbench

#endif  // PDBLB_PERFBENCH_SPANS_H_
