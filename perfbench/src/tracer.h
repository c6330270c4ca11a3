// In-memory span recorder for the traced run. Spans are recorded by the
// harness around each call it makes into a library layer (nothing inside
// the library is instrumented); each carries name, start, end and the span
// that was open when it began. At exit the spans are written as Chrome
// trace-event JSON ("X" complete events), which Perfetto and
// chrome://tracing open directly.
#pragma once

#include <chrono>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "json.h"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;
  };

  Tracer() : epoch_(std::chrono::steady_clock::now()) {}

  int begin(std::string name) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{std::move(name), now(), 0.0, parent});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void end(int id) {
    spans_[static_cast<std::size_t>(id)].end_s = now();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time of each span: its duration minus the part of it its direct
  /// children cover (children never overlap: spans nest on one thread).
  [[nodiscard]] std::vector<double> self_seconds() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end_s - spans_[i].start_s;
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        self[static_cast<std::size_t>(s.parent)] -= s.end_s - s.start_s;
      }
    }
    return self;
  }

  /// Summed self time per span name.
  [[nodiscard]] std::map<std::string, double> self_by_name() const {
    const std::vector<double> self = self_seconds();
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name] += self[i];
    }
    return out;
  }

  /// Writes the spans as a Chrome trace-event document. Returns false when
  /// the file cannot be written.
  [[nodiscard]] bool write_chrome_trace(const std::string& path,
                                        Json metadata) const {
    Json::Array events;
    const std::vector<double> self = self_seconds();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      Json args = Json::object();
      args.set("id", static_cast<std::int64_t>(i));
      args.set("parent", static_cast<std::int64_t>(s.parent));
      args.set("self_us", self[i] * 1e6);
      Json e = Json::object();
      e.set("name", s.name);
      e.set("cat", s.name.substr(0, s.name.find('.')));
      e.set("ph", "X");
      e.set("ts", s.start_s * 1e6);
      e.set("dur", (s.end_s - s.start_s) * 1e6);
      e.set("pid", 1);
      e.set("tid", 1);
      e.set("args", std::move(args));
      events.push_back(std::move(e));
    }
    Json doc = Json::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", "ms");
    doc.set("otherData", std::move(metadata));
    std::ofstream file{path};
    if (!file) return false;
    doc.dump(file);
    file << '\n';
    return static_cast<bool>(file);
  }

 private:
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
  }

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null tracer (the untraced run) records nothing.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, std::string name) : tracer_(tracer) {
    if (tracer_ != nullptr) id_ = tracer_->begin(std::move(name));
  }
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  int id_ = -1;
};

}  // namespace perfbench
