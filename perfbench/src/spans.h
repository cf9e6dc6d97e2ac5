// In-memory span and counter recorder for the traced run.
//
// Spans are recorded by the benchmark's own files around each call into a
// layer (setup phases, submit batches, StepRound, drain/finish, probes).
// The benchmark runs on one thread, so the parent of a span is the innermost span
// open when it began. Spans of one dispatch round share its round index as
// their group id. Everything stays in memory until Write() emits Chrome
// trace_event JSON (load it in chrome://tracing or ui.perfetto.dev).

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  Tracer();

  /// Opens a span as a child of the innermost open span; returns its id.
  int Begin(const std::string& name, int64_t group = -1);
  /// Closes the innermost open span, which must be `id`.
  void End(int id);
  /// Records a counter sample at the current time.
  void Count(const std::string& name, double value);

  /// Writes the spans and counter samples as Chrome trace_event JSON, with
  /// `metadata` (a JSON object literal) under "metadata". False on I/O
  /// failure.
  bool Write(const std::string& path, const std::string& metadata) const;

 private:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = -1;
    int parent = -1;
    int64_t group = -1;
  };
  struct Sample {
    std::string name;
    int64_t time_ns = 0;
    double value = 0;
  };

  int64_t NowNs() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<Sample> samples_;
  std::vector<int> open_;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int64_t group = -1)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->Begin(name, group) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
