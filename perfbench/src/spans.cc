#include "spans.h"

#include <cstdio>
#include <fstream>

#include "common/check.h"

namespace perfbench {

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int Tracer::Begin(const std::string& name, int64_t group) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.group = group;
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::End(int id) {
  ARIDE_ACHECK(!open_.empty() && open_.back() == id)
      << "span " << id << " closed out of order";
  spans_[static_cast<std::size_t>(id)].end_ns = NowNs();
  open_.pop_back();
}

void Tracer::Count(const std::string& name, double value) {
  samples_.push_back({name, NowNs(), value});
}

bool Tracer::Write(const std::string& path,
                   const std::string& metadata) const {
  std::ofstream out(path);
  if (!out) return false;
  char buf[256];
  out << "{\"traceEvents\":[\n";
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end_ns < 0) continue;
    std::snprintf(buf, sizeof(buf),
                  "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%zu,\"parent\":%d,\"group\":%lld}}",
                  static_cast<double>(span.start_ns) * 1e-3,
                  static_cast<double>(span.end_ns - span.start_ns) * 1e-3, i,
                  span.parent, static_cast<long long>(span.group));
    out << (first ? "" : ",\n") << "{\"name\":\"" << span.name << "\","
        << buf;
    first = false;
  }
  for (const Sample& sample : samples_) {
    std::snprintf(buf, sizeof(buf),
                  "\"ph\":\"C\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                  "\"args\":{\"value\":%.17g}}",
                  static_cast<double>(sample.time_ns) * 1e-3, sample.value);
    out << (first ? "" : ",\n") << "{\"name\":\"" << sample.name << "\","
        << buf;
    first = false;
  }
  out << "\n],\"metadata\":" << metadata << "}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
