#ifndef AIRINDEX_PERFBENCH_TRACE_H_
#define AIRINDEX_PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed call: name, interval, the span that caused it, and the query
/// it served (-1 when it served none).
struct Span {
  std::string_view name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  int64_t query = -1;
  uint32_t thread = 0;
};

/// In-memory span store of one traced run. Spans are kept until the run
/// ends and then summarised (SelfSeconds) and written out (WriteChromeJson).
/// A null Trace* disables every ScopedSpan, which then costs one branch.
class Trace {
 public:
  /// Stable storage for a span name built at run time.
  std::string_view Intern(std::string name);

  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }

  /// Adds finished spans (thread-safe).
  void Append(const Span& span);
  void Append(const std::vector<Span>& spans);

  std::vector<Span> spans() const;

  /// Wall-clock attribution per span name. A span's self time is its
  /// interval minus the part its children cover; where self intervals of
  /// several threads overlap, each gets an equal share of that instant. The
  /// shares of all names therefore add up to the root span's duration.
  std::map<std::string, double> SelfSeconds() const;

  /// Chrome Trace Event JSON ("X" events), readable by Perfetto and
  /// chrome://tracing.
  bool WriteChromeJson(const std::string& path) const;

 private:
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::deque<std::string> names_;
};

/// Small dense id of the calling thread (0 for the first thread that asks).
uint32_t ThreadIndex();

/// RAII span: starts on construction, ends on destruction. Finished spans
/// go to `sink` when given (a worker's private buffer, appended to the
/// trace once the worker is done) and to the trace otherwise.
class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, std::string_view name, uint64_t parent,
             int64_t query = -1, std::vector<Span>* sink = nullptr)
      : trace_(trace), sink_(sink) {
    if (trace_ == nullptr) return;
    span_.name = name;
    span_.id = trace_->NextId();
    span_.parent = parent;
    span_.query = query;
    span_.thread = ThreadIndex();
    span_.start_ns = NowNs();
  }
  ~ScopedSpan() {
    if (trace_ == nullptr) return;
    span_.end_ns = NowNs();
    if (sink_ != nullptr) {
      sink_->push_back(span_);
    } else {
      trace_->Append(span_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Id to pass as the parent of nested spans (0 when tracing is off).
  uint64_t id() const { return span_.id; }

 private:
  Trace* trace_;
  std::vector<Span>* sink_;
  Span span_;
};

}  // namespace perfbench

#endif  // AIRINDEX_PERFBENCH_TRACE_H_
