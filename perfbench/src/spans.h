// In-memory span recorder for the traced run. Spans are recorded only
// around calls the benchmark itself makes into each layer's public
// functions; nothing inside the program is instrumented. Each span has a
// layer, a name, an optional request id, a parent and steady-clock start
// and end stamps. Spans are kept in memory while the workload runs and
// written out once at the end, so the file I/O never lands inside a
// measured interval.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

int64_t NowNs();

struct Span {
  const char* layer = "";
  const char* name = "";
  int64_t id = -1;      // request id (serving), -1 elsewhere
  int32_t parent = -1;  // index of the enclosing span, -1 for roots
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class SpanLog {
 public:
  explicit SpanLog(size_t reserve = 1 << 16) { spans_.reserve(reserve); }

  // Opens a span nested in the innermost open one; returns its index.
  int32_t Begin(const char* layer, const char* name, int64_t id = -1);
  void End(int32_t index);
  // Records an already-finished span (e.g. a request whose start is its
  // scheduled time) under `parent`.
  int32_t Add(const char* layer, const char* name, int64_t id,
              int32_t parent, int64_t start_ns, int64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }

  // Per layer: summed self time in seconds, where a span's self time is
  // its duration minus the durations of its direct children.
  std::map<std::string, double> SelfSeconds() const;
  // Durations (seconds) of every span with this layer and name.
  std::vector<double> Durations(const char* layer, const char* name) const;

  // One JSON object per span. Returns false on an I/O error.
  bool WriteJsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

// RAII span; a null log makes it a no-op, so the traced and untraced
// paths share one body of code.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* layer, const char* name,
             int64_t id = -1)
      : log_(log), index_(log ? log->Begin(layer, name, id) : -1) {}
  ~ScopedSpan() {
    if (log_) log_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int32_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
