#include "spans.h"

#include <chrono>
#include <cstdio>
#include <string_view>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int32_t SpanLog::Begin(const char* layer, const char* name, int64_t id) {
  const int32_t parent = open_.empty() ? -1 : open_.back();
  const auto index = static_cast<int32_t>(spans_.size());
  spans_.push_back({layer, name, id, parent, NowNs(), 0});
  open_.push_back(index);
  return index;
}

void SpanLog::End(int32_t index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

int32_t SpanLog::Add(const char* layer, const char* name, int64_t id,
                     int32_t parent, int64_t start_ns, int64_t end_ns) {
  spans_.push_back({layer, name, id, parent, start_ns, end_ns});
  return static_cast<int32_t>(spans_.size() - 1);
}

std::map<std::string, double> SpanLog::SelfSeconds() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[s.layer] += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
  }
  return self;
}

std::vector<double> SpanLog::Durations(const char* layer,
                                       const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (std::string_view(s.layer) == layer && std::string_view(s.name) == name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
    }
  }
  return out;
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"i\":%zu,\"layer\":\"%s\",\"name\":\"%s\",\"id\":%lld,"
                 "\"parent\":%d,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 i, s.layer, s.name, static_cast<long long>(s.id), s.parent,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
