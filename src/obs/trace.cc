// Copyright 2026 TGCRN Reproduction Authors
#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <vector>

#include "common/env.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/prof.h"

namespace tgcrn {

namespace internal {

// Declared in common/check.h. Runs on the TGCRN_CHECK abort path (and
// from obs::FlushObservability on clean shutdowns), so keep it defensive:
// a reentrant failure (a check firing while flushing) must not recurse,
// and no sink being active must be a no-op.
void FlushObservabilityOnAbort() { obs::FlushObservability(); }

}  // namespace internal

namespace obs {

namespace internal {
std::atomic<uint32_t> g_scope_mask{0};
}  // namespace internal

namespace {

// Events per thread ring. 32768 spans * 24 bytes keeps each thread under
// 1 MiB; a long training run keeps its most recent spans.
constexpr uint64_t kRingCapacity = 1 << 15;

struct TraceEvent {
  const char* name;
  int64_t start_ns;
  int64_t dur_ns;
};

struct ThreadBuffer {
  std::mutex mu;
  std::vector<TraceEvent> ring;
  uint64_t head = 0;      // total events ever written; slot = head % capacity
  uint64_t epoch_base = 0;  // head value when the current trace started
  int tid = 0;
};

struct TracerState {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  std::string path;
  int64_t start_ns = 0;
  bool ever_started = false;
  bool atexit_registered = false;
};

TracerState& State() {
  static TracerState* state = new TracerState();  // leaked deliberately
  return *state;
}

ThreadBuffer* GetThreadBuffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto b = std::make_shared<ThreadBuffer>();
    b->ring.resize(kRingCapacity);
    TracerState& state = State();
    std::lock_guard<std::mutex> lock(state.mu);
    b->tid = static_cast<int>(state.buffers.size());
    state.buffers.push_back(b);
    return b;
  }();
  return buffer.get();
}

void AtExitFlush() {
  if (TracingEnabled()) StopTracingAndWrite();
}

// Reads TGCRN_TRACE once at process start so instrumented binaries trace
// without code changes; the atexit hook writes the file.
struct EnvAutoStart {
  EnvAutoStart() {
    if (const auto path = common::EnvString("TGCRN_TRACE")) {
      StartTracing(*path);
    }
  }
};
EnvAutoStart env_auto_start;

}  // namespace

namespace internal {

int64_t TraceNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void RecordSpan(const char* name, int64_t start_ns, int64_t dur_ns) {
  // Re-check under the buffer lock so a span that straddles
  // StopTracingAndWrite cannot write into a ring being merged.
  ThreadBuffer* buffer = GetThreadBuffer();
  std::lock_guard<std::mutex> lock(buffer->mu);
  if (!TracingEnabled()) return;
  buffer->ring[buffer->head % kRingCapacity] = {name, start_ns, dur_ns};
  ++buffer->head;
}

}  // namespace internal

void StartTracing(const std::string& path) {
  TracerState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  for (const auto& buffer : state.buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    buffer->epoch_base = buffer->head;
  }
  state.path = path;
  state.start_ns = internal::TraceNowNs();
  state.ever_started = true;
  if (!state.atexit_registered) {
    state.atexit_registered = true;
    std::atexit(AtExitFlush);
  }
  internal::g_scope_mask.fetch_or(internal::kScopeTraceBit,
                                  std::memory_order_relaxed);
}

int64_t BufferedTraceEventCount() {
  TracerState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  int64_t total = 0;
  for (const auto& buffer : state.buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    const uint64_t written = buffer->head - buffer->epoch_base;
    total += static_cast<int64_t>(std::min(written, kRingCapacity));
  }
  return total;
}

int64_t DroppedTraceEventCount() {
  TracerState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  int64_t dropped = 0;
  for (const auto& buffer : state.buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    const uint64_t written = buffer->head - buffer->epoch_base;
    if (written > kRingCapacity) {
      dropped += static_cast<int64_t>(written - kRingCapacity);
    }
  }
  return dropped;
}

bool StopTracingAndWrite() {
  TracerState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  const uint32_t prev = internal::g_scope_mask.fetch_and(
      ~internal::kScopeTraceBit, std::memory_order_relaxed);
  if ((prev & internal::kScopeTraceBit) == 0) return false;
  if (state.path.empty()) return false;

  struct TaggedEvent {
    TraceEvent event;
    int tid;
  };
  std::vector<TaggedEvent> events;
  int64_t dropped = 0;
  for (const auto& buffer : state.buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    const uint64_t written = buffer->head - buffer->epoch_base;
    const uint64_t kept = std::min(written, kRingCapacity);
    if (written > kRingCapacity) {
      dropped += static_cast<int64_t>(written - kRingCapacity);
    }
    for (uint64_t i = buffer->head - kept; i < buffer->head; ++i) {
      events.push_back({buffer->ring[i % kRingCapacity], buffer->tid});
    }
  }
  std::sort(events.begin(), events.end(),
            [](const TaggedEvent& a, const TaggedEvent& b) {
              return a.event.start_ns < b.event.start_ns;
            });

  std::FILE* out = std::fopen(state.path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "[obs] cannot open trace file %s\n",
                 state.path.c_str());
    return false;
  }
  // Streamed by hand (rather than building one Json array) so a 100k-event
  // trace doesn't need a second in-memory copy; Json::Escape still
  // guarantees well-formed strings.
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", out);
  bool first = true;
  for (const auto& [event, tid] : events) {
    const double ts_us =
        static_cast<double>(event.start_ns - state.start_ns) / 1000.0;
    const double dur_us = static_cast<double>(event.dur_ns) / 1000.0;
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"cat\":\"tgcrn\","
                 "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f}",
                 first ? "" : ",", Json::Escape(event.name).c_str(), tid,
                 ts_us, dur_us);
    first = false;
  }
  if (dropped > 0) {
    // Surface ring overflow inside the trace itself as an instant-style
    // zero-duration event at the end of the timeline.
    const double ts_us = events.empty()
                             ? 0.0
                             : static_cast<double>(
                                   events.back().event.start_ns -
                                   state.start_ns) /
                                   1000.0;
    std::fprintf(out,
                 "%s{\"name\":\"dropped %lld events (ring wrap)\","
                 "\"ph\":\"X\",\"cat\":\"tgcrn\",\"pid\":1,\"tid\":0,"
                 "\"ts\":%.3f,\"dur\":0}",
                 first ? "" : ",", static_cast<long long>(dropped), ts_us);
  }
  std::fputs("]}\n", out);
  const bool ok = std::fclose(out) == 0;
  if (!ok) {
    std::fprintf(stderr, "[obs] trace write failed for %s\n",
                 state.path.c_str());
  }
  return ok;
}

namespace {

// Fixed hook slots: registration is rare (one per telemetry sink) and the
// abort path must not allocate or take a lock it could already hold.
constexpr int kMaxFlushHooks = 4;
std::atomic<void (*)()> g_flush_hooks[kMaxFlushHooks] = {};

}  // namespace

void RegisterFlushHook(void (*hook)()) {
  if (hook == nullptr) return;
  for (auto& slot : g_flush_hooks) {
    void (*expected)() = nullptr;
    if (slot.load(std::memory_order_relaxed) == hook) return;
    if (slot.compare_exchange_strong(expected, hook)) return;
  }
}

void UnregisterFlushHook(void (*hook)()) {
  for (auto& slot : g_flush_hooks) {
    void (*expected)() = hook;
    slot.compare_exchange_strong(expected, nullptr);
  }
}

void FlushObservability() {
  static std::atomic<bool> flushing{false};
  if (flushing.exchange(true)) return;
  if (TracingEnabled()) StopTracingAndWrite();
  DumpProfileOnAbort();
  const std::string& dump = MetricsDumpTargetFromEnv();
  if (!dump.empty()) DumpMetricsRegistry(dump);
  for (auto& slot : g_flush_hooks) {
    void (*hook)() = slot.load(std::memory_order_relaxed);
    if (hook != nullptr) hook();
  }
  flushing.store(false);
}

}  // namespace obs
}  // namespace tgcrn
