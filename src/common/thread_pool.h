// Copyright 2026 TGCRN Reproduction Authors
// A fixed-size thread pool (no work stealing) and the two parallel
// primitives every hot kernel in the repository is built on:
//
//  * ParallelFor(begin, end, grain, fn) — splits [begin, end) into disjoint
//    contiguous subranges and runs fn(sub_begin, sub_end) on the pool, with
//    the calling thread participating. Used for kernels whose outputs are
//    element-independent (elementwise ops, matmul rows, softmax rows):
//    chunk boundaries cannot change any output value, so results are
//    bitwise identical at every thread count.
//  * DeterministicChunkedSum(n, grain, chunk_sum) — a reduction whose
//    float semantics are fixed by construction: [0, n) is cut into
//    ceil(n/grain) chunks (a function of n and grain only, never of the
//    thread count), per-chunk partials are computed in parallel, and the
//    partials are combined by a fixed pairwise tree. The same bits come
//    out at 1, 2 or 64 threads.
//
// Thread count: defaults to TGCRN_NUM_THREADS if set to an integer in
// [1, kMaxNumThreads] (any other value is ignored with a warning), else
// std::thread::hardware_concurrency(). SetNumThreads(1) gives exact legacy
// single-threaded execution (no pool threads touch any data). Nested
// ParallelFor calls (a parallel region entered from inside a chunk) degrade
// to serial execution instead of deadlocking.
#ifndef TGCRN_COMMON_THREAD_POOL_H_
#define TGCRN_COMMON_THREAD_POOL_H_

#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

namespace tgcrn {
namespace common {

// Total number of threads participating in parallel regions, including the
// calling thread. Always >= 1.
int GetNumThreads();

// Largest pool width TGCRN_NUM_THREADS may request.
inline constexpr int kMaxNumThreads = 1024;

// Sets the parallel width. n <= 0 restores the default (TGCRN_NUM_THREADS
// env var if valid, else hardware concurrency). Waits for a dispatch in
// flight on another thread to finish; must not be called from inside a
// parallel region.
void SetNumThreads(int n);

// RAII guard for tests: sets the thread count and restores the previous
// value on destruction.
class ScopedNumThreads {
 public:
  explicit ScopedNumThreads(int n) : previous_(GetNumThreads()) {
    SetNumThreads(n);
  }
  ~ScopedNumThreads() { SetNumThreads(previous_); }
  ScopedNumThreads(const ScopedNumThreads&) = delete;
  ScopedNumThreads& operator=(const ScopedNumThreads&) = delete;

 private:
  int previous_;
};

// Non-owning reference to a callable, the type-erased argument of the two
// primitives below. Both run their callable to completion before
// returning, so referencing the caller's lambda is safe, and unlike
// std::function it never heap-allocates a capture.
template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, FunctionRef> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  FunctionRef(F&& f)  // NOLINT(google-explicit-constructor)
      : object_(const_cast<void*>(
            static_cast<const void*>(std::addressof(f)))),
        invoke_(&Invoke<std::remove_reference_t<F>>) {}

  R operator()(Args... args) const {
    return invoke_(object_, std::forward<Args>(args)...);
  }

 private:
  template <typename F>
  static R Invoke(void* object, Args... args) {
    return (*static_cast<F*>(object))(std::forward<Args>(args)...);
  }

  void* object_;
  R (*invoke_)(void*, Args...);
};

// Runs fn over disjoint contiguous subranges covering [begin, end). `grain`
// is the minimum subrange length (>= 1) and doubles as the serial cutoff:
// ranges no longer than `grain`, a thread count of 1, calls from inside a
// parallel region, and calls made while another thread's dispatch occupies
// the pool all run fn(begin, end) serially on the calling thread. The first
// exception thrown by any chunk is rethrown on the calling thread after all
// chunks finish. A dispatch makes no heap allocation.
void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 FunctionRef<void(int64_t, int64_t)> fn);

// Deterministic parallel reduction over [0, n): chunk_sum(c_begin, c_end)
// returns the partial for one fixed chunk of at most `grain` elements;
// partials are combined by a fixed pairwise tree. The chunking and the
// combine order depend only on n and grain, so the result is bitwise
// identical regardless of the thread count (including 1). Only the
// scheduling depends on the size: up to kReductionSerialChunks chunks are
// summed inline on the calling thread, and the partials live on the stack
// up to kReductionStackChunks chunks and on the heap above that.
double DeterministicChunkedSum(int64_t n, int64_t grain,
                               FunctionRef<double(int64_t, int64_t)> chunk_sum);
inline constexpr int64_t kReductionSerialChunks = 2;
inline constexpr int64_t kReductionStackChunks = 256;

// True while the calling thread is executing inside a ParallelFor chunk
// (used by kernels that must pick the serial path when nested).
bool InParallelRegion();

// Monotonic pool bookkeeping since process start, for the observability
// layer and tests. All fields are gathered from relaxed atomics: totals are
// exact once the pool is quiescent, approximate while work is in flight.
struct PoolStats {
  int num_threads = 1;             // current parallel width (incl. caller)
  int64_t parallel_for_calls = 0;  // total ParallelFor invocations
  // Invocations that ran as a single serial call on the calling thread
  // (width 1, range <= grain, or nested inside a parallel region).
  int64_t serial_runs = 0;
  // Chunks claimed and executed across all parallel jobs. The pool has no
  // work stealing, so this is also the steal-free claim count.
  int64_t chunks_executed = 0;
  // Helper joins: times a pool worker entered a dispatched job's claim
  // loop (at most width - 1 per dispatch; a helper that arrives after the
  // caller closed the job does not join). There is no task queue.
  int64_t pool_tasks_executed = 0;
};
PoolStats GetPoolStats();

}  // namespace common
}  // namespace tgcrn

#endif  // TGCRN_COMMON_THREAD_POOL_H_
