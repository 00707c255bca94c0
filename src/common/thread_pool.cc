// Copyright 2026 TGCRN Reproduction Authors
#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/env.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/trace.h"

namespace tgcrn {
namespace common {
namespace {

// Pool bookkeeping (see GetPoolStats). Plain relaxed atomics rather than
// obs counters so the header-visible stats need no registry lookup; the
// obs layer additionally gets busy/idle histograms below.
std::atomic<int64_t> g_parallel_for_calls{0};
std::atomic<int64_t> g_serial_runs{0};
std::atomic<int64_t> g_chunks_executed{0};
std::atomic<int64_t> g_pool_tasks_executed{0};

int64_t MonotonicNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Spin-wait hint: lets a hyperthread sibling run and saves power.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// How long an idle worker polls the job slot before parking on the
// condvar. Dispatches in a training step arrive a few to a few hundred
// microseconds apart, so a worker that is still spinning joins the next
// job within a cache-line transfer instead of a futex wake-up.
constexpr int64_t kSpinBudgetNs = 50'000;
// Pause iterations between clock reads while spinning, and before a
// waiting caller starts yielding its CPU.
constexpr int kSpinsPerClockRead = 64;
constexpr int kCallerSpinsBeforeYield = 1024;

// Set while the current thread executes ParallelFor chunks; nested
// parallel calls observe it and run serially instead of re-entering the
// pool (whose slot the outer call already holds).
thread_local bool tls_in_parallel_region = false;

struct ScopedRegionFlag {
  ScopedRegionFlag() { tls_in_parallel_region = true; }
  ~ScopedRegionFlag() { tls_in_parallel_region = false; }
};

int DefaultNumThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(
      EnvInt("TGCRN_NUM_THREADS", 1, kMaxNumThreads, hw > 0 ? hw : 1));
}

// Fixed-size pool with one persistent job slot and no task queue.
//
// The slot's word `state_` packs a generation (bits 32..63), an open bit
// (bit 31) and the number of helpers currently joined (bits 0..30). A
// dispatching caller owns the slot through `dispatch_mu_`, writes the job
// fields, and publishes them by storing a new generation with the open bit
// set. Idle helpers spin on the word, then park; one joins by CAS-ing the
// joined count up while the slot is open, claims chunks from `next_chunk_`
// like the caller does, and leaves by decrementing the count. The caller,
// once every chunk is claimed, clears the open bit (no later joins) and
// waits only for the helpers that joined to leave.
class ThreadPool {
 public:
  static ThreadPool& Global() {
    static ThreadPool pool(DefaultNumThreads());
    return pool;
  }

  ~ThreadPool() { StopWorkers(); }

  int num_threads() const {
    return num_threads_.load(std::memory_order_relaxed);
  }

  void Resize(int total_threads) {
    // From inside a chunk this thread may hold the slot it is about to wait
    // for.
    TGCRN_CHECK(!tls_in_parallel_region)
        << "SetNumThreads called from inside a parallel region";
    if (total_threads <= 0) total_threads = DefaultNumThreads();
    std::lock_guard<std::mutex> resize_lock(resize_mu_);
    if (total_threads == num_threads()) return;
    // Holding the slot keeps any other thread's dispatch out (it runs
    // serially) while the helpers are replaced.
    std::lock_guard<std::mutex> slot(dispatch_mu_);
    StopWorkers();
    StartWorkers(total_threads);
  }

  // Runs chunks [0, num_chunks) of fn over [begin, end) with the calling
  // thread participating. Returns false, having run nothing, when another
  // thread's dispatch holds the slot.
  bool TryRun(const FunctionRef<void(int64_t, int64_t)>& fn, int64_t begin,
              int64_t end, int64_t chunk, int64_t num_chunks) {
    std::unique_lock<std::mutex> slot(dispatch_mu_, std::try_to_lock);
    if (!slot.owns_lock()) return false;
    fn_ = &fn;
    begin_ = begin;
    end_ = end;
    chunk_ = chunk;
    num_chunks_ = num_chunks;
    prof_attr_ = obs::CurrentProfLeafName();
    next_chunk_.store(0, std::memory_order_relaxed);
    // No helper is joined between dispatches, so the count bits are 0.
    const uint64_t generation =
        (state_.load(std::memory_order_relaxed) & kGenerationMask) +
        kGenerationUnit;
    // seq_cst store, then seq_cst load of the sleeper count; a parking
    // helper does the mirror image (increment, then re-check the word),
    // so at least one side sees the other and no wake-up is lost.
    state_.store(generation | kOpenBit, std::memory_order_seq_cst);
    if (sleepers_.load(std::memory_order_seq_cst) > 0) {
      { std::lock_guard<std::mutex> lock(park_mu_); }
      park_cv_.notify_all();
    }

    RunChunks(/*helper=*/false);

    // Every chunk is claimed: close the slot, then wait for the helpers
    // that joined to finish the chunks they claimed. A helper still
    // parked or spinning is never waited for.
    uint64_t state =
        state_.fetch_and(~kOpenBit, std::memory_order_acq_rel) & ~kOpenBit;
    for (int spins = 0; (state & kJoinedMask) != 0; ++spins) {
      if (spins < kCallerSpinsBeforeYield) {
        CpuRelax();
      } else {
        std::this_thread::yield();
      }
      state = state_.load(std::memory_order_acquire);
    }
    if (exception_) std::rethrow_exception(std::exchange(exception_, nullptr));
    return true;
  }

 private:
  static constexpr uint64_t kJoinedMask = (uint64_t{1} << 31) - 1;
  static constexpr uint64_t kOpenBit = uint64_t{1} << 31;
  static constexpr uint64_t kGenerationUnit = uint64_t{1} << 32;
  static constexpr uint64_t kGenerationMask = ~(kOpenBit | kJoinedMask);

  explicit ThreadPool(int total_threads)
      : busy_ns_(obs::Registry::Global().GetHistogram(
            "threadpool.worker_busy_ns")),
        idle_ns_(obs::Registry::Global().GetHistogram(
            "threadpool.worker_idle_ns")) {
    StartWorkers(total_threads);
  }

  void StartWorkers(int total_threads) {
    TGCRN_CHECK_GE(total_threads, 1);
    stop_.store(false);
    num_threads_.store(total_threads);
    // Spinning only pays when every pool thread has a CPU of its own;
    // oversubscribed, a spinner would steal the time of the thread it
    // waits for.
    const unsigned hw = std::thread::hardware_concurrency();
    spin_budget_ns_ = hw == 0 || static_cast<unsigned>(total_threads) <= hw
                          ? kSpinBudgetNs
                          : 0;
    // No job is open here (the constructor, or Resize holding the slot),
    // so the current generation is one the new helpers must skip.
    const uint64_t seen =
        state_.load(std::memory_order_relaxed) & kGenerationMask;
    for (int i = 0; i < total_threads - 1; ++i) {
      workers_.emplace_back([this, seen] { WorkerLoop(seen); });
    }
  }

  void StopWorkers() {
    {
      std::lock_guard<std::mutex> lock(park_mu_);
      stop_.store(true);
    }
    park_cv_.notify_all();
    for (auto& w : workers_) w.join();
    workers_.clear();
  }

  // The claim loop shared by the caller and joined helpers.
  void RunChunks(bool helper) {
    // Trace-only span: the caller thread already sits inside the kernel's
    // own profiler scope, so letting this span into the attribution tree
    // would steal the kernel's exclusive time. Helpers instead attribute
    // through WorkerAttributionScope (root -> "worker" -> kernel).
    obs::ScopedSpan span("ParallelFor.worker", obs::internal::kScopeTraceBit);
    obs::WorkerAttributionScope attribution(helper ? prof_attr_ : nullptr);
    ScopedRegionFlag in_region;
    int64_t executed = 0;
    while (true) {
      const int64_t c = next_chunk_.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks_) break;
      ++executed;
      const int64_t s = begin_ + c * chunk_;
      // No early cancellation on exception: the remaining chunks still
      // run so completion accounting stays trivial; the first exception
      // is kept and rethrown by the caller.
      try {
        (*fn_)(s, std::min(end_, s + chunk_));
      } catch (...) {
        std::lock_guard<std::mutex> lock(exception_mu_);
        if (!exception_) exception_ = std::current_exception();
      }
    }
    g_chunks_executed.fetch_add(executed, std::memory_order_relaxed);
  }

  // Waits until a generation newer than `seen` is open; false on stop.
  bool WaitForJob(uint64_t seen, uint64_t* state) {
    const auto ready = [seen](uint64_t s) {
      return (s & kOpenBit) != 0 && (s & kGenerationMask) != seen;
    };
    int64_t deadline_ns = 0;
    for (int spins = 1;; ++spins) {
      if (stop_.load(std::memory_order_relaxed)) return false;
      *state = state_.load(std::memory_order_acquire);
      if (ready(*state)) return true;
      CpuRelax();
      if (spins % kSpinsPerClockRead == 0) {
        const int64_t now = MonotonicNs();
        if (deadline_ns == 0) deadline_ns = now + spin_budget_ns_;
        if (now >= deadline_ns) break;
      }
    }
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    {
      std::unique_lock<std::mutex> lock(park_mu_);
      park_cv_.wait(lock, [&] {
        *state = state_.load(std::memory_order_seq_cst);
        return stop_.load() || ready(*state);
      });
    }
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
    return !stop_.load();
  }

  void WorkerLoop(uint64_t seen) {
    int64_t idle_since_ns = MonotonicNs();
    uint64_t state = 0;
    while (WaitForJob(seen, &state)) {
      seen = state & kGenerationMask;
      bool joined = false;
      while ((state & kOpenBit) != 0 && (state & kGenerationMask) == seen) {
        if (state_.compare_exchange_weak(state, state + 1,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
          joined = true;
          break;
        }
      }
      if (!joined) continue;  // the caller closed the job first
      const int64_t start_ns = MonotonicNs();
      RunChunks(/*helper=*/true);
      state_.fetch_sub(1, std::memory_order_release);
      g_pool_tasks_executed.fetch_add(1, std::memory_order_relaxed);
      idle_ns_->Observe(start_ns - idle_since_ns);
      idle_since_ns = MonotonicNs();
      busy_ns_->Observe(idle_since_ns - start_ns);
    }
  }

  // Nanoseconds each helper spends inside a joined job vs between jobs,
  // observed per join (two clock reads per dispatch per joining helper).
  // Looked up once here so that no join touches the registry.
  obs::Histogram* const busy_ns_;
  obs::Histogram* const idle_ns_;
  std::mutex resize_mu_;
  std::atomic<int> num_threads_{1};
  std::atomic<bool> stop_{false};
  int64_t spin_budget_ns_ = kSpinBudgetNs;

  // The job slot. Written by the thread holding dispatch_mu_ before it
  // publishes a generation; read by helpers only while joined.
  std::mutex dispatch_mu_;
  const FunctionRef<void(int64_t, int64_t)>* fn_ = nullptr;
  int64_t begin_ = 0;
  int64_t end_ = 0;
  int64_t chunk_ = 1;
  int64_t num_chunks_ = 0;
  // Innermost profiler scope open on the dispatching thread (nullptr when
  // the profiler is off): helpers attribute their chunk time to it.
  const char* prof_attr_ = nullptr;
  std::mutex exception_mu_;
  std::exception_ptr exception_;

  // Hot words on their own cache lines: helpers poll `state_` while the
  // caller and joined helpers hammer `next_chunk_`.
  alignas(64) std::atomic<uint64_t> state_{0};
  alignas(64) std::atomic<int64_t> next_chunk_{0};
  alignas(64) std::atomic<int> sleepers_{0};
  std::mutex park_mu_;
  std::condition_variable park_cv_;

  // Last, so the helpers are declared after everything they touch.
  std::vector<std::thread> workers_;
};

}  // namespace

int GetNumThreads() { return ThreadPool::Global().num_threads(); }

void SetNumThreads(int n) { ThreadPool::Global().Resize(n); }

bool InParallelRegion() { return tls_in_parallel_region; }

PoolStats GetPoolStats() {
  PoolStats stats;
  stats.num_threads = GetNumThreads();
  stats.parallel_for_calls =
      g_parallel_for_calls.load(std::memory_order_relaxed);
  stats.serial_runs = g_serial_runs.load(std::memory_order_relaxed);
  stats.chunks_executed = g_chunks_executed.load(std::memory_order_relaxed);
  stats.pool_tasks_executed =
      g_pool_tasks_executed.load(std::memory_order_relaxed);
  return stats;
}

void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 FunctionRef<void(int64_t, int64_t)> fn) {
  const int64_t n = end - begin;
  if (n <= 0) return;
  if (grain < 1) grain = 1;
  g_parallel_for_calls.fetch_add(1, std::memory_order_relaxed);
  ThreadPool& pool = ThreadPool::Global();
  const int threads = pool.num_threads();
  if (threads > 1 && n > grain && !tls_in_parallel_region) {
    // At least `grain` per chunk, and ~4 chunks per thread so stragglers
    // balance out without work stealing. Chunk boundaries only affect
    // which thread computes which outputs, never the outputs themselves.
    const int64_t target_chunks = static_cast<int64_t>(threads) * 4;
    const int64_t chunk =
        std::max(grain, (n + target_chunks - 1) / target_chunks);
    const int64_t num_chunks = (n + chunk - 1) / chunk;
    if (num_chunks > 1 && pool.TryRun(fn, begin, end, chunk, num_chunks)) {
      return;
    }
  }
  g_serial_runs.fetch_add(1, std::memory_order_relaxed);
  fn(begin, end);
}

double DeterministicChunkedSum(int64_t n, int64_t grain,
                               FunctionRef<double(int64_t, int64_t)> chunk_sum) {
  if (n <= 0) return 0.0;
  if (grain < 1) grain = 1;
  const int64_t num_chunks = (n + grain - 1) / grain;
  if (num_chunks == 1) return chunk_sum(0, n);
  double stack_partials[kReductionStackChunks];
  std::vector<double> heap_partials;
  double* partials = stack_partials;
  if (num_chunks > kReductionStackChunks) {
    heap_partials.resize(num_chunks);
    partials = heap_partials.data();
  }
  // The cutoff counts chunks, not elements: callers size a chunk by its
  // cost, from 1024 floats (the gradient norm) to eight simulated time
  // steps over every kept station pair (datagen/metro_sim.cc).
  ParallelFor(0, num_chunks, kReductionSerialChunks,
              [&](int64_t cb, int64_t ce) {
    for (int64_t c = cb; c < ce; ++c) {
      partials[c] = chunk_sum(c * grain, std::min(n, (c + 1) * grain));
    }
  });
  // Fixed pairwise tree: partials[i] += partials[i + stride] for doubling
  // strides. The combine pattern depends only on num_chunks.
  for (int64_t stride = 1; stride < num_chunks; stride *= 2) {
    for (int64_t i = 0; i + stride < num_chunks; i += 2 * stride) {
      partials[i] += partials[i + stride];
    }
  }
  return partials[0];
}

}  // namespace common
}  // namespace tgcrn
