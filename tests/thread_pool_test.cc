// Copyright 2026 TGCRN Reproduction Authors
// Unit tests of the fixed-size thread pool: range coverage, chunk ordering
// on the serial path, exception propagation out of ParallelFor (also from
// a helper thread), nested-call degradation to serial execution, concurrent
// callers, resizing parked and spinning helpers, allocation-free dispatch,
// grain-size boundary cases, TGCRN_NUM_THREADS parsing, and the
// determinism of the fixed-chunk tree reduction across thread counts.
#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"

// Counts every global operator new in this binary, so the dispatch test
// can assert that steady-state ParallelFor calls allocate nothing.
namespace {
std::atomic<int64_t> g_heap_allocations{0};

void* CountedAlloc(std::size_t size, std::size_t align) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = align > alignof(std::max_align_t)
                ? std::aligned_alloc(align, (size + align - 1) / align * align)
                : std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) {
  return CountedAlloc(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size) {
  return CountedAlloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace tgcrn {
namespace {

using common::DeterministicChunkedSum;
using common::GetNumThreads;
using common::ParallelFor;
using common::ScopedNumThreads;
using common::SetNumThreads;

// Every index in [begin, end) must be visited exactly once, for any
// combination of range size, grain, and thread count.
TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  for (const int threads : {1, 2, 8}) {
    ScopedNumThreads guard(threads);
    for (const int64_t n : {0, 1, 7, 64, 1000, 4097}) {
      for (const int64_t grain : {1, 3, 64, 5000}) {
        std::vector<std::atomic<int>> counts(n);
        for (auto& c : counts) c.store(0);
        ParallelFor(0, n, grain, [&](int64_t s, int64_t e) {
          ASSERT_LE(0, s);
          ASSERT_LE(s, e);
          ASSERT_LE(e, n);
          for (int64_t i = s; i < e; ++i) counts[i].fetch_add(1);
        });
        for (int64_t i = 0; i < n; ++i) {
          ASSERT_EQ(counts[i].load(), 1)
              << "threads=" << threads << " n=" << n << " grain=" << grain
              << " index=" << i;
        }
      }
    }
  }
}

TEST(ThreadPoolTest, ParallelForHonorsNonZeroBegin) {
  ScopedNumThreads guard(4);
  std::vector<std::atomic<int>> counts(100);
  for (auto& c : counts) c.store(0);
  ParallelFor(37, 91, 5, [&](int64_t s, int64_t e) {
    for (int64_t i = s; i < e; ++i) counts[i].fetch_add(1);
  });
  for (int64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(counts[i].load(), (i >= 37 && i < 91) ? 1 : 0) << i;
  }
}

// On the serial path (1 thread) chunks arrive in ascending order as one
// single call; with multiple threads subranges may interleave but must be
// disjoint — recorded ranges sorted by start must tile the range.
TEST(ThreadPoolTest, SerialPathRunsInOrder) {
  ScopedNumThreads guard(1);
  std::vector<std::pair<int64_t, int64_t>> ranges;
  ParallelFor(0, 1000, 10, [&](int64_t s, int64_t e) {
    ranges.emplace_back(s, e);
  });
  // With one thread the whole range is one in-order call.
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].first, 0);
  EXPECT_EQ(ranges[0].second, 1000);
}

TEST(ThreadPoolTest, ChunksTileTheRangeWithoutOverlap) {
  ScopedNumThreads guard(8);
  std::mutex mu;
  std::vector<std::pair<int64_t, int64_t>> ranges;
  ParallelFor(0, 10001, 7, [&](int64_t s, int64_t e) {
    std::lock_guard<std::mutex> lock(mu);
    ranges.emplace_back(s, e);
  });
  std::sort(ranges.begin(), ranges.end());
  int64_t expected_start = 0;
  for (const auto& [s, e] : ranges) {
    EXPECT_EQ(s, expected_start);
    EXPECT_LT(s, e);
    expected_start = e;
  }
  EXPECT_EQ(expected_start, 10001);
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  for (const int threads : {1, 4}) {
    ScopedNumThreads guard(threads);
    EXPECT_THROW(
        ParallelFor(0, 10000, 16,
                    [&](int64_t s, int64_t e) {
                      // Throw from whichever chunk contains index 5000 —
                      // works on both the serial and the chunked path.
                      if (s <= 5000 && 5000 < e) {
                        throw std::runtime_error("chunk failed");
                      }
                    }),
        std::runtime_error);
    // The pool must stay usable after an exception.
    std::atomic<int64_t> sum{0};
    ParallelFor(0, 1000, 16, [&](int64_t s, int64_t e) {
      sum.fetch_add(e - s);
    });
    EXPECT_EQ(sum.load(), 1000);
  }
}

// A ParallelFor issued from inside a chunk must degrade to serial instead
// of re-entering the pool (a worker waiting on its own queue would
// deadlock). The nested region still covers its full range.
TEST(ThreadPoolTest, NestedCallDegradesToSerial) {
  ScopedNumThreads guard(4);
  const int64_t outer_n = 64, inner_n = 512;
  std::vector<std::atomic<int>> counts(outer_n * inner_n);
  for (auto& c : counts) c.store(0);
  ParallelFor(0, outer_n, 1, [&](int64_t os, int64_t oe) {
    for (int64_t o = os; o < oe; ++o) {
      EXPECT_TRUE(common::InParallelRegion());
      ParallelFor(0, inner_n, 1, [&](int64_t is, int64_t ie) {
        // Serial degradation: the nested call is one full-range chunk.
        EXPECT_EQ(is, 0);
        EXPECT_EQ(ie, inner_n);
        for (int64_t i = is; i < ie; ++i) {
          counts[o * inner_n + i].fetch_add(1);
        }
      });
    }
  });
  for (const auto& c : counts) ASSERT_EQ(c.load(), 1);
  EXPECT_FALSE(common::InParallelRegion());
}

TEST(ThreadPoolTest, PoolStatsCountCallsChunksAndSerialRuns) {
  ScopedNumThreads guard(4);
  const auto before = common::GetPoolStats();
  EXPECT_EQ(before.num_threads, 4);

  // Pooled path: 1000/10 with 4 threads splits into >1 chunks.
  ParallelFor(0, 1000, 10, [](int64_t, int64_t) {});
  const auto pooled = common::GetPoolStats();
  EXPECT_EQ(pooled.parallel_for_calls, before.parallel_for_calls + 1);
  EXPECT_EQ(pooled.serial_runs, before.serial_runs);
  EXPECT_GT(pooled.chunks_executed, before.chunks_executed + 1);

  // grain >= n: the serial fallback runs no pool chunks.
  ParallelFor(0, 10, 100, [](int64_t, int64_t) {});
  const auto serial = common::GetPoolStats();
  EXPECT_EQ(serial.parallel_for_calls, pooled.parallel_for_calls + 1);
  EXPECT_EQ(serial.serial_runs, pooled.serial_runs + 1);
  EXPECT_EQ(serial.chunks_executed, pooled.chunks_executed);
}

// Nested calls degrade to serial; the counters must record them as calls +
// serial runs (not pool chunks), and keep counting accurately afterwards.
TEST(ThreadPoolTest, PoolStatsSurviveNestedSerialDegradation) {
  ScopedNumThreads guard(4);
  const auto before = common::GetPoolStats();
  const int64_t outer_n = 16;
  std::atomic<int64_t> nested_serial{0};
  ParallelFor(0, outer_n, 1, [&](int64_t os, int64_t oe) {
    for (int64_t o = os; o < oe; ++o) {
      ParallelFor(0, 256, 1, [&](int64_t is, int64_t ie) {
        if (is == 0 && ie == 256) nested_serial.fetch_add(1);
      });
    }
  });
  const auto after = common::GetPoolStats();
  EXPECT_EQ(nested_serial.load(), outer_n);  // every nested call was serial
  // outer + one nested call per outer index.
  EXPECT_EQ(after.parallel_for_calls,
            before.parallel_for_calls + 1 + outer_n);
  EXPECT_EQ(after.serial_runs, before.serial_runs + outer_n);
  // Only the outer call consumed pool chunks.
  const int64_t chunks = after.chunks_executed - before.chunks_executed;
  EXPECT_GT(chunks, 1);
  EXPECT_LE(chunks, outer_n);

  // The pool keeps counting normally after the nested episode.
  ParallelFor(0, 1000, 10, [](int64_t, int64_t) {});
  const auto final_stats = common::GetPoolStats();
  EXPECT_EQ(final_stats.parallel_for_calls, after.parallel_for_calls + 1);
  EXPECT_GT(final_stats.chunks_executed, after.chunks_executed);
}

TEST(ThreadPoolTest, SetNumThreadsIsReflected) {
  const int original = GetNumThreads();
  SetNumThreads(3);
  EXPECT_EQ(GetNumThreads(), 3);
  SetNumThreads(1);
  EXPECT_EQ(GetNumThreads(), 1);
  SetNumThreads(0);  // restores the default
  EXPECT_GE(GetNumThreads(), 1);
  SetNumThreads(original);
}

TEST(ThreadPoolTest, GrainBoundaryCases) {
  ScopedNumThreads guard(4);
  // grain larger than the range: single serial call.
  std::vector<std::pair<int64_t, int64_t>> ranges;
  ParallelFor(0, 10, 100, [&](int64_t s, int64_t e) {
    ranges.emplace_back(s, e);
  });
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0], (std::pair<int64_t, int64_t>{0, 10}));

  // Zero/negative grain is clamped to 1 rather than dividing by zero.
  std::atomic<int64_t> visited{0};
  ParallelFor(0, 100, 0, [&](int64_t s, int64_t e) {
    visited.fetch_add(e - s);
  });
  EXPECT_EQ(visited.load(), 100);

  // Empty and reversed ranges are no-ops.
  bool called = false;
  ParallelFor(0, 0, 1, [&](int64_t, int64_t) { called = true; });
  ParallelFor(5, 3, 1, [&](int64_t, int64_t) { called = true; });
  EXPECT_FALSE(called);
}

// The reduction contract: same bits at any thread count because the chunk
// layout and combine tree depend only on (n, grain). The sizes straddle
// both scheduling boundaries (inline vs pooled chunks, stack vs heap
// partials), and every result must equal an independent evaluation of the
// fixed chunking and pairwise tree.
TEST(ThreadPoolTest, DeterministicSumIdenticalAcrossThreadCounts) {
  constexpr int64_t kGrain = 2048;
  const int64_t inline_limit = common::kReductionSerialChunks * kGrain;
  const int64_t stack_limit = common::kReductionStackChunks * kGrain;
  ASSERT_LT(inline_limit, stack_limit);
  const int64_t max_n = stack_limit + 1;
  Rng rng(42);
  std::vector<float> values(max_n);
  for (auto& v : values) v = rng.Uniform(-1.0f, 1.0f);
  auto chunk_sum = [&](int64_t b, int64_t e) {
    double s = 0.0;
    for (int64_t i = b; i < e; ++i) s += values[i];
    return s;
  };
  auto reference = [&](int64_t n) {
    std::vector<double> partials;
    for (int64_t b = 0; b < n; b += kGrain) {
      partials.push_back(chunk_sum(b, std::min(n, b + kGrain)));
    }
    for (size_t stride = 1; stride < partials.size(); stride *= 2) {
      for (size_t i = 0; i + stride < partials.size(); i += 2 * stride) {
        partials[i] += partials[i + stride];
      }
    }
    return partials[0];
  };
  for (const int64_t n :
       {inline_limit - 1, inline_limit, inline_limit + 1, int64_t{100000},
        stack_limit - 1, stack_limit, stack_limit + 1}) {
    const double want = reference(n);
    for (const int threads : {1, 2, 3, 8}) {
      ScopedNumThreads guard(threads);
      EXPECT_EQ(DeterministicChunkedSum(n, kGrain, chunk_sum), want)
          << "n=" << n << " threads=" << threads;
    }
  }
}

// Below the stack-partials limit a pooled reduction allocates nothing.
TEST(ThreadPoolTest, DeterministicSumOnStackPartialsDoesNotAllocate) {
  ScopedNumThreads guard(2);
  constexpr int64_t kGrain = 512;
  const int64_t n = common::kReductionStackChunks * kGrain;
  ASSERT_GT(common::kReductionStackChunks, common::kReductionSerialChunks);
  auto ident = [](int64_t b, int64_t e) {
    return static_cast<double>(e - b);
  };
  EXPECT_EQ(DeterministicChunkedSum(n, kGrain, ident), static_cast<double>(n));
  const auto pool_before = common::GetPoolStats();
  const int64_t before = g_heap_allocations.load();
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(DeterministicChunkedSum(n, kGrain, ident),
              static_cast<double>(n));
  }
  EXPECT_EQ(g_heap_allocations.load(), before);
  // The sums were large enough to go through the pool.
  EXPECT_EQ(common::GetPoolStats().serial_runs, pool_before.serial_runs);
}

// Runs a pooled ParallelFor whose caller-side chunk blocks until a helper
// has executed a chunk, so a helper is guaranteed to join; `on_helper` runs
// inside that helper's chunk. Returns whether a helper joined in time.
template <typename OnHelper>
bool DispatchJoinedByHelper(OnHelper on_helper) {
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> helper_ran{false};
  std::atomic<bool> timed_out{false};
  ParallelFor(0, 64, 1, [&](int64_t, int64_t) {
    if (std::this_thread::get_id() != caller) {
      helper_ran.store(true);
      on_helper();
      return;
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!helper_ran.load()) {
      if (std::chrono::steady_clock::now() > deadline) {
        timed_out.store(true);
        return;
      }
      std::this_thread::yield();
    }
  });
  return helper_ran.load() && !timed_out.load();
}

void ExpectExactCoverage(int64_t n, int64_t grain) {
  std::vector<int> counts(n, 0);
  ParallelFor(0, n, grain, [&](int64_t s, int64_t e) {
    for (int64_t i = s; i < e; ++i) ++counts[i];
  });
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(counts[i], 1) << "n=" << n << " grain=" << grain << " i=" << i;
  }
}

TEST(ThreadPoolTest, HelperExceptionIsRethrownAndPoolRecovers) {
  ScopedNumThreads guard(2);
  bool rethrown = false;
  try {
    DispatchJoinedByHelper([] { throw std::runtime_error("helper chunk"); });
  } catch (const std::runtime_error& e) {
    rethrown = std::string(e.what()) == "helper chunk";
  }
  EXPECT_TRUE(rethrown);
  ExpectExactCoverage(10000, 16);
  EXPECT_TRUE(DispatchJoinedByHelper([] {}));
}

// Steady-state dispatch (helpers already started, counters and histograms
// registered) makes no heap allocation, on the pooled path and the serial
// cutoff alike.
TEST(ThreadPoolTest, SteadyStateDispatchDoesNotAllocate) {
  ScopedNumThreads guard(2);
  std::vector<float> out(1 << 12, 0.0f);
  const float scale = 2.0f;
  const int64_t offset = 3;
  auto body = [&](int64_t s, int64_t e) {
    for (int64_t i = s; i < e; ++i) {
      out[i] = scale * static_cast<float>(i + offset);
    }
  };
  for (int i = 0; i < 100; ++i) ParallelFor(0, 1 << 12, 64, body);
  const auto pool_before = common::GetPoolStats();
  const int64_t before = g_heap_allocations.load();
  for (int i = 0; i < 10000; ++i) {
    ParallelFor(0, 1 << 12, 64, body);
    ParallelFor(0, 16, 64, body);  // below the cutoff: inline
  }
  const int64_t allocations = g_heap_allocations.load() - before;
  const auto pool_after = common::GetPoolStats();
  EXPECT_EQ(allocations, 0);
  EXPECT_EQ(pool_after.parallel_for_calls - pool_before.parallel_for_calls,
            20000);
  EXPECT_EQ(pool_after.serial_runs - pool_before.serial_runs, 10000);
  EXPECT_EQ(out[100], scale * 103.0f);
}

// Two threads dispatching at once: one gets the pool's job slot, the
// other runs serially; both cover their ranges exactly once.
TEST(ThreadPoolTest, ConcurrentCallersBothGetExactCoverage) {
  ScopedNumThreads guard(3);
  constexpr int kRounds = 300;
  auto caller = [](int64_t n, int64_t grain, bool* ok) {
    std::vector<int> counts(n);
    for (int round = 0; round < kRounds; ++round) {
      std::fill(counts.begin(), counts.end(), 0);
      ParallelFor(0, n, grain, [&](int64_t s, int64_t e) {
        for (int64_t i = s; i < e; ++i) ++counts[i];
      });
      for (int64_t i = 0; i < n; ++i) {
        if (counts[i] != 1) return;
      }
    }
    *ok = true;
  };
  bool ok_a = false, ok_b = false;
  std::thread a(caller, 5000, 7, &ok_a);
  std::thread b(caller, 3001, 13, &ok_b);
  a.join();
  b.join();
  EXPECT_TRUE(ok_a);
  EXPECT_TRUE(ok_b);
}

// Resizing replaces helpers whether they are still spinning on the job
// slot (right after a dispatch) or already parked on the condvar (after a
// pause well beyond the spin budget); the new helpers then join jobs.
TEST(ThreadPoolTest, ResizeWhileHelpersSpinOrPark) {
  ScopedNumThreads guard(2);
  for (const bool parked : {false, true}) {
    for (const int width : {3, 2, 4}) {
      ExpectExactCoverage(4096, 8);
      if (parked) std::this_thread::sleep_for(std::chrono::milliseconds(50));
      SetNumThreads(width);
      EXPECT_EQ(GetNumThreads(), width);
      const auto before = common::GetPoolStats();
      EXPECT_TRUE(DispatchJoinedByHelper([] {}))
          << "width=" << width << " parked=" << parked;
      EXPECT_GT(common::GetPoolStats().pool_tasks_executed,
                before.pool_tasks_executed);
      ExpectExactCoverage(4097, 3);
    }
  }
}

// Randomized back-to-back dispatches of mixed sizes and grains, with and
// without a pause between them, at several widths.
TEST(ThreadPoolTest, RandomizedBackToBackStress) {
  Rng rng(7);
  for (const int width : {2, 3, 4}) {
    ScopedNumThreads guard(width);
    for (int iter = 0; iter < 400; ++iter) {
      const int64_t n = static_cast<int64_t>(rng.Uniform(0.0f, 6000.0f));
      const int64_t grain = 1 + static_cast<int64_t>(rng.Uniform(0.0f, 700.0f));
      const int64_t begin = static_cast<int64_t>(rng.Uniform(0.0f, 50.0f));
      std::vector<int> counts(begin + n, 0);
      ParallelFor(begin, begin + n, grain, [&](int64_t s, int64_t e) {
        for (int64_t i = s; i < e; ++i) ++counts[i];
      });
      for (int64_t i = 0; i < begin + n; ++i) {
        ASSERT_EQ(counts[i], i >= begin ? 1 : 0)
            << "width=" << width << " n=" << n << " grain=" << grain;
      }
      if (iter % 97 == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(300));
      }
    }
  }
}

// An invalid TGCRN_NUM_THREADS is named in a warning and ignored: the
// default width falls back to hardware concurrency.
TEST(ThreadPoolTest, InvalidNumThreadsEnvIsIgnoredWithWarning) {
  const int original = GetNumThreads();
  const char* saved = std::getenv("TGCRN_NUM_THREADS");
  const std::string saved_value = saved ? saved : "";
  const unsigned hw = std::thread::hardware_concurrency();
  const int hw_width = hw > 0 ? static_cast<int>(hw) : 1;
  const LogLevel saved_level = GetMinLogLevel();
  SetMinLogLevel(LogLevel::kWarning);
  for (const char* bad : {"4x", "abc", "0"}) {
    ASSERT_EQ(setenv("TGCRN_NUM_THREADS", bad, /*overwrite=*/1), 0);
    SetNumThreads(hw_width == 1 ? 2 : 1);  // force Resize to re-read
    testing::internal::CaptureStderr();
    SetNumThreads(0);
    const std::string log = testing::internal::GetCapturedStderr();
    EXPECT_EQ(GetNumThreads(), hw_width) << bad;
    EXPECT_NE(log.find(std::string("TGCRN_NUM_THREADS='") + bad + "'"),
              std::string::npos)
        << log;
  }
  ASSERT_EQ(setenv("TGCRN_NUM_THREADS", "3", /*overwrite=*/1), 0);
  SetNumThreads(0);
  EXPECT_EQ(GetNumThreads(), 3);
  if (saved) {
    setenv("TGCRN_NUM_THREADS", saved_value.c_str(), /*overwrite=*/1);
  } else {
    unsetenv("TGCRN_NUM_THREADS");
  }
  SetMinLogLevel(saved_level);
  SetNumThreads(original);
}

TEST(ThreadPoolTest, DeterministicSumEdgeCases) {
  auto ident = [](int64_t b, int64_t e) {
    return static_cast<double>(e - b);
  };
  EXPECT_EQ(DeterministicChunkedSum(0, 16, ident), 0.0);
  EXPECT_EQ(DeterministicChunkedSum(1, 16, ident), 1.0);
  EXPECT_EQ(DeterministicChunkedSum(16, 16, ident), 16.0);   // exactly 1 chunk
  EXPECT_EQ(DeterministicChunkedSum(17, 16, ident), 17.0);   // ragged tail
  EXPECT_EQ(DeterministicChunkedSum(1000, 1, ident), 1000.0);  // 1000 chunks
}

}  // namespace
}  // namespace tgcrn
