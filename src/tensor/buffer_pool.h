// Copyright 2026 TGCRN Reproduction Authors
// Size-bucketed free-list of tensor storage buffers. Training builds and
// tears down the same computation graph every step, so the allocator sees
// the same sequence of sizes over and over; recycling buffers turns the
// per-step malloc/free churn (hundreds of heap round-trips per batch) into
// lock-protected free-list pops.
//
// Design:
//  * Buffers are std::vector<float> heap objects bucketed by capacity
//    rounded up to a power of two. Requests below the pooled minimum
//    (default 256 elements) bypass the pool — for training workloads the
//    malloc fast path already wins there. Latency-critical inference
//    (src/serve) lowers the floor with SetMinPooledElements so that even
//    the sub-256-element temporaries of a forecast step (per-sample trend
//    factors, small batch rows) are recycled and the steady state makes
//    zero heap allocations per request.
//  * Acquire returns storage as shared_ptr whose deleter routes the buffer
//    back to the pool instead of freeing it, so Tensor's storage-sharing
//    semantics are unchanged.
//  * Every handed-out buffer is fully (re)initialized (zero-fill or copy)
//    before it escapes, so pooled and fresh storage are bit-identical and
//    the bitwise-determinism contract in tensor.h is unaffected.
//  * Retained bytes are capped (TGCRN_TENSOR_POOL_MAX_MB, default 512);
//    releases beyond the cap free the buffer instead of caching it.
//  * TGCRN_TENSOR_POOL=0 disables recycling entirely (every Acquire
//    allocates, every release frees); SetEnabled flips it at runtime.
//
// Observability: tensor.pool_hit / tensor.pool_miss / tensor.pool_bytes_reused
// counters in the global metric registry, plus GetStats() for tests.
// tensor.allocations / tensor.allocated_bytes count only real heap
// allocations (pool misses and bypasses), which is what makes the pool's
// effect visible as an alloc-count drop per training step.
#ifndef TGCRN_TENSOR_BUFFER_POOL_H_
#define TGCRN_TENSOR_BUFFER_POOL_H_

#include <cstdint>
#include <memory>
#include <vector>

namespace tgcrn {

// The retained-bytes cap TGCRN_TENSOR_POOL_MAX_MB sets, read at pool start.
int64_t TensorPoolMaxRetainedBytesFromEnv();

class TensorBufferPool {
 public:
  // Process-global pool (leaked, like the metric registry, so storage
  // deleters that fire during static destruction stay safe).
  static TensorBufferPool& Global();

  // Zero-filled storage of exactly `numel` elements.
  std::shared_ptr<std::vector<float>> AcquireZeroed(int64_t numel);
  // Storage holding a copy of src[0, numel).
  std::shared_ptr<std::vector<float>> AcquireCopy(const float* src,
                                                  int64_t numel);
  // Storage of `numel` elements with UNSPECIFIED contents, for callers
  // that provably write every element before the buffer escapes (the
  // GEMM driver: every kernel fully overwrites its output rows). Skips
  // the zero-fill AcquireZeroed pays — free on recycled buffers, which
  // is what makes small-matmul-heavy steps measurably faster. The
  // determinism contract still holds because the caller's writes, not
  // the buffer's history, define every bit that escapes.
  std::shared_ptr<std::vector<float>> AcquireForOverwrite(int64_t numel);

  // Runtime switch (initialized from TGCRN_TENSOR_POOL; "0" disables).
  // Disabling drops every cached buffer.
  void SetEnabled(bool enabled);
  bool enabled() const;

  // Smallest request (in elements) served from the pool; anything below
  // bypasses it and heap-allocates. Rounded up to a power of two and
  // clamped to [1, 2^30]. Default 256 — training keeps the malloc fast
  // path for tiny scalars; the serve session lowers the floor to 1 so
  // every per-request temporary is pool-served (the zero-alloc steady
  // state contract, docs/SERVING.md). Raising the floor frees cached
  // buffers that fall below it.
  void SetMinPooledElements(int64_t numel);
  int64_t min_pooled_elements() const;
  // Re-reads TGCRN_TENSOR_POOL from the environment (test hook for the
  // opt-out path; the env var is otherwise read once at startup).
  void ReloadEnabledFromEnv();

  // Frees every cached buffer (retained bytes drop to zero).
  void Clear();

  struct Stats {
    int64_t hits = 0;            // acquires served from the free lists
    int64_t misses = 0;          // acquires that hit the heap
    int64_t bytes_reused = 0;    // bytes served from the free lists
    int64_t cached_buffers = 0;  // buffers currently parked in the pool
    int64_t cached_bytes = 0;    // their total capacity in bytes
  };
  Stats GetStats() const;

  TensorBufferPool(const TensorBufferPool&) = delete;
  TensorBufferPool& operator=(const TensorBufferPool&) = delete;

 private:
  TensorBufferPool();
  ~TensorBufferPool() = default;

  // shared_ptr deleter: recycles into the global pool (or frees).
  static void ReleaseToGlobal(std::vector<float>* buf);
  // Wraps a ready buffer in a pool-returning handle.
  static std::shared_ptr<std::vector<float>> WrapHandle(
      std::vector<float>* buf);
  // Pops a cached buffer able to hold `numel` elements, or nullptr.
  std::vector<float>* TryPop(int64_t numel);
  // Heap-allocates a buffer with bucket-rounded capacity.
  std::vector<float>* AllocateFresh(int64_t numel);
  void Release(std::vector<float>* buf);

  struct Impl;
  Impl* impl_;
};

}  // namespace tgcrn

#endif  // TGCRN_TENSOR_BUFFER_POOL_H_
