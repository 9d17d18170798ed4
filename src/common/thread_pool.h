#ifndef UGUIDE_COMMON_THREAD_POOL_H_
#define UGUIDE_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/check.h"

namespace uguide {

/// \brief A fixed-size pool of worker threads with fork/join helpers.
///
/// The pool is the library's shared threading substrate: FD discovery
/// shards lattice levels across it, and later subsystems (error injection,
/// concurrent sessions) are expected to reuse it rather than spawn their
/// own threads. Construction is cheap when `num_threads <= 1` (no workers
/// are spawned and every call runs inline on the caller), so code can hold
/// a pool unconditionally and let the thread count decide serial vs
/// parallel execution.
///
/// `num_threads` counts the calling thread: a pool built with N spawns
/// N - 1 workers, and ParallelFor has the caller participate, so exactly N
/// strands execute loop bodies.
///
/// The library itself is exception-free (see DESIGN.md §5), but tasks may
/// still throw — std::bad_alloc, or user callbacks running on the pool. A
/// throwing task no longer terminates the process or deadlocks a join:
/// ParallelFor rethrows the first exception on the calling thread after
/// all strands have stopped (remaining iterations are abandoned at chunk
/// granularity), and an exception from a Submit task is captured and
/// surfaced via TakeSubmitError().
class ThreadPool {
 public:
  /// Passing kAuto sizes the pool to std::thread::hardware_concurrency().
  static constexpr int kAuto = 0;

  explicit ThreadPool(int num_threads = kAuto);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The resolved strand count (>= 1): the constructor argument, or the
  /// detected hardware concurrency under kAuto.
  int num_threads() const { return num_threads_; }

  /// Enqueues `task` for asynchronous execution on a worker. In the
  /// single-threaded fallback the task runs synchronously, inline (an
  /// exception then propagates directly to the caller).
  void Submit(std::function<void()> task);

  /// The first exception thrown by a Submit task on a worker since the
  /// last call, or null. Calling this clears the slot.
  std::exception_ptr TakeSubmitError();

  /// Runs fn(i) for every i in [0, n), blocking until all calls return.
  /// The calling thread participates, so the loop makes progress even when
  /// all workers are busy. With <= 1 thread or n == 1 the loop runs inline
  /// on the caller in index order — the graceful serial fallback.
  ///
  /// Iterations are claimed dynamically in chunks, so `fn` must be safe to
  /// call concurrently from several threads. The join waits only for the
  /// strands that entered the loop: once the caller has claimed the last
  /// chunk, helper tasks still queued behind busy workers are abandoned
  /// (they run later as no-ops and never call `fn`). A caller may therefore
  /// fork while holding a lock the workers are blocked on, and `fn` may
  /// itself call ParallelFor on the same pool; either way the loop
  /// completes on the calling thread, serially at worst.
  ///
  /// If fn throws, the loop is cancelled at chunk granularity (some
  /// iterations may never run), every strand is joined, and the first
  /// exception is rethrown here on the calling thread. The pool remains
  /// usable afterwards.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Maps `fn` over `items`, returning the results in input order
  /// (deterministic regardless of thread count). Same requirements on `fn`
  /// as ParallelFor; the result type must be default-constructible.
  template <typename In, typename Fn>
  auto ParallelMap(const std::vector<In>& items, Fn&& fn)
      -> std::vector<std::invoke_result_t<Fn&, const In&>> {
    std::vector<std::invoke_result_t<Fn&, const In&>> out(items.size());
    ParallelFor(items.size(), [&](size_t i) { out[i] = fn(items[i]); });
    return out;
  }

 private:
  void WorkerMain();

  int num_threads_ = 1;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable ready_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  /// First exception thrown by a Submit task on a worker (guarded by mu_).
  std::exception_ptr submit_error_;
};

}  // namespace uguide

#endif  // UGUIDE_COMMON_THREAD_POOL_H_
