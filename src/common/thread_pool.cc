#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

namespace uguide {

ThreadPool::ThreadPool(int num_threads) {
  UGUIDE_CHECK(num_threads >= 0);
  if (num_threads == kAuto) {
    num_threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  num_threads_ = std::max(num_threads, 1);
  // The caller is strand #0; spawn the rest. num_threads_ == 1 spawns
  // nothing and every entry point degrades to an inline call.
  workers_.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int i = 1; i < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerMain(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerMain() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      // Drain the queue even when stopping: every submitted task runs.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    try {
      task();
    } catch (...) {
      // A throwing task must not take the worker (and the process) down.
      // Keep the first exception for TakeSubmitError; ParallelFor's helper
      // tasks catch their own exceptions and never reach this.
      std::lock_guard<std::mutex> lock(mu_);
      if (!submit_error_) submit_error_ = std::current_exception();
    }
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  UGUIDE_CHECK(task != nullptr);
  if (workers_.empty()) {
    task();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  ready_.notify_one();
}

std::exception_ptr ThreadPool::TakeSubmitError() {
  std::lock_guard<std::mutex> lock(mu_);
  std::exception_ptr error = submit_error_;
  submit_error_ = nullptr;
  return error;
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Fork/join state is shared with the helper tasks: a helper may start
  // after this call has returned (its worker was busy), so it must find
  // the state alive. Such a late helper sees `closed` and leaves without
  // touching `fn`, which lives on the caller's stack.
  struct ForState {
    std::atomic<size_t> next{0};
    size_t n = 0;
    size_t chunk = 1;
    const std::function<void(size_t)>* fn = nullptr;
    std::mutex mu;
    std::condition_variable done;
    /// Helpers that entered the loop before the caller closed it (guarded
    /// by mu). The join waits for these only.
    int active = 0;
    /// Set by the caller once it has run out of chunks (guarded by mu):
    /// from then on no helper may enter.
    bool closed = false;
    /// Set when any strand throws: remaining strands stop claiming chunks.
    std::atomic<bool> cancelled{false};
    /// First exception thrown by any strand (guarded by mu).
    std::exception_ptr error;
  };
  auto state = std::make_shared<ForState>();
  state->n = n;
  state->fn = &fn;
  const size_t strands = std::min(workers_.size() + 1, n);
  // Chunked dynamic claiming: big enough to amortize the atomic, small
  // enough to balance skewed per-iteration cost (partition products vary
  // wildly in size).
  state->chunk = std::max<size_t>(1, n / (strands * 8));

  auto drain = [](ForState* s) {
    size_t start;
    // Cancellation is polled per chunk (the claim loop only), keeping the
    // inner iteration loop free of extra loads.
    while (!s->cancelled.load(std::memory_order_relaxed) &&
           (start = s->next.fetch_add(s->chunk, std::memory_order_relaxed)) <
               s->n) {
      const size_t end = std::min(s->n, start + s->chunk);
      for (size_t i = start; i < end; ++i) (*s->fn)(i);
    }
  };
  // A strand that throws records the first exception and cancels the claim
  // loop; it still counts as finished, so the join never waits on it.
  auto capture = [](ForState* s) {
    s->cancelled.store(true, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(s->mu);
    if (!s->error) s->error = std::current_exception();
  };
  for (size_t h = 1; h < strands; ++h) {
    Submit([state, drain, capture] {
      {
        std::lock_guard<std::mutex> lock(state->mu);
        if (state->closed) return;
        ++state->active;
      }
      try {
        drain(state.get());
      } catch (...) {
        capture(state.get());
      }
      std::lock_guard<std::mutex> lock(state->mu);
      if (--state->active == 0 && state->closed) state->done.notify_one();
    });
  }
  try {
    drain(state.get());
  } catch (...) {
    capture(state.get());
  }
  // Every chunk is claimed (or the loop was cancelled), so helpers still in
  // the queue have nothing left to run: close the loop to them and join
  // only the helpers already inside it. Waiting for queued helpers instead
  // would deadlock whenever the workers are blocked on something the
  // caller holds.
  std::unique_lock<std::mutex> lock(state->mu);
  state->closed = true;
  state->done.wait(lock, [&state] { return state->active == 0; });
  const std::exception_ptr error = state->error;
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

}  // namespace uguide
