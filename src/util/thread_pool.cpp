#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <utility>

#if defined(__linux__)
#include <sched.h>
#endif

namespace motsim {

namespace {

// Set while a thread is executing a parallel_for_dynamic chunk; nested
// parallel_for_dynamic calls run inline on this lane (see header).
thread_local bool tl_in_chunk = false;
thread_local std::size_t tl_lane = 0;

}  // namespace

std::size_t resolve_thread_count(std::size_t requested) {
  if (requested != 0) return requested;
#if defined(__linux__)
  cpu_set_t mask;
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    const int n = CPU_COUNT(&mask);
    if (n > 0) return static_cast<std::size_t>(n);
  }
#endif
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<std::size_t>(hc);
}

ThreadPool::ThreadPool(std::size_t num_threads)
    : lanes_(std::max<std::size_t>(resolve_thread_count(num_threads), 1)) {
  if (lanes_ < 2) return;
  deques_.resize(lanes_ - 1);
  threads_.reserve(lanes_ - 1);
  for (std::size_t w = 0; w < lanes_ - 1; ++w) {
    threads_.emplace_back([this, w] { worker_loop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  if (lanes_ < 2) {
    // No workers: run inline, matching wait_idle()'s error contract.
    try {
      task();
    } catch (...) {
      std::lock_guard<std::mutex> lk(mu_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    return;
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    deques_[next_++ % deques_.size()].push_back(std::move(task));
    ++inflight_;
  }
  work_cv_.notify_one();
}

bool ThreadPool::help_run_one(std::size_t self) {
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (self < deques_.size() && !deques_[self].empty()) {
      task = std::move(deques_[self].back());  // own work: LIFO
      deques_[self].pop_back();
    } else {
      for (std::size_t v = 0; v < deques_.size() && !task; ++v) {
        if (v == self || deques_[v].empty()) continue;
        task = std::move(deques_[v].front());  // steal: FIFO
        deques_[v].pop_front();
      }
    }
    if (!task) return false;
  }
  try {
    task();
  } catch (...) {
    std::lock_guard<std::mutex> lk(mu_);
    if (!first_error_) first_error_ = std::current_exception();
  }
  bool idle = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    idle = --inflight_ == 0;
  }
  if (idle) idle_cv_.notify_all();
  return true;
}

void ThreadPool::worker_loop(std::size_t self) {
  for (;;) {
    if (help_run_one(self)) continue;
    std::unique_lock<std::mutex> lk(mu_);
    if (stop_) return;
    work_cv_.wait(lk, [this] {
      if (stop_) return true;
      for (const auto& d : deques_) {
        if (!d.empty()) return true;
      }
      return false;
    });
    if (stop_) return;
  }
}

void ThreadPool::wait_idle() {
  std::exception_ptr err;
  {
    std::unique_lock<std::mutex> lk(mu_);
    idle_cv_.wait(lk, [this] { return inflight_ == 0; });
    err = std::exchange(first_error_, nullptr);
  }
  if (err) std::rethrow_exception(err);
}

void ThreadPool::parallel_for_dynamic(std::size_t n, std::size_t grain,
                                      const RangeFn& fn,
                                      const CancelToken* cancel) {
  if (n == 0) return;
  if (cancel != nullptr && cancel->cancelled()) return;
  if (grain == 0) grain = 1;
  if (tl_in_chunk) {
    // Nested call from inside a chunk: helpers would queue behind this very
    // thread, so run the whole range inline on the caller's lane (chunked,
    // so cancellation still takes effect between grains).
    for (std::size_t b = 0; b < n; b += grain) {
      if (cancel != nullptr && cancel->cancelled()) return;
      fn(b, std::min(n, b + grain), tl_lane);
    }
    return;
  }
  const std::size_t chunks = (n + grain - 1) / grain;
  if (lanes_ < 2 || chunks < 2) {
    tl_in_chunk = true;
    tl_lane = 0;
    for (std::size_t b = 0; b < n; b += grain) {
      if (cancel != nullptr && cancel->cancelled()) break;
      try {
        fn(b, std::min(n, b + grain), 0);
      } catch (...) {
        tl_in_chunk = false;
        throw;
      }
    }
    tl_in_chunk = false;
    return;
  }

  struct State {
    std::atomic<std::size_t> cursor{0};
    std::mutex mu;
    std::condition_variable cv;
    std::size_t helpers_done = 0;
    std::exception_ptr error;
  };
  auto st = std::make_shared<State>();

  // Chunk loop every lane runs. `fn` is captured by pointer: the caller
  // blocks below until every helper has signalled, so the reference is safe.
  const RangeFn* body = &fn;
  auto drive = [st, body, n, grain, cancel](std::size_t lane) {
    tl_in_chunk = true;
    tl_lane = lane;
    for (;;) {
      if (cancel != nullptr && cancel->cancelled()) break;
      const std::size_t b = st->cursor.fetch_add(grain, std::memory_order_relaxed);
      if (b >= n) break;
      const std::size_t e = std::min(n, b + grain);
      try {
        (*body)(b, e, lane);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lk(st->mu);
          if (!st->error) st->error = std::current_exception();
        }
        st->cursor.store(n, std::memory_order_relaxed);  // cancel the rest
      }
    }
    tl_in_chunk = false;
  };

  const std::size_t helpers = std::min(lanes_ - 1, chunks - 1);
  for (std::size_t h = 0; h < helpers; ++h) {
    submit([st, drive, h] {
      drive(h + 1);
      {
        std::lock_guard<std::mutex> lk(st->mu);
        ++st->helpers_done;
      }
      st->cv.notify_all();
    });
  }
  drive(0);

  // Wait for the helpers, help-running queued tasks meanwhile: if this call
  // came from a submitted task, our own helpers may sit in this thread's
  // deque, and blocking outright would deadlock the pool.
  std::unique_lock<std::mutex> lk(st->mu);
  while (st->helpers_done < helpers) {
    lk.unlock();
    if (!help_run_one(deques_.size())) {
      lk.lock();
      st->cv.wait_for(lk, std::chrono::milliseconds(1),
                      [&] { return st->helpers_done >= helpers; });
    } else {
      lk.lock();
    }
  }
  if (st->error) std::rethrow_exception(st->error);
}

}  // namespace motsim
