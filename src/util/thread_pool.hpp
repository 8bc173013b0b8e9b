// Small work-stealing thread pool for fault-level parallelism.
//
// The pool owns `num_threads - 1` worker threads; the thread that calls
// parallel_for_dynamic() is the remaining lane, so a pool constructed with
// one thread spawns nothing and runs everything inline — the serial code
// path is byte-for-byte the single-threaded one, which is what makes
// `--threads 1` bit-identical to the pre-pool behavior.
//
// Structure: one deque per worker (own tasks popped LIFO from the back,
// steals taken FIFO from the front of a victim), all guarded by a single
// pool mutex — contention is irrelevant at our task granularity, where a
// task is an entire dynamic-chunk loop over dozens of faults, and the
// single lock keeps the sleeping/wakeup protocol trivially correct.
//
// parallel_for_dynamic() hands out index chunks through a shared atomic
// cursor (dynamic scheduling: MOT cost per fault is wildly skewed, so static
// sharding would leave threads idle behind one expensive fault). The first
// exception thrown by any lane cancels the remaining chunks and is rethrown
// on the calling thread. A lane index in [0, num_threads) is passed to the
// body so callers can keep per-thread scratch (simulators, RNG state)
// without any sharing.
//
// Nested-submit deadlock guard: a parallel_for_dynamic() issued from inside
// a running chunk executes inline on the caller's lane (helpers queued
// behind a blocked worker could never run it), and the outer caller
// help-runs queued tasks while waiting for its helpers instead of blocking,
// so a worker waiting on its own queue cannot deadlock.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/deadline.hpp"

namespace motsim {

/// Maps a requested thread count to an effective one: 0 means "every CPU
/// this process may run on" (the sched_getaffinity mask, so taskset and
/// container cpusets are honoured; std::thread::hardware_concurrency where
/// the mask is unavailable; at least 1), anything else is taken literally.
std::size_t resolve_thread_count(std::size_t requested);

class ThreadPool {
 public:
  /// `num_threads` lanes total, including the calling thread
  /// (resolve_thread_count applies). One lane means fully inline execution.
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return lanes_; }

  /// Body invoked as fn(begin, end, lane): half-open index chunk plus the
  /// executing lane in [0, num_threads()). Chunks are claimed dynamically in
  /// units of `grain` indices. Blocks until every index is processed;
  /// rethrows the first exception any lane raised.
  ///
  /// `cancel` (optional) makes the loop cooperatively cancellable: once the
  /// token fires, no lane claims another chunk (in-flight chunks finish).
  /// Cancellation is not an error — the call returns normally with the
  /// remaining chunks never run, so a caller that needs one result per index
  /// must account for the tail itself (as MotBatchRunner does by marking
  /// skipped faults Unresolved{Cancelled} instead of cancelling the loop).
  using RangeFn = std::function<void(std::size_t, std::size_t, std::size_t)>;
  void parallel_for_dynamic(std::size_t n, std::size_t grain, const RangeFn& fn,
                            const CancelToken* cancel = nullptr);

  /// Enqueues a fire-and-forget task on the least recently used worker
  /// deque. Exceptions are held and rethrown by wait_idle().
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished, then rethrows the
  /// first exception any of them raised.
  void wait_idle();

 private:
  void worker_loop(std::size_t self);
  /// Pops one queued task (own deque back first, then steals a victim's
  /// front) and runs it. Returns false when every deque was empty.
  bool help_run_one(std::size_t self);

  std::size_t lanes_;
  std::vector<std::deque<std::function<void()>>> deques_;  // guarded by mu_
  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable work_cv_;  // workers: "a deque may be non-empty"
  std::condition_variable idle_cv_;  // wait_idle: "inflight_ hit zero"
  std::size_t inflight_ = 0;         // queued + running tasks
  std::size_t next_ = 0;             // round-robin submit target
  bool stop_ = false;
  std::exception_ptr first_error_;   // from submitted tasks
};

}  // namespace motsim
