// Tests for the work-stealing thread pool: full index coverage under
// dynamic chunking, lane-scoped scratch, work stealing across deques,
// exception propagation, and the nested-submit deadlock guards.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

#if defined(__linux__)
#include <sched.h>
#endif

namespace motsim {
namespace {

TEST(ResolveThreadCount, ZeroMeansHardware) {
  EXPECT_GE(resolve_thread_count(0), 1u);
  EXPECT_EQ(resolve_thread_count(1), 1u);
  EXPECT_EQ(resolve_thread_count(5), 5u);
}

#if defined(__linux__)
TEST(ResolveThreadCount, ZeroHonoursTheAffinityMask) {
  // Pin this thread to one CPU of its mask: `0` must resolve to 1 lane, not
  // to the machine's core count.
  cpu_set_t saved;
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int cpu = 0;
  while (!CPU_ISSET(cpu, &saved)) ++cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const std::size_t pinned = resolve_thread_count(0);
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(pinned, 1u);
  EXPECT_EQ(resolve_thread_count(0), static_cast<std::size_t>(CPU_COUNT(&saved)));
}
#endif

TEST(ThreadPool, SingleLaneRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> hits(16, 0);
  pool.parallel_for_dynamic(hits.size(), 4,
                            [&](std::size_t b, std::size_t e, std::size_t lane) {
                              EXPECT_EQ(std::this_thread::get_id(), caller);
                              EXPECT_EQ(lane, 0u);
                              for (std::size_t i = b; i < e; ++i) ++hits[i];
                            });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  for (std::size_t threads : {2u, 4u, 8u}) {
    for (std::size_t grain : {1u, 3u, 64u}) {
      ThreadPool pool(threads);
      constexpr std::size_t kN = 257;  // deliberately not a grain multiple
      std::vector<std::atomic<int>> hits(kN);
      pool.parallel_for_dynamic(
          kN, grain, [&](std::size_t b, std::size_t e, std::size_t lane) {
            EXPECT_LT(lane, threads);
            for (std::size_t i = b; i < e; ++i) {
              hits[i].fetch_add(1, std::memory_order_relaxed);
            }
          });
      for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
    }
  }
}

TEST(ThreadPool, EmptyRangeIsANoop) {
  ThreadPool pool(4);
  bool called = false;
  pool.parallel_for_dynamic(0, 1, [&](std::size_t, std::size_t, std::size_t) {
    called = true;
  });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, LaneScratchIsNeverShared) {
  constexpr std::size_t kThreads = 4;
  ThreadPool pool(kThreads);
  // One counter per lane; concurrent unsynchronized increments to the same
  // counter would be a data race, so per-lane sums being exact proves each
  // lane only touched its own slot (TSan-visible if violated).
  std::vector<std::size_t> per_lane(kThreads, 0);
  constexpr std::size_t kN = 1000;
  pool.parallel_for_dynamic(kN, 7,
                            [&](std::size_t b, std::size_t e, std::size_t lane) {
                              per_lane[lane] += e - b;
                            });
  EXPECT_EQ(std::accumulate(per_lane.begin(), per_lane.end(), std::size_t{0}),
            kN);
}

// A task queued on a busy worker's deque must be stolen by an idle worker:
// worker 0 blocks inside task A until task C (queued behind A's lane) has
// run, which can only happen via a steal. A broken steal path deadlocks
// here (caught by the ctest timeout).
TEST(ThreadPool, IdleWorkerStealsFromBusyWorkersDeque) {
  ThreadPool pool(3);  // caller + 2 workers
  std::atomic<bool> a_started{false};
  std::atomic<bool> c_ran{false};
  pool.submit([&] {  // lands on worker deque 0
    a_started.store(true);
    while (!c_ran.load()) std::this_thread::yield();
  });
  while (!a_started.load()) std::this_thread::yield();
  pool.submit([] {});                       // deque 1: keeps worker 1 honest
  pool.submit([&] { c_ran.store(true); });  // deque 0, behind the blocked A
  pool.wait_idle();
  EXPECT_TRUE(c_ran.load());
}

TEST(ThreadPool, ParallelForPropagatesFirstException) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.parallel_for_dynamic(100, 1,
                                [&](std::size_t b, std::size_t, std::size_t) {
                                  ran.fetch_add(1);
                                  if (b == 17) throw std::runtime_error("boom");
                                }),
      std::runtime_error);
  EXPECT_GE(ran.load(), 1);
  // The pool survives and is reusable after an exception.
  std::atomic<int> after{0};
  pool.parallel_for_dynamic(10, 1, [&](std::size_t, std::size_t, std::size_t) {
    after.fetch_add(1);
  });
  EXPECT_EQ(after.load(), 10);
}

TEST(ThreadPool, SubmittedTaskExceptionRethrownByWaitIdle) {
  for (std::size_t threads : {1u, 3u}) {  // inline path and worker path
    ThreadPool pool(threads);
    pool.submit([] { throw std::runtime_error("task failed"); });
    EXPECT_THROW(pool.wait_idle(), std::runtime_error);
    // The error slot is cleared once consumed.
    pool.submit([] {});
    EXPECT_NO_THROW(pool.wait_idle());
  }
}

// parallel_for_dynamic from inside a submitted task: the caller's helpers
// can land on its own deque, so the caller must help-run queued tasks while
// waiting instead of blocking (a plain block deadlocks a 2-lane pool).
TEST(ThreadPool, NestedSubmitDoesNotDeadlock) {
  ThreadPool pool(2);  // exactly one worker: worst case for self-queued helpers
  std::atomic<int> inner{0};
  pool.submit([&] {
    pool.parallel_for_dynamic(64, 4,
                              [&](std::size_t b, std::size_t e, std::size_t) {
                                inner.fetch_add(static_cast<int>(e - b));
                              });
  });
  pool.wait_idle();
  EXPECT_EQ(inner.load(), 64);
}

// parallel_for_dynamic from inside a chunk body runs inline on the caller's
// lane — helpers queued behind a blocked worker could never execute.
TEST(ThreadPool, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  std::atomic<int> inner{0};
  pool.parallel_for_dynamic(8, 1, [&](std::size_t, std::size_t,
                                      std::size_t lane) {
    pool.parallel_for_dynamic(16, 4, [&](std::size_t b, std::size_t e,
                                         std::size_t nested_lane) {
      EXPECT_EQ(nested_lane, lane);  // inline: same lane as the outer chunk
      inner.fetch_add(static_cast<int>(e - b));
    });
  });
  pool.wait_idle();
  EXPECT_EQ(inner.load(), 8 * 16);
}

// Serial (single-lane) cancellation is exact: the token is checked before
// every chunk, so cancelling inside chunk j means chunks 0..j ran and
// nothing after.
TEST(ThreadPool, CancelOnSingleLaneStopsAtTheNextChunkBoundary) {
  ThreadPool pool(1);
  CancelToken cancel;
  std::vector<int> hits(100, 0);
  pool.parallel_for_dynamic(
      hits.size(), 10,
      [&](std::size_t b, std::size_t e, std::size_t) {
        for (std::size_t i = b; i < e; ++i) ++hits[i];
        if (b == 20) cancel.cancel();  // mid-range: chunks 0..2 complete
      },
      &cancel);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], i < 30 ? 1 : 0) << i;
  }
}

// Multi-lane cancellation: once the token fires no lane claims another
// chunk, the in-flight chunks finish (no index is half-done), and no index
// runs twice or is resurrected later.
TEST(ThreadPool, CancelMidRunStopsPromptlyWithoutDuplicates) {
  ThreadPool pool(4);
  CancelToken cancel;
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  std::atomic<std::size_t> processed{0};
  pool.parallel_for_dynamic(
      kN, 1,
      [&](std::size_t b, std::size_t e, std::size_t) {
        for (std::size_t i = b; i < e; ++i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
        }
        if (processed.fetch_add(e - b) + (e - b) >= 50) cancel.cancel();
      },
      &cancel);
  std::size_t total = 0;
  for (std::size_t i = 0; i < kN; ++i) {
    const int h = hits[i].load();
    EXPECT_LE(h, 1) << "index " << i << " ran twice";
    total += static_cast<std::size_t>(h);
  }
  EXPECT_GE(total, 50u);
  // Prompt: only chunks claimed before the flag became visible may still
  // run — a handful, not the remaining ~9950.
  EXPECT_LE(total, 150u);
}

TEST(ThreadPool, PreCancelledTokenRunsNothing) {
  for (std::size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    CancelToken cancel;
    cancel.cancel();
    std::atomic<int> ran{0};
    pool.parallel_for_dynamic(
        64, 4,
        [&](std::size_t, std::size_t, std::size_t) { ran.fetch_add(1); },
        &cancel);
    EXPECT_EQ(ran.load(), 0);
  }
}

// The nested-inline path must honor the token between grains too.
TEST(ThreadPool, CancelInsideNestedInlineLoop) {
  ThreadPool pool(2);
  CancelToken cancel;
  std::atomic<int> inner{0};
  pool.submit([&] {
    pool.parallel_for_dynamic(
        100, 10,
        [&](std::size_t b, std::size_t e, std::size_t) {
          inner.fetch_add(static_cast<int>(e - b));
          if (b == 0) cancel.cancel();
        },
        &cancel);
  });
  pool.wait_idle();
  EXPECT_GT(inner.load(), 0);
  EXPECT_LT(inner.load(), 100);
}

TEST(ThreadPool, DynamicChunkingBalancesSkewedCosts) {
  // One expensive index plus many cheap ones: with grain 1 every lane keeps
  // claiming work, so total coverage stays exact even under heavy skew.
  ThreadPool pool(4);
  std::atomic<int> covered{0};
  pool.parallel_for_dynamic(64, 1,
                            [&](std::size_t b, std::size_t, std::size_t) {
                              if (b == 0) {
                                std::this_thread::sleep_for(
                                    std::chrono::milliseconds(20));
                              }
                              covered.fetch_add(1);
                            });
  EXPECT_EQ(covered.load(), 64);
}

}  // namespace
}  // namespace motsim
