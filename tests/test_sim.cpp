// Unit tests for the discrete-event engine and fibers.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cfenv>
#include <csignal>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "sim/engine.h"
#include "sim/fiber.h"
#include "support/error.h"
#include "support/parallel.h"

namespace swapp::sim {
namespace {

TEST(Fiber, RunsBodyToCompletion) {
  int steps = 0;
  Fiber f([&] {
    ++steps;
    Fiber::yield();
    ++steps;
  });
  EXPECT_FALSE(f.finished());
  f.resume();
  EXPECT_EQ(steps, 1);
  EXPECT_FALSE(f.finished());
  f.resume();
  EXPECT_EQ(steps, 2);
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, PropagatesExceptions) {
  Fiber f([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.resume(), std::runtime_error);
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, InFiberReflectsContext) {
  EXPECT_FALSE(Fiber::in_fiber());
  bool inside = false;
  Fiber f([&] { inside = Fiber::in_fiber(); });
  f.resume();
  EXPECT_TRUE(inside);
  EXPECT_FALSE(Fiber::in_fiber());
}

TEST(Fiber, ExceptionAfterSeveralYieldsReachesTheResumer) {
  int steps = 0;
  Fiber f([&] {
    for (; steps < 3; ++steps) Fiber::yield();
    throw std::runtime_error("late boom");
  });
  for (int i = 0; i < 3; ++i) EXPECT_NO_THROW(f.resume());
  EXPECT_FALSE(f.finished());
  EXPECT_THROW(f.resume(), std::runtime_error);
  EXPECT_EQ(steps, 3);
  EXPECT_TRUE(f.finished());
  EXPECT_FALSE(Fiber::in_fiber());
}

TEST(Fiber, BodyFinishesWithoutYieldingOnAnAlignedStack) {
  std::uintptr_t local = 0;
  Fiber f([&] {
    alignas(16) volatile char slot[16] = {};
    local = reinterpret_cast<std::uintptr_t>(&slot[0]);
  });
  f.resume();
  EXPECT_TRUE(f.finished());
  // The ABI's 16-byte stack alignment holds inside the fiber.
  EXPECT_NE(local, 0u);
  EXPECT_EQ(local % 16, 0u);
}

TEST(Fiber, ResumingAFinishedFiberFails) {
  Fiber f([] {});
  f.resume();
  ASSERT_TRUE(f.finished());
  EXPECT_THROW(f.resume(), InternalError);
  EXPECT_THROW(Fiber::yield(), InternalError);  // not inside a fiber
}

/// Recurses with 1 KiB frames until the frames span `bytes` of stack below
/// `origin`; returns the depth reached.
[[gnu::noinline]] int recurse_until(std::uintptr_t origin, std::size_t bytes) {
  volatile char frame[1024];
  frame[0] = 1;
  const std::size_t used = origin - reinterpret_cast<std::uintptr_t>(&frame[0]);
  const int deeper = used >= bytes ? 0 : recurse_until(origin, bytes) + 1;
  return deeper + frame[0] - 1;
}

TEST(Fiber, DeepRecursionFitsTheDefaultStack) {
  constexpr std::size_t kUse = 200 * 1024;
  static_assert(kUse < Fiber::kDefaultStackBytes);
  int depth = 0;
  Fiber f([&] {
    volatile char origin = 0;
    depth = recurse_until(reinterpret_cast<std::uintptr_t>(&origin), kUse);
    Fiber::yield();
    depth += recurse_until(reinterpret_cast<std::uintptr_t>(&origin), kUse);
  });
  f.resume();
  EXPECT_GE(depth, 100);
  f.resume();
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, WavesBeyondThePoolRunAndADirtyStackIsReused) {
  // Each wave keeps more fibers alive at once than a thread's pool holds.
  constexpr int kFibers = 300;
  for (int wave = 0; wave < 2; ++wave) {
    std::vector<int> steps(kFibers, 0);
    std::vector<std::unique_ptr<Fiber>> fibers;
    for (int i = 0; i < kFibers; ++i) {
      fibers.push_back(std::make_unique<Fiber>([&steps, i] {
        ++steps[static_cast<std::size_t>(i)];
        Fiber::yield();
        steps[static_cast<std::size_t>(i)] += i;
      }));
    }
    for (auto& fiber : fibers) fiber->resume();
    for (auto& fiber : fibers) fiber->resume();
    for (int i = 0; i < kFibers; ++i) {
      ASSERT_TRUE(fibers[static_cast<std::size_t>(i)]->finished());
      ASSERT_EQ(steps[static_cast<std::size_t>(i)], 1 + i) << "wave " << wave;
    }
  }
  // A released stack goes back to the pool, and the next fiber takes it with
  // whatever a deep recursion left on it.
  constexpr std::size_t kUse = 200 * 1024;
  std::uintptr_t dirty_top = 0;
  {
    Fiber dirty([&] {
      volatile char origin = 0;
      dirty_top = reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
      EXPECT_GE(recurse_until(reinterpret_cast<std::uintptr_t>(&origin), kUse),
                100);
    });
    dirty.resume();
    ASSERT_TRUE(dirty.finished());
  }
  std::uintptr_t reused_top = 0;
  int depth = 0;
  Fiber reused([&] {
    volatile char origin = 0;
    reused_top = reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
    Fiber::yield();
    depth = recurse_until(reinterpret_cast<std::uintptr_t>(&origin), kUse);
  });
  reused.resume();
  reused.resume();
  EXPECT_TRUE(reused.finished());
  EXPECT_GE(depth, 100);
  // Both bodies' frames sit in the top page of one stack.
  EXPECT_EQ(reused_top / 4096, dirty_top / 4096);
}

TEST(Fiber, ImpossibleStackSizesFailWithTypedErrors) {
  const auto body = [] {};
  EXPECT_THROW(Fiber(body, 1024), InvalidArgument);
  EXPECT_THROW(Fiber(body, SIZE_MAX), InvalidArgument);
  // Larger than any address space: the mapping itself fails.
  EXPECT_THROW(Fiber(body, std::size_t{1} << 62), std::system_error);
  // An odd size is rounded up to whole pages and runs.
  bool ran = false;
  Fiber odd([&] { ran = true; }, 100 * 1024 + 1);
  odd.resume();
  EXPECT_TRUE(ran);
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SWAPP_TEST_ASAN_OR_TSAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SWAPP_TEST_ASAN_OR_TSAN 1
#endif
#endif

#ifndef SWAPP_TEST_ASAN_OR_TSAN
constexpr int kFaultInGuard = 3;
constexpr int kFaultElsewhere = 4;
// The page just below the overflowing fiber's stack: [lo, hi).
std::uintptr_t g_guard_lo = 0;
std::uintptr_t g_guard_hi = 0;

void exit_with_fault_site(int, siginfo_t* info, void*) {
  const auto addr = reinterpret_cast<std::uintptr_t>(info->si_addr);
  _exit(addr >= g_guard_lo && addr < g_guard_hi ? kFaultInGuard
                                                 : kFaultElsewhere);
}

/// Recurses past the end of a default-size fiber stack and exits with
/// kFaultInGuard only if the first fault hits the page just below it.
[[noreturn]] void overflow_a_fiber_stack() {
  static char handler_stack[64 * 1024];
  stack_t alt{};
  alt.ss_sp = handler_stack;
  alt.ss_size = sizeof handler_stack;
  sigaltstack(&alt, nullptr);
  struct sigaction action{};
  action.sa_sigaction = exit_with_fault_site;
  action.sa_flags = SA_SIGINFO | SA_ONSTACK;
  sigaction(SIGSEGV, &action, nullptr);
  sigaction(SIGBUS, &action, nullptr);
  Fiber f([] {
    const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
    // The body's frame sits in the top page of the page-aligned stack.
    const auto frame =
        reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
    const std::uintptr_t top = (frame / page + 1) * page;
    g_guard_hi = top - Fiber::kDefaultStackBytes;
    g_guard_lo = g_guard_hi - page;
    // Ask for writable memory over the guard page and below it.  The hint
    // is honoured only if that range is free, that is, if there is no guard.
    constexpr std::size_t kFiller = 64 * 1024;
    mmap(reinterpret_cast<void*>(g_guard_hi - kFiller), kFiller,
         PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    volatile char origin = 0;
    recurse_until(reinterpret_cast<std::uintptr_t>(&origin),
                  2 * Fiber::kDefaultStackBytes);
  });
  f.resume();
  _exit(0);  // the recursion returned: nothing stopped it
}
#endif

TEST(FiberDeathTest, OverflowDiesAtTheGuardPage) {
#ifdef SWAPP_TEST_ASAN_OR_TSAN
  GTEST_SKIP() << "ASan and TSan keep their own stack bookkeeping";
#else
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  // 1 KiB frames touch every page, so the recursion cannot step over the
  // guard page below the stack.
  EXPECT_EXIT(overflow_a_fiber_stack(), testing::ExitedWithCode(kFaultInGuard),
              "");
#endif
}

/// 1/3 in the current rounding mode (volatile operands defeat folding).
[[gnu::noinline]] double one_third() {
  volatile double one = 1.0;
  volatile double three = 3.0;
  return one / three;
}

TEST(Fiber, RoundingModeStaysWithItsContext) {
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  const double nearest = one_third();
  std::vector<double> inside;
  int inside_mode = 0;
  Fiber f([&] {
    std::fesetround(FE_UPWARD);
    inside.push_back(one_third());
    Fiber::yield();
    inside_mode = std::fegetround();
    inside.push_back(one_third());
    std::fesetround(FE_TONEAREST);
  });
  f.resume();
  // The fiber's mode did not leak into the caller...
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  EXPECT_EQ(one_third(), nearest);
  f.resume();
  // ...and came back with the fiber.
  EXPECT_EQ(inside_mode, FE_UPWARD);
  ASSERT_EQ(inside.size(), 2u);
  EXPECT_GT(inside[0], nearest);
  EXPECT_EQ(inside[1], inside[0]);
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
}

TEST(Fiber, TwoFibersPingPongInStrictAlternation) {
  constexpr int kRounds = 1000;
  int turn = 0;  // whose move it is: 0 or 1
  std::string trace;
  auto player = [&](int me) {
    return [&, me] {
      for (int i = 0; i < kRounds; ++i) {
        ASSERT_EQ(turn, me);
        trace.push_back(static_cast<char>('a' + me));
        turn = 1 - me;
        Fiber::yield();
      }
    };
  };
  Fiber a(player(0));
  Fiber b(player(1));
  while (!a.finished() || !b.finished()) {
    a.resume();
    b.resume();
  }
  ASSERT_EQ(trace.size(), 2u * kRounds);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    ASSERT_EQ(trace[i], i % 2 == 0 ? 'a' : 'b') << "at " << i;
  }
}

TEST(Fiber, FibersRunOnSeveralPoolThreadsAtOnce) {
  struct ThreadCountGuard {
    ~ThreadCountGuard() { set_thread_count(0); }
  } guard;
  set_thread_count(4);
  constexpr std::size_t kJobs = 16;
  constexpr int kFibers = 8;
  constexpr int kSteps = 200;
  std::vector<long> sums(kJobs, 0);
  parallel_for(kJobs, [&](std::size_t job) {
    // Each job schedules its own fibers round-robin on its pool thread.
    std::vector<std::unique_ptr<Fiber>> fibers;
    long sum = 0;
    for (int id = 0; id < kFibers; ++id) {
      fibers.push_back(std::make_unique<Fiber>([&sum, id] {
        for (int step = 0; step < kSteps; ++step) {
          sum += id;
          Fiber::yield();
        }
      }));
    }
    for (bool running = true; running;) {
      running = false;
      for (auto& fiber : fibers) {
        if (fiber->finished()) continue;
        fiber->resume();
        running = true;
      }
    }
    EXPECT_FALSE(Fiber::in_fiber());
    sums[job] = sum;
  });
  for (const long sum : sums) {
    EXPECT_EQ(sum, long{kSteps} * kFibers * (kFibers - 1) / 2);
  }
}

TEST(Engine, EventsFireInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.spawn("b", [&](Process& p) {
    order.push_back(2);
    p.advance(2.0);
    order.push_back(4);
  }, 2.0);
  e.spawn("a", [&](Process&) { order.push_back(1); }, 1.0);
  e.spawn("c", [&](Process&) { order.push_back(3); }, 3.0);
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_DOUBLE_EQ(e.now(), 4.0);
}

TEST(Engine, EqualTimestampsFireFifo) {
  // Eight processes start at one timestamp in a shuffled label order, then
  // each advances to a second shared timestamp: both times they resume in
  // the order their resumes were scheduled, not by label or id.
  const std::vector<int> labels = {5, 2, 7, 0, 3, 6, 1, 4};
  Engine e;
  std::vector<int> order;
  for (const int label : labels) {
    e.spawn("p" + std::to_string(label), [&order, label](Process& p) {
      order.push_back(label);
      p.advance(1.0);
      order.push_back(label);
    }, 1.0);
  }
  e.run();
  std::vector<int> expected = labels;
  expected.insert(expected.end(), labels.begin(), labels.end());
  EXPECT_EQ(order, expected);
  EXPECT_DOUBLE_EQ(e.now(), 2.0);
}

TEST(Engine, RejectsPastEvents) {
  Engine e;
  bool late_ran = false;
  e.spawn("p", [&](Process& p) {
    EXPECT_THROW(e.spawn("late", [&](Process&) { late_ran = true; }, 1.0),
                 InvalidArgument);
    EXPECT_THROW(p.advance(-1.0), InvalidArgument);
  }, 5.0);
  e.run();
  EXPECT_FALSE(late_ran);
  EXPECT_EQ(e.live_process_count(), 0u);
}

TEST(Engine, UnblocksAtOneTimestampResumeInCallOrder) {
  constexpr int kWaiters = 64;
  Engine e;
  std::vector<Process*> waiters;
  std::vector<int> resumed;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.push_back(
        &e.spawn("w" + std::to_string(i), [&resumed, i](Process& p) {
          EXPECT_DOUBLE_EQ(p.block(), 1.0);
          resumed.push_back(i);
        }));
  }
  std::vector<int> calls;
  e.spawn("waker", [&](Process&) {
    // 37 is coprime with 64, so this visits every waiter once, shuffled.
    for (int k = 0; k < kWaiters; ++k) {
      const int i = (k * 37) % kWaiters;
      calls.push_back(i);
      waiters[static_cast<std::size_t>(i)]->unblock_at(1.0);
    }
  });
  e.run();
  EXPECT_EQ(resumed, calls);
  EXPECT_DOUBLE_EQ(e.now(), 1.0);
}

TEST(Engine, InterleavedTimestampsFireInTimeThenCallOrder) {
  constexpr Seconds kA = 1.0;
  constexpr Seconds kB = 2.0;
  using Resume = std::pair<Seconds, std::string>;
  Engine e;
  std::vector<Resume> calls;    // every scheduled resume, in call order
  std::vector<Resume> resumed;  // every resume, as it fired
  std::map<std::string, Process*> waiters;
  std::map<std::string, std::function<void()>> on_resume;
  const auto wake = [&](const std::string& name, Seconds when) {
    calls.emplace_back(when, name);
    waiters.at(name)->unblock_at(when);
  };
  for (const char* name :
       {"w0", "w1", "w2", "w3", "w4", "w5", "w6", "w7", "w8"}) {
    waiters[name] = &e.spawn(name, [&, name = std::string(name)](Process& p) {
      resumed.emplace_back(p.block(), name);
      if (on_resume.count(name) != 0) on_resume[name]();
    });
  }
  // w5 resumes first of its run, with w6 still queued behind it: w7 joins
  // the run while it drains.
  on_resume["w5"] = [&] { wake("w7", kA); };
  // Every run at kA has emptied and the newest run with it: w8 opens a new
  // run at kB behind w4's, which is still queued.
  on_resume["w1"] = [&] { wake("w8", kB); };
  e.spawn("d", [&](Process& p) {
    // Times A, B, A, A, B, A.
    wake("w0", kA);
    wake("w1", kB);
    wake("w2", kA);
    wake("w3", kA);
    wake("w4", kB);
    calls.emplace_back(kA, "d");
    p.advance(kA);
    resumed.emplace_back(p.engine().now(), "d");
    // d's own run has emptied: w5 opens a new run at kA and w6 joins it.
    wake("w5", kA);
    wake("w6", kA);
  });
  e.run();
  std::vector<Resume> expected = calls;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Resume& a, const Resume& b) {
                     return a.first < b.first;
                   });
  EXPECT_EQ(resumed, expected);
  ASSERT_EQ(resumed.size(), 10u);
  EXPECT_EQ(resumed[6], Resume(kA, "w7"));
  EXPECT_EQ(resumed.back(), Resume(kB, "w8"));
}

TEST(Engine, ProcessAdvancesClock) {
  Engine e;
  Seconds observed = -1.0;
  e.spawn("p", [&](Process& p) {
    p.advance(1.5);
    p.advance(0.5);
    observed = p.engine().now();
  });
  e.run();
  EXPECT_DOUBLE_EQ(observed, 2.0);
}

TEST(Engine, BlockAndUnblockAt) {
  Engine e;
  Seconds resumed_at = -1.0;
  Process& waiter = e.spawn("waiter", [&](Process& p) {
    p.block();
    resumed_at = p.engine().now();
  });
  e.spawn("waker", [&](Process& p) {
    p.advance(1.0);
    waiter.unblock_at(4.0);
  });
  e.run();
  EXPECT_DOUBLE_EQ(resumed_at, 4.0);
}

TEST(Engine, UnblockInPastClampsToNow) {
  Engine e;
  Seconds resumed_at = -1.0;
  Process& waiter = e.spawn("waiter", [&](Process& p) {
    p.block();
    resumed_at = p.engine().now();
  });
  e.spawn("waker", [&](Process& p) {
    p.advance(3.0);
    waiter.unblock_at(1.0);  // already in the past
  });
  e.run();
  EXPECT_DOUBLE_EQ(resumed_at, 3.0);
}

TEST(Engine, DeadlockDetection) {
  Engine e;
  e.spawn("stuck", [&](Process& p) { p.block(); });
  EXPECT_THROW(e.run(), InternalError);
}

TEST(Engine, ManyProcessesDeterministic) {
  const auto run_once = [] {
    Engine e;
    std::vector<std::uint32_t> finish_order;
    for (int i = 0; i < 64; ++i) {
      e.spawn("p" + std::to_string(i), [&, i](Process& p) {
        p.advance(((i * 7) % 13) * 0.1 + 0.05);
        finish_order.push_back(p.id());
      });
    }
    e.run();
    return finish_order;
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 64u);
}

TEST(Engine, ProcessExceptionPropagates) {
  Engine e;
  e.spawn("bad", [](Process& p) {
    p.advance(1.0);
    throw std::runtime_error("rank failed");
  });
  EXPECT_THROW(e.run(), std::runtime_error);
}

}  // namespace
}  // namespace swapp::sim
