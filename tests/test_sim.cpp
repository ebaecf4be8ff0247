// Unit tests for the discrete-event engine and fibers.
#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
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
