// Unit tests for the deterministic fiber backend (sync/sim_backend.hpp):
// scheduling, virtual time, the cooperative primitives, and the seed →
// schedule-digest determinism contract the schedule explorer relies on.
// This binary links robmon_sim, so sync::Semaphore / CheckerGate / Gate are
// the backend-ported versions running on fibers.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sync/backend.hpp"
#include "sync/gate.hpp"
#include "sync/semaphore.hpp"
#include "sync/sim_backend.hpp"

namespace robmon {
namespace {

using sync::SchedulePolicy;
using sync::SimScheduler;

TEST(SimSchedulerTest, RunsAllFibersToCompletion) {
  SimScheduler sched;
  int ran = 0;
  sched.spawn([&] { ++ran; });
  sched.spawn([&] { ++ran; });
  sched.spawn([&] { ++ran; });
  EXPECT_EQ(sched.run(), SimScheduler::StopReason::kAllDone);
  sched.rethrow_any_failure();
  EXPECT_EQ(ran, 3);
  EXPECT_EQ(sched.live_count(), 0u);
}

TEST(SimSchedulerTest, FifoPolicyIsRoundRobin) {
  SimScheduler sched({.policy = SchedulePolicy::kFifo});
  std::vector<int> order;
  for (int id = 0; id < 2; ++id) {
    sched.spawn([&, id] {
      for (int round = 0; round < 2; ++round) {
        order.push_back(id);
        sched.yield_fiber();
      }
    });
  }
  EXPECT_EQ(sched.run(), SimScheduler::StopReason::kAllDone);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 0, 1}));
}

TEST(SimSchedulerTest, VirtualTimeAdvancesOneTickPerStep) {
  SimScheduler sched({.tick_ns = 500, .policy = SchedulePolicy::kFifo});
  sched.spawn([&] {
    for (int i = 0; i < 3; ++i) {
      sched.yield_fiber();
    }
  });
  EXPECT_EQ(sched.run(), SimScheduler::StopReason::kAllDone);
  // 3 yields + the final resume that completes the fiber = 4 steps.
  EXPECT_EQ(sched.steps(), 4u);
  EXPECT_EQ(sched.now(), 4 * 500);
}

TEST(SimSchedulerTest, MaxStepsBudgetStopsTheRun) {
  SimScheduler sched;
  sched.spawn([&] {
    for (;;) {
      sched.yield_fiber();
    }
  });
  EXPECT_EQ(sched.run(10), SimScheduler::StopReason::kMaxSteps);
  EXPECT_EQ(sched.steps(), 10u);
  EXPECT_EQ(sched.live_count(), 1u);
}

TEST(SimSchedulerTest, VirtualSleepAdvancesClockWithoutWallTime) {
  SimScheduler sched;
  util::TimeNs woke_at = -1;
  sched.spawn([&] {
    sync::backend_sleep_for(5 * util::kSecond);
    woke_at = sync::backend_now();
  });
  EXPECT_EQ(sched.run(), SimScheduler::StopReason::kAllDone);
  EXPECT_GE(woke_at, 5 * util::kSecond);
}

TEST(SimSchedulerTest, DeadlockedFibersReportQuiescent) {
  SimScheduler sched({.policy = SchedulePolicy::kFifo});
  sync::SimMutex a;
  sync::SimMutex b;
  sched.spawn([&] {
    a.lock();
    sched.yield_fiber();
    b.lock();  // never acquired
    b.unlock();
    a.unlock();
  });
  sched.spawn([&] {
    b.lock();
    sched.yield_fiber();
    a.lock();  // never acquired
    a.unlock();
    b.unlock();
  });
  EXPECT_EQ(sched.run(), SimScheduler::StopReason::kQuiescent);
  EXPECT_EQ(sched.live_count(), 2u);
}

TEST(SimSchedulerTest, MutexProvidesMutualExclusion) {
  SimScheduler sched({.seed = 7});
  sync::SimMutex mu;
  int in_section = 0;
  int max_in_section = 0;
  int total = 0;
  for (int i = 0; i < 8; ++i) {
    sched.spawn([&] {
      for (int j = 0; j < 10; ++j) {
        mu.lock();
        max_in_section = std::max(max_in_section, ++in_section);
        sched.yield_fiber();  // tempt another fiber into the section
        --in_section;
        ++total;
        mu.unlock();
      }
    });
  }
  EXPECT_EQ(sched.run(), SimScheduler::StopReason::kAllDone);
  EXPECT_EQ(max_in_section, 1);
  EXPECT_EQ(total, 80);
}

TEST(SimSchedulerTest, CondVarNotifyAndTimedWait) {
  SimScheduler sched;
  sync::SimMutex mu;
  sync::SimCondVar cv;
  bool ready = false;
  bool waiter_saw_ready = false;
  bool timed_out = false;
  sched.spawn([&] {
    std::unique_lock<sync::SimMutex> lock(mu);
    cv.wait(lock, [&] { return ready; });
    waiter_saw_ready = ready;
  });
  sched.spawn([&] {
    // Nobody ever sets this condition: the timed wait must ride the virtual
    // clock to its deadline (the scheduler jumps time when all are parked).
    std::unique_lock<sync::SimMutex> lock(mu);
    sync::SimCondVar idle_cv;
    timed_out = !idle_cv.wait_for(lock, std::chrono::milliseconds(50),
                                  [] { return false; });
  });
  sched.spawn([&] {
    std::unique_lock<sync::SimMutex> lock(mu);
    ready = true;
    cv.notify_all();
  });
  EXPECT_EQ(sched.run(), SimScheduler::StopReason::kAllDone);
  sched.rethrow_any_failure();
  EXPECT_TRUE(waiter_saw_ready);
  EXPECT_TRUE(timed_out);
  EXPECT_GE(sched.now(), 50 * util::kMillisecond);
}

TEST(SimSchedulerTest, SimThreadJoinsLikeStdThread) {
  SimScheduler sched;
  std::vector<int> order;
  sched.spawn([&] {
    sync::BackendThread worker([&] {
      sync::backend_sleep_for(util::kMillisecond);
      order.push_back(1);
    });
    worker.join();
    order.push_back(2);
  });
  EXPECT_EQ(sched.run(), SimScheduler::StopReason::kAllDone);
  sched.rethrow_any_failure();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SimSchedulerTest, SemaphorePoisonReleasesParkedFiber) {
  SimScheduler sched;
  sync::Semaphore sem(0);
  sync::AcquireResult result = sync::AcquireResult::kAcquired;
  sched.spawn([&] { result = sem.acquire(); });
  sched.spawn([&] { sem.poison(); });
  EXPECT_EQ(sched.run(), SimScheduler::StopReason::kAllDone);
  EXPECT_EQ(result, sync::AcquireResult::kPoisoned);
}

TEST(SimSchedulerTest, CheckerGateExclusiveWaitsForSharedDrain) {
  SimScheduler sched({.policy = SchedulePolicy::kFifo});
  sync::CheckerGate gate;
  std::vector<std::string> order;
  sched.spawn([&] {
    gate.enter_shared();
    sched.yield_fiber();
    sched.yield_fiber();
    order.push_back("shared-exit");
    gate.exit_shared();
  });
  sched.spawn([&] {
    sched.yield_fiber();  // let the shared holder in first
    gate.enter_exclusive();
    order.push_back("exclusive");
    gate.exit_exclusive();
  });
  EXPECT_EQ(sched.run(), SimScheduler::StopReason::kAllDone);
  EXPECT_EQ(order, (std::vector<std::string>{"shared-exit", "exclusive"}));
}

TEST(SimSchedulerTest, SameSeedSameDigestDifferentSeedDiverges) {
  const auto digest_for = [](std::uint64_t seed) {
    SimScheduler sched({.policy = SchedulePolicy::kRandom, .seed = seed});
    sync::SimMutex mu;
    long counter = 0;
    for (int i = 0; i < 6; ++i) {
      sched.spawn([&] {
        for (int j = 0; j < 20; ++j) {
          mu.lock();
          ++counter;
          mu.unlock();
          sched.yield_fiber();
        }
      });
    }
    EXPECT_EQ(sched.run(), SimScheduler::StopReason::kAllDone);
    return sched.schedule_digest();
  };
  const std::uint64_t first = digest_for(1234);
  const std::uint64_t again = digest_for(1234);
  EXPECT_EQ(first, again);
  // At least one of a handful of other seeds must take a different schedule.
  bool diverged = false;
  for (std::uint64_t seed = 1; seed <= 4 && !diverged; ++seed) {
    diverged = digest_for(seed) != first;
  }
  EXPECT_TRUE(diverged);
}

TEST(SimSchedulerTest, ExceptionInFiberIsCapturedAndRethrown) {
  SimScheduler sched;
  sched.spawn([] { throw std::runtime_error("boom"); });
  EXPECT_EQ(sched.run(), SimScheduler::StopReason::kAllDone);
  EXPECT_THROW(sched.rethrow_any_failure(), std::runtime_error);
}

}  // namespace
}  // namespace robmon
