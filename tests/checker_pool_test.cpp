// CheckerPool engine tests: synchronous checks without workers, deadline
// ordering across monitors with different cadences, concurrent
// register/unregister while traffic flows, per-monitor gate policies
// coexisting in one pool, and regression parity between a RobustMonitor's
// private one-thread pool and a shared pool on injected faults.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "core/detector.hpp"
#include "runtime/checker_pool.hpp"
#include "runtime/event_sink.hpp"
#include "runtime/hoare_monitor.hpp"
#include "util/clock.hpp"
#include "runtime/robust_monitor.hpp"
#include "workloads/allocator.hpp"
#include "workloads/bounded_buffer.hpp"
#include "workloads/loadgen.hpp"

namespace robmon::rt {
namespace {

using core::CollectingSink;
using core::FaultKind;
using core::MonitorSpec;
using core::RuleId;
using util::kMillisecond;

MonitorSpec relaxed_timers(MonitorSpec spec, util::TimeNs check_period) {
  spec.t_max = 5 * util::kSecond;
  spec.t_io = 5 * util::kSecond;
  spec.t_limit = 5 * util::kSecond;
  spec.check_period = check_period;
  return spec;
}

TEST(CheckerPoolTest, CheckNowNeedsNoWorkerThreads) {
  CheckerPool pool;
  CollectingSink sink;
  RobustMonitor::Options options;
  options.checker_pool = &pool;
  RobustMonitor monitor(
      relaxed_timers(MonitorSpec::manager("sync"), 20 * kMillisecond), sink,
      options);
  ASSERT_EQ(monitor.enter(1, "Op"), Status::kOk);
  monitor.exit(1);
  const auto stats = monitor.check_now();
  EXPECT_GT(stats.events, 0u);
  EXPECT_EQ(sink.count(), 0u);
  EXPECT_EQ(pool.thread_count(), 0u);  // never scheduled: no workers spawned
  EXPECT_EQ(pool.checks_executed(), 1u);
  // Ring-ingestion loss introspection: a drained, uncontended monitor log
  // lost nothing.
  EXPECT_EQ(pool.events_lost(), 0u);
}

// Regression: check_now() on an unregistered or just-removed MonitorId must
// return an empty CheckStats deterministically, never throw.  The schedule
// explorer (and any caller racing remove() against a checkpoint) probes ids
// that can vanish between its lookup and the call.
TEST(CheckerPoolTest, CheckNowOnRemovedOrUnknownIdReturnsEmpty) {
  CheckerPool pool;
  util::ManualClock clock(1000);
  HoareMonitor source(
      relaxed_timers(MonitorSpec::manager("stale"), 20 * kMillisecond), clock);
  const CheckerPool::MonitorId id = pool.add(source);
  ASSERT_EQ(source.enter(1, "Op"), Status::kOk);
  source.exit(1);
  EXPECT_GT(pool.check_now(id).events, 0u);  // live id: a real check
  pool.remove(id);
  const auto stale = pool.check_now(id);
  EXPECT_EQ(stale.events, 0u);
  EXPECT_EQ(stale.violations, 0u);
  const auto unknown =
      pool.check_now(static_cast<CheckerPool::MonitorId>(~0ull));
  EXPECT_EQ(unknown.events, 0u);
  EXPECT_EQ(unknown.violations, 0u);
}

/// EventSink that counts how the pool consumes its segments.  Each segment
/// holds `pending` events; drain_segment() returns them as records,
/// discard_segment() only their count.
class CountingSink final : public EventSink {
 public:
  CountingSink() : spec_(MonitorSpec::manager("counting")) {
    spec_.check_period = 10 * kMillisecond;
  }

  const MonitorSpec& spec() const override { return spec_; }
  const trace::SymbolTable& symbols() const override { return symbols_; }
  sync::CheckerGate& gate() override { return gate_; }
  std::vector<trace::EventRecord> drain_segment() override {
    ++drains;
    return std::vector<trace::EventRecord>(std::exchange(pending, 0));
  }
  std::size_t discard_segment() override {
    ++discards;
    return std::exchange(pending, 0);
  }
  std::uint64_t events_lost() const override { return 0; }
  trace::SchedulingState snapshot() const override { return {}; }

  trace::SymbolTable& mutable_symbols() { return symbols_; }

  std::size_t pending = 0;
  int drains = 0;
  int discards = 0;

 private:
  MonitorSpec spec_;
  trace::SymbolTable symbols_;
  sync::CheckerGate gate_;
};

TEST(CheckerPoolTest, DetectorLessChecksDiscardByCount) {
  CheckerPool pool;
  CountingSink source;
  CheckerPool::MonitorOptions options;
  options.max_stretch = 8.0;
  const CheckerPool::MonitorId id = pool.add(source, options);

  // Idle checks stretch the cadence.
  EXPECT_TRUE(pool.check_now(id).idle);
  EXPECT_TRUE(pool.check_now(id).idle);
  EXPECT_GT(pool.stretch(id), 1.0);

  // A non-empty segment is counted without being drained, and the activity
  // snaps the cadence back to base.
  source.pending = 5;
  const auto stats = pool.check_now(id);
  EXPECT_EQ(stats.events, 5u);
  EXPECT_FALSE(stats.idle);
  EXPECT_EQ(pool.stretch(id), 1.0);
  EXPECT_EQ(source.discards, 3);
  EXPECT_EQ(source.drains, 0);
}

TEST(CheckerPoolTest, DetectorBackedChecksDrainTheSegment) {
  CheckerPool pool;
  CountingSink source;
  CollectingSink sink;
  core::Detector detector(source.spec(), source.mutable_symbols(), sink);
  detector.initialize(source.snapshot());
  const CheckerPool::MonitorId id = pool.add(source, detector);

  pool.check_now(id);
  EXPECT_EQ(source.drains, 1);
  EXPECT_EQ(source.discards, 0);
  EXPECT_EQ(detector.checks_run(), 1u);
}

TEST(CheckerPoolTest, DeadlineOrderingFollowsPerMonitorPeriods) {
  CheckerPool::Options pool_options;
  pool_options.threads = 1;  // one worker: ordering is fully observable
  CheckerPool pool(pool_options);
  CollectingSink fast_sink, slow_sink;
  RobustMonitor::Options options;
  options.checker_pool = &pool;
  RobustMonitor fast(
      relaxed_timers(MonitorSpec::manager("fast"), 5 * kMillisecond),
      fast_sink, options);
  RobustMonitor slow(
      relaxed_timers(MonitorSpec::manager("slow"), 25 * kMillisecond),
      slow_sink, options);
  EXPECT_EQ(pool.monitor_count(), 2u);

  fast.start_checking();
  slow.start_checking();
  EXPECT_EQ(pool.scheduled_count(), 2u);
  EXPECT_EQ(pool.thread_count(), 1u);
  // Bounded poll, not a fixed settle sleep: once the 25ms cadence has been
  // served twice, the 5ms cadence has had ~10 slots and the strict ordering
  // below is decided.  (True virtual-time scheduling lives in the sim
  // backend — see tests/schedule_explorer.cpp.)
  for (int spin = 0; spin < 2000; ++spin) {
    if (slow.detector().checks_run() >= 2 &&
        fast.detector().checks_run() > slow.detector().checks_run()) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  fast.stop_checking();
  slow.stop_checking();

  EXPECT_GE(fast.detector().checks_run(), 1u);
  EXPECT_GE(slow.detector().checks_run(), 1u);
  // 5ms cadence must be served strictly more often than 25ms cadence.
  EXPECT_GT(fast.detector().checks_run(), slow.detector().checks_run());
  EXPECT_EQ(fast_sink.count(), 0u);
  EXPECT_EQ(slow_sink.count(), 0u);
}

TEST(CheckerPoolTest, ConcurrentRegisterUnregisterWhileTrafficFlows) {
  CheckerPool pool;
  CollectingSink steady_sink;
  RobustMonitor::Options options;
  options.checker_pool = &pool;
  RobustMonitor steady(
      relaxed_timers(MonitorSpec::coordinator("steady", 4), 2 * kMillisecond),
      steady_sink, options);
  wl::BoundedBuffer buffer(steady, 4);
  steady.start_checking();

  std::atomic<bool> stop{false};
  std::vector<std::thread> traffic;
  for (int t = 0; t < 2; ++t) {
    traffic.emplace_back([&, t] {
      const trace::Pid pid = 10 + t;
      std::int64_t item = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        if (buffer.send(pid, 1) != Status::kOk) return;
        if (buffer.receive(pid, &item) != Status::kOk) return;
      }
    });
  }

  // Churn: monitors join and leave the live pool while traffic flows.
  for (int round = 0; round < 40; ++round) {
    CollectingSink churn_sink;
    RobustMonitor churn(
        relaxed_timers(MonitorSpec::allocator("churn"), 1 * kMillisecond),
        churn_sink, options);
    wl::ResourceAllocator allocator(churn, 2);
    churn.start_checking();
    wl::ClientOptions client;
    client.iterations = 5;
    ASSERT_EQ(wl::run_allocator_client(allocator, 7,
                                       inject::NullInjection::instance(),
                                       client),
              Status::kOk);
    churn.check_now();
    churn.stop_checking();
    EXPECT_EQ(churn_sink.count(), 0u);
  }

  stop.store(true);
  for (auto& thread : traffic) thread.join();
  steady.stop_checking();
  steady.check_now();
  EXPECT_EQ(steady_sink.count(), 0u);
  EXPECT_GE(steady.detector().checks_run(), 1u);
  EXPECT_EQ(pool.monitor_count(), 1u);  // churn monitors all unregistered
}

TEST(CheckerPoolTest, MixedHoldGatePoliciesCoexist) {
  CheckerPool pool;
  CollectingSink hold_sink, concurrent_sink;
  RobustMonitor::Options hold_options;
  hold_options.checker_pool = &pool;
  hold_options.hold_gate_during_check = true;
  RobustMonitor holder(
      relaxed_timers(MonitorSpec::coordinator("hold", 4), 2 * kMillisecond),
      hold_sink, hold_options);
  RobustMonitor::Options concurrent_options;
  concurrent_options.checker_pool = &pool;
  concurrent_options.hold_gate_during_check = false;
  RobustMonitor concurrent(
      relaxed_timers(MonitorSpec::coordinator("conc", 4), 2 * kMillisecond),
      concurrent_sink, concurrent_options);

  wl::BoundedBuffer hold_buffer(holder, 4);
  wl::BoundedBuffer concurrent_buffer(concurrent, 4);
  holder.start_checking();
  concurrent.start_checking();

  std::vector<std::thread> threads;
  for (wl::BoundedBuffer* buffer : {&hold_buffer, &concurrent_buffer}) {
    threads.emplace_back([buffer] {
      std::int64_t item = 0;
      for (int k = 0; k < 2000; ++k) {
        if (buffer->send(1, k) != Status::kOk) return;
        if (buffer->receive(1, &item) != Status::kOk) return;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  holder.stop_checking();
  concurrent.stop_checking();
  holder.check_now();
  concurrent.check_now();

  EXPECT_EQ(hold_sink.count(), 0u);
  EXPECT_EQ(concurrent_sink.count(), 0u);
  EXPECT_GE(holder.detector().checks_run(), 1u);
  EXPECT_GE(concurrent.detector().checks_run(), 1u);
}

// Regression: a RobustMonitor without Options::checker_pool (its private
// one-thread pool) must detect the injected fault from its *periodic*
// worker, not only from check_now().
TEST(CheckerPoolTest, PrivatePoolDetectsInjectedFaultPeriodically) {
  CollectingSink sink;
  inject::ScriptedInjection injection(
      {FaultKind::kSendExceedsCapacity, trace::kNoPid, 1, false});
  RobustMonitor::Options options;
  options.injection = &injection;
  RobustMonitor monitor(
      relaxed_timers(MonitorSpec::coordinator("of", 2), 5 * kMillisecond),
      sink, options);
  wl::BoundedBuffer buffer(monitor, 2, injection);
  monitor.start_checking();
  ASSERT_EQ(buffer.send(1, 10), Status::kOk);
  ASSERT_EQ(buffer.send(1, 11), Status::kOk);
  ASSERT_EQ(buffer.send(1, 12), Status::kOk);  // injected overfill
  EXPECT_TRUE(injection.fired());
  for (int spin = 0; spin < 400; ++spin) {
    if (sink.any_with_rule(RuleId::kSt7aSendExceedsCapacity)) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  monitor.stop_checking();
  EXPECT_TRUE(sink.any_with_rule(RuleId::kSt7aSendExceedsCapacity));
}

// The same injected fault through the shared-pool path.
TEST(CheckerPoolTest, SharedPoolDetectsInjectedFaultPeriodically) {
  CheckerPool pool;
  CollectingSink sink;
  inject::ScriptedInjection injection(
      {FaultKind::kSendExceedsCapacity, trace::kNoPid, 1, false});
  RobustMonitor::Options options;
  options.injection = &injection;
  options.checker_pool = &pool;
  RobustMonitor monitor(
      relaxed_timers(MonitorSpec::coordinator("of", 2), 5 * kMillisecond),
      sink, options);
  wl::BoundedBuffer buffer(monitor, 2, injection);
  monitor.start_checking();
  ASSERT_EQ(buffer.send(1, 10), Status::kOk);
  ASSERT_EQ(buffer.send(1, 11), Status::kOk);
  ASSERT_EQ(buffer.send(1, 12), Status::kOk);  // injected overfill
  EXPECT_TRUE(injection.fired());
  for (int spin = 0; spin < 400; ++spin) {
    if (sink.any_with_rule(RuleId::kSt7aSendExceedsCapacity)) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  monitor.stop_checking();
  EXPECT_TRUE(sink.any_with_rule(RuleId::kSt7aSendExceedsCapacity));
}

TEST(CheckerPoolTest, FrozenManualClockDoesNotStallPeriodicChecking) {
  // The check cadence is wall-clock; Options::clock only timestamps the
  // detection rules.  A frozen ManualClock must not starve the scheduler.
  util::ManualClock clock(1000);
  CheckerPool pool;
  CollectingSink sink;
  RobustMonitor::Options options;
  options.checker_pool = &pool;
  options.clock = &clock;
  RobustMonitor monitor(
      relaxed_timers(MonitorSpec::manager("frozen"), 5 * kMillisecond), sink,
      options);
  monitor.start_checking();
  for (int spin = 0; spin < 400; ++spin) {
    if (monitor.detector().checks_run() >= 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  monitor.stop_checking();
  EXPECT_GE(monitor.detector().checks_run(), 2u);
  EXPECT_EQ(sink.count(), 0u);
}

TEST(MultiLoadTest, SharedPoolMissesNothing) {
  wl::MultiLoadOptions options;
  options.monitors = 6;
  options.threads_per_monitor = 2;
  options.ops_per_thread = 100;
  options.faulty_monitors = 2;
  options.check_period = 2 * kMillisecond;
  options.mix_gate_policies = true;
  const wl::MultiLoadResult result = wl::run_multi_load(options);
  EXPECT_EQ(result.missed_detections, 0u);
  EXPECT_EQ(result.faulty_detected, 2u);
  EXPECT_EQ(result.false_positive_monitors, 0u);
  EXPECT_GT(result.checks_run, 0u);
  EXPECT_LE(result.checker_threads,
            std::max(1u, std::thread::hardware_concurrency()));
}

}  // namespace
}  // namespace robmon::rt
