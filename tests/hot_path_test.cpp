// Cost contracts of the instrumented primitive path (docs/architecture.md,
// "Primitive hot path"): steady-state Enter / Wait / Signal-Exit traffic
// allocates nothing, and each primitive reads the clock exactly once.  The
// shim adapter's contracts ride along ("Shim hot path"): a SyntheticMonitor
// op reads the clock only when its state carries a time (every op when
// retaining records), and push/discard cycles allocate nothing.
//
// This binary replaces the global allocation functions with counting ones,
// which is why these tests live in their own executable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>

#include "core/fault.hpp"
#include "core/monitor_spec.hpp"
#include "interpose/synthetic_monitor.hpp"
#include "runtime/hoare_monitor.hpp"
#include "runtime/robust_monitor.hpp"
#include "util/clock.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace robmon::rt {
namespace {

using core::CollectingSink;
using core::MonitorSpec;

/// Settable clock that counts its reads.
class CountingClock final : public util::Clock {
 public:
  util::TimeNs now_ns() const override {
    reads_.fetch_add(1, std::memory_order_relaxed);
    return now_.load(std::memory_order_relaxed);
  }
  void set(util::TimeNs t) { now_.store(t, std::memory_order_relaxed); }
  std::uint64_t reads() const {
    return reads_.load(std::memory_order_relaxed);
  }

 private:
  mutable std::atomic<std::uint64_t> reads_{0};
  std::atomic<util::TimeNs> now_{0};
};

void wait_for_pending(const HoareMonitor& monitor, std::size_t events) {
  while (monitor.log().pending() < events) std::this_thread::yield();
}

TEST(HotPathTest, SteadyStateTrafficAllocatesNothing) {
  CollectingSink sink;
  // No checker is started: the logs only fill, so the warm-up also sizes
  // each log's overflow list, which a drain empties but keeps.
  RobustMonitor allocator(MonitorSpec::allocator("alloc"), sink);
  RobustMonitor buffer(MonitorSpec::coordinator("buf", 8), sink);
  const std::string acquire = "Acquire", release = "Release",
                    available = "available", send = "Send",
                    receive = "Receive", full = "full", empty = "empty";
  const auto round = [&] {
    allocator.enter(1, acquire);
    allocator.note_hold(1);
    allocator.exit(1);
    allocator.enter(1, release);
    allocator.note_release(1);
    allocator.signal_exit(1, available);
    buffer.enter(2, send);
    buffer.signal_exit(2, empty, -1);
    buffer.enter(3, receive);
    buffer.signal_exit(3, full, +1);
  };
  constexpr int kPairs = 10'000;
  for (int i = 0; i < kPairs; ++i) round();
  allocator.monitor().log().drain();
  buffer.monitor().log().drain();

  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < kPairs; ++i) round();
  const std::uint64_t allocations = g_allocations.load() - before;

  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(allocator.monitor().log().pending(), 4u * kPairs);
  EXPECT_EQ(buffer.monitor().log().pending(), 4u * kPairs);
  EXPECT_EQ(allocator.monitor().log().events_lost(), 0u);
  EXPECT_EQ(buffer.monitor().log().events_lost(), 0u);
  EXPECT_EQ(sink.count(), 0u);
}

TEST(HotPathTest, EachPrimitiveReadsTheClockOnce) {
  CountingClock clock;
  HoareMonitor monitor(MonitorSpec::coordinator("buf", 8), clock);

  // Enter (free monitor): one read, reused for the event and ownership.
  clock.set(100);
  std::uint64_t reads = clock.reads();
  ASSERT_EQ(monitor.enter(1, "Send"), Status::kOk);
  EXPECT_EQ(clock.reads() - reads, 1u) << "enter";
  const util::TimeNs running_since = monitor.snapshot().running_since;
  EXPECT_EQ(running_since, 100);
  EXPECT_EQ(monitor.log().drain().at(0).time, running_since);

  // Enter (busy monitor): pid 2 queues on EQ.
  clock.set(200);
  reads = clock.reads();
  std::thread second(
      [&] { EXPECT_EQ(monitor.enter(2, "Receive"), Status::kOk); });
  wait_for_pending(monitor, 1);
  EXPECT_EQ(clock.reads() - reads, 1u) << "queued enter";

  // Wait: pid 1 parks on CQ[full] and hands the monitor to pid 2, whose
  // ownership starts at the Wait event's time.
  clock.set(300);
  reads = clock.reads();
  std::thread first(
      [&] { EXPECT_EQ(monitor.wait(1, "full"), Status::kOk); });
  second.join();  // pid 2 was admitted
  EXPECT_EQ(clock.reads() - reads, 1u) << "wait";
  trace::SchedulingState state = monitor.snapshot();
  ASSERT_EQ(state.running, 2);
  EXPECT_EQ(state.running_since, 300);

  // Signal-Exit: pid 2 resumes pid 1 (Hoare hand-off).
  clock.set(400);
  reads = clock.reads();
  monitor.signal_exit(2, "full");
  first.join();
  EXPECT_EQ(clock.reads() - reads, 1u) << "signal_exit";
  state = monitor.snapshot();
  ASSERT_EQ(state.running, 1);
  EXPECT_EQ(state.running_since, 400);

  // Exit.
  clock.set(500);
  reads = clock.reads();
  monitor.exit(1);
  EXPECT_EQ(clock.reads() - reads, 1u) << "exit";

  const auto events = monitor.log().drain();
  ASSERT_EQ(events.size(), 4u);
  const util::TimeNs expected[] = {200, 300, 400, 500};
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].time, expected[i])
        << trace::describe(events[i], monitor.symbols());
  }
}

interpose::SyntheticMonitor::Config synthetic_config(bool retain_history) {
  interpose::SyntheticMonitor::Config config;
  config.retain_history = retain_history;
  return config;
}

TEST(HotPathTest, ShimOpsReadTheClockOnlyWhereStateNeedsATime) {
  using interpose::SyntheticMonitor;
  CountingClock clock;
  SyntheticMonitor m("m", SyntheticMonitor::Kind::kMutex, clock,
                     synthetic_config(/*retain_history=*/false));
  const auto reads_of = [&](auto&& ops) {
    const std::uint64_t before = clock.reads();
    ops();
    return clock.reads() - before;
  };
  EXPECT_EQ(reads_of([&] {
              m.lock_acquired(1);
              m.unlocked(1);
            }),
            1u)
      << "fast-path lock/unlock pair";
  EXPECT_EQ(reads_of([&] {
              m.lock_blocked(2);
              m.lock_acquired(2);
            }),
            2u)
      << "blocked lock";
  EXPECT_EQ(reads_of([&] {
              m.unlocked(2);
              m.lock_blocked(3);
              m.lock_cancelled(3);
              m.cond_signalled(1, /*broadcast=*/false);
              m.cond_unparked(1);
              m.reset();
            }),
            1u)
      << "only the block reads the clock";
  EXPECT_EQ(reads_of([&] { m.cond_signalled(1, /*broadcast=*/true); }), 0u);
  EXPECT_EQ(m.discard_segment(), 7u);

  SyntheticMonitor retained("r", SyntheticMonitor::Kind::kMutex, clock,
                            synthetic_config(/*retain_history=*/true));
  EXPECT_EQ(reads_of([&] {
              retained.lock_blocked(1);
              retained.lock_acquired(1);
              retained.unlocked(1);
              retained.lock_blocked(2);
              retained.lock_cancelled(2);
              retained.cond_parked(1);
              retained.cond_unparked(1);
              retained.cond_signalled(1, /*broadcast=*/false);
              retained.reset();
            }),
            9u)
      << "retaining: one read per op";
}

TEST(HotPathTest, ShimPushDiscardCyclesAllocateNothing) {
  using interpose::SyntheticMonitor;
  SyntheticMonitor m("m", SyntheticMonitor::Kind::kMutex,
                     util::SteadyClock::instance(),
                     synthetic_config(/*retain_history=*/false));
  const auto cycle = [&] {
    m.lock_blocked(2);
    m.lock_acquired(1);
    m.unlocked(1);
    m.lock_acquired(2);
    m.unlocked(2);
    return m.discard_segment();
  };
  ASSERT_EQ(cycle(), 4u);  // Warm-up sizes the entry queue once.

  const std::uint64_t before = g_allocations.load();
  std::size_t events = 0;
  for (int i = 0; i < 10'000; ++i) events += cycle();
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_EQ(events, 4u * 10'000);
  EXPECT_EQ(m.events_lost(), 0u);
}

}  // namespace
}  // namespace robmon::rt
