// Interposition-adapter overhead bench — the cost the LD_PRELOAD shim adds
// to an application's mutex traffic, measured at the SyntheticMonitor
// producer surface (one lock-free ring push per adapted operation).  Rows:
//
//   pthread_baseline   an uncontended pthread_mutex lock/unlock pair with
//                      no adaptation — what the host paid before the shim
//   adapter_push       the lock_acquired + unlocked push pair alone (ring
//                      discarded concurrently, the pool's own consumer
//                      path; steady state: the pure per-operation adapter
//                      cost — one clock read, taken by the acquire, and
//                      two ring pushes per pair)
//   adapter_backpressure  the same pair against a deliberately tiny ring
//                      with no drainer: every push folds the backlog
//                      inline — the documented worst case, bounded and
//                      loss-free (asserted: events_lost == 0)
//   adapter_mt(T)      T producer threads pushing through one monitor
//                      concurrently (the MPSC contention shape)
//
// Human-readable table only — the shim's end-to-end acceptance runs live
// in CI (the vanilla dining clean/deadlock legs); this bench is for sizing
// the per-operation cost, not for gating.
#include <pthread.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "interpose/synthetic_monitor.hpp"
#include "util/clock.hpp"
#include "util/flags.hpp"

namespace {

using robmon::interpose::SyntheticMonitor;

double ns_per_op(std::chrono::steady_clock::time_point start,
                 std::chrono::steady_clock::time_point stop,
                 std::int64_t operations) {
  const auto elapsed =
      std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start);
  return static_cast<double>(elapsed.count()) /
         static_cast<double>(operations);
}

SyntheticMonitor::Config config_with_ring(std::size_t capacity) {
  SyntheticMonitor::Config config;
  config.ring_capacity = capacity;
  return config;
}

double bench_pthread_baseline(std::int64_t iters) {
  pthread_mutex_t mutex = PTHREAD_MUTEX_INITIALIZER;
  const auto start = std::chrono::steady_clock::now();
  for (std::int64_t i = 0; i < iters; ++i) {
    pthread_mutex_lock(&mutex);
    pthread_mutex_unlock(&mutex);
  }
  const auto stop = std::chrono::steady_clock::now();
  pthread_mutex_destroy(&mutex);
  return ns_per_op(start, stop, 2 * iters);
}

double bench_adapter_push(std::int64_t iters) {
  SyntheticMonitor monitor("bench", SyntheticMonitor::Kind::kMutex,
                           robmon::util::SteadyClock::instance(),
                           config_with_ring(1 << 16));
  // A steady-state drainer stands in for the pool's periodic discard: the
  // producer should almost never find the ring full.
  std::atomic<bool> stop_drain{false};
  std::thread drainer([&] {
    while (!stop_drain.load(std::memory_order_acquire)) {
      (void)monitor.discard_segment();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  const auto start = std::chrono::steady_clock::now();
  for (std::int64_t i = 0; i < iters; ++i) {
    monitor.lock_acquired(1);
    monitor.unlocked(1);
  }
  const auto stop = std::chrono::steady_clock::now();
  stop_drain.store(true, std::memory_order_release);
  drainer.join();
  return ns_per_op(start, stop, 2 * iters);
}

double bench_adapter_backpressure(std::int64_t iters) {
  SyntheticMonitor monitor("bench", SyntheticMonitor::Kind::kMutex,
                           robmon::util::SteadyClock::instance(),
                           config_with_ring(2));
  const auto start = std::chrono::steady_clock::now();
  for (std::int64_t i = 0; i < iters; ++i) {
    monitor.lock_acquired(1);
    monitor.unlocked(1);
  }
  const auto stop = std::chrono::steady_clock::now();
  if (monitor.events_lost() != 0) {
    std::fprintf(stderr, "backpressure dropped events: %llu\n",
                 static_cast<unsigned long long>(monitor.events_lost()));
    std::exit(1);
  }
  return ns_per_op(start, stop, 2 * iters);
}

double bench_adapter_mt(std::int64_t iters, int threads) {
  SyntheticMonitor monitor("bench", SyntheticMonitor::Kind::kMutex,
                           robmon::util::SteadyClock::instance(),
                           config_with_ring(1 << 16));
  std::atomic<bool> stop_drain{false};
  std::thread drainer([&] {
    while (!stop_drain.load(std::memory_order_acquire)) {
      (void)monitor.discard_segment();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  const std::int64_t per_thread = iters / threads;
  std::vector<std::thread> producers;
  const auto start = std::chrono::steady_clock::now();
  for (int t = 0; t < threads; ++t) {
    producers.emplace_back([&, t] {
      const robmon::Tid tid = static_cast<robmon::Tid>(t + 1);
      for (std::int64_t i = 0; i < per_thread; ++i) {
        monitor.lock_blocked(tid);
        monitor.lock_cancelled(tid);
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  const auto stop = std::chrono::steady_clock::now();
  stop_drain.store(true, std::memory_order_release);
  drainer.join();
  return ns_per_op(start, stop, 2 * per_thread * threads);
}

}  // namespace

int main(int argc, char** argv) {
  robmon::util::Flags flags;
  flags.define("iters", "200000", "operations pairs per row");
  flags.define("threads", "4", "producer threads for the contended row");
  if (!flags.parse(argc, argv)) return 2;
  const std::int64_t iters = flags.i64("iters");
  const int threads = static_cast<int>(flags.i64("threads"));

  const double baseline = bench_pthread_baseline(iters);
  const double push = bench_adapter_push(iters);
  const double backpressure = bench_adapter_backpressure(iters);
  const double contended = bench_adapter_mt(iters, threads);

  std::printf("%-24s %10s %12s\n", "row", "ns/op", "vs baseline");
  std::printf("%-24s %10.1f %12s\n", "pthread_baseline", baseline, "1.00x");
  std::printf("%-24s %10.1f %11.2fx\n", "adapter_push", push,
              push / baseline);
  std::printf("%-24s %10.1f %11.2fx\n", "adapter_backpressure", backpressure,
              backpressure / baseline);
  std::printf("adapter_mt(%-2d)           %10.1f %11.2fx\n", threads,
              contended, contended / baseline);
  return 0;
}
