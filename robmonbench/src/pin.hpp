// Thread placement for the workloads.  With four or more CPUs each busy
// thread of a workload gets its own CPU: left to the scheduler, a thread
// woken on the CPU of the spinning load generator or of a client preempts
// it for a time slice, which adds 0.5–1 ms stalls that swamp the tail
// latency being measured.  Threads a library starts (the checker pool's
// workers) inherit the CPU set of the thread that starts them.
#pragma once

#include <pthread.h>
#include <sched.h>

#include <thread>

namespace rmb {

/// CPUs the placement below assumes; with fewer, nothing is pinned.
constexpr int kPinnedCpus = 4;

inline bool can_pin() {
  return std::thread::hardware_concurrency() >= kPinnedCpus;
}

/// Confines the calling thread to CPUs [first, last] when can_pin().
inline void pin_to(int first, int last) {
  if (!can_pin()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu = first; cpu <= last; ++cpu) CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

}  // namespace rmb
