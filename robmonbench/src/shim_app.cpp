// robmonbench_shim_app — the `shim` workload: a plain pthread program with
// no robmon includes, observed from outside by running it under
// LD_PRELOAD=librobmon_preload.so (robmonbench/run.py does that).
//
//   robmonbench_shim_app --seed N --seconds S --trace 0|1
//                        [--out-dir DIR]
//   robmonbench_shim_app --micro        (single-thread call costs)
//
// Workload: three threads lock and unlock 64 mutexes in a seeded pattern,
// a quarter of the acquisitions nested in a consistent (ascending) order,
// and thread 0 hands tokens to thread 1 through one condition variable.
// Closed loop; one app op is one critical section.  Prints one JSON object
// of raw results on stdout.
//
// Untraced runs alternate short windows between the program as the preload
// sees it and a plain reference: the same ops on a second set of mutexes
// and a second handoff, made through libc's own pthread functions (looked
// up in libc.so.6 itself, so the preload never sees them).
//
// --micro prints uncontended lock+unlock pair cost, the cost of a failed
// trylock (the shim's wrapper does only its registry lookup around the real
// call on that path) and nothing else; run.py runs it with and without the
// preload and takes the differences.
#include <dlfcn.h>
#include <pthread.h>
#include <time.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "pin.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace {

using rmb::now_ns;

constexpr int kThreads = 3;
constexpr int kMutexes = 64;
constexpr std::uint64_t kHandoffEvery = 256;
constexpr std::uint32_t kSampling = 64;  // span sampling, 1 op in 64

std::int64_t cpu_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

void sleep_ns(std::int64_t ns) {
  if (ns <= 0) return;
  timespec ts{static_cast<time_t>(ns / 1'000'000'000),
              static_cast<long>(ns % 1'000'000'000)};
  nanosleep(&ts, nullptr);
}

/// The pthread calls the workload makes.  Side 0 calls them by name, so
/// under the preload they reach the shim; side 1, the plain reference,
/// calls libc's own definitions.
struct Pthreads {
  int (*lock)(pthread_mutex_t*);
  int (*unlock)(pthread_mutex_t*);
  int (*wait)(pthread_cond_t*, pthread_mutex_t*);
  int (*signal)(pthread_cond_t*);
  int (*broadcast)(pthread_cond_t*);
};

template <typename Fn>
Fn libc_symbol(void* libc, const char* name) {
  void* symbol = dlsym(libc, name);
  if (symbol == nullptr) {
    throw std::runtime_error(std::string("no ") + name + " in libc");
  }
  return reinterpret_cast<Fn>(symbol);
}

Pthreads libc_pthreads() {
  void* libc = dlopen("libc.so.6", RTLD_NOW | RTLD_NOLOAD);
  if (libc == nullptr) throw std::runtime_error("libc.so.6 is not loaded");
  return {libc_symbol<int (*)(pthread_mutex_t*)>(libc, "pthread_mutex_lock"),
          libc_symbol<int (*)(pthread_mutex_t*)>(libc, "pthread_mutex_unlock"),
          libc_symbol<int (*)(pthread_cond_t*, pthread_mutex_t*)>(
              libc, "pthread_cond_wait"),
          libc_symbol<int (*)(pthread_cond_t*)>(libc, "pthread_cond_signal"),
          libc_symbol<int (*)(pthread_cond_t*)>(libc,
                                                "pthread_cond_broadcast")};
}

struct Shared {
  Pthreads api[2];
  /// Everything below [side]: the program's objects [0], the reference's [1].
  pthread_mutex_t mutex[2][kMutexes];
  std::uint64_t guarded[2][kMutexes] = {};  ///< Under mutex[side][i].
  pthread_mutex_t handoff_mu[2] = {PTHREAD_MUTEX_INITIALIZER,
                                   PTHREAD_MUTEX_INITIALIZER};
  pthread_cond_t handoff_cv[2] = {PTHREAD_COND_INITIALIZER,
                                  PTHREAD_COND_INITIALIZER};
  std::uint64_t tokens[2] = {0, 0};  ///< Under handoff_mu[side].
  bool producer_done = false;        ///< Under both handoff_mu.
  bool trace = false;
  std::atomic<bool> stop{false};
  std::atomic<int> window{0};
  std::atomic<std::int64_t> first_op_ns{0};
  std::uint64_t seed = 1;
  std::uint32_t span_op = 0, span_lock = 0, span_unlock = 0, span_wait = 0;

  /// The side window `w` runs: 1 in the reference windows of untraced runs.
  int side_of(int w) const {
    return !trace && rmb::is_reference_window(w) ? 1 : 0;
  }
};

struct Worker {
  Shared* shared = nullptr;
  int index = 0;
  std::vector<rmb::Sampler> latency;  ///< One per window.
  std::vector<std::uint64_t> ops;     ///< Per window.
  std::vector<std::int64_t> cpu_ns;   ///< This thread's CPU per window.
  std::uint64_t total_ops = 0;
  std::uint64_t increments[2][kMutexes] = {};
  std::uint64_t sent[2] = {0, 0}, received[2] = {0, 0};
  bool failed = false;
};

bool lock(Shared& s, int side, int i) {
  rmb::SpanScope span(s.span_lock);
  return s.api[side].lock(&s.mutex[side][i]) == 0;
}
bool unlock(Shared& s, int side, int i) {
  rmb::SpanScope span(s.span_unlock);
  return s.api[side].unlock(&s.mutex[side][i]) == 0;
}

/// Thread 0 hands a token to thread 1.  Thread 1 gives up waiting when the
/// window moves to the other side (thread 0 then wakes it: see
/// leave_side) or the run ends.
void handoff(Shared& s, Worker& w, int side) {
  rmb::SpanScope span(s.span_wait);
  const Pthreads& api = s.api[side];
  api.lock(&s.handoff_mu[side]);
  if (w.index == 0) {
    ++s.tokens[side];
    ++w.sent[side];
    api.signal(&s.handoff_cv[side]);
  } else {
    while (s.tokens[side] == 0 && !s.producer_done &&
           s.side_of(s.window.load()) == side) {
      api.wait(&s.handoff_cv[side], &s.handoff_mu[side]);
    }
    if (s.tokens[side] > 0) {
      --s.tokens[side];
      ++w.received[side];
    }
  }
  api.unlock(&s.handoff_mu[side]);
}

/// Thread 0, first op after the window moved off `side`: wakes thread 1 if
/// it waits for a token there.
void leave_side(Shared& s, int side) {
  const Pthreads& api = s.api[side];
  api.lock(&s.handoff_mu[side]);
  api.broadcast(&s.handoff_cv[side]);
  api.unlock(&s.handoff_mu[side]);
}

void* worker_main(void* raw) {
  Worker& w = *static_cast<Worker*>(raw);
  Shared& s = *w.shared;
  rmb::pin_to(w.index, w.index);
  std::mt19937_64 rng(s.seed * 1000003 + static_cast<std::uint64_t>(w.index));
  std::int64_t cpu_mark = cpu_ns(CLOCK_THREAD_CPUTIME_ID);
  int cpu_window = 0;
  int last_side = 0;
  std::int64_t expected = 0;
  s.first_op_ns.compare_exchange_strong(expected, now_ns());
  while (!s.stop.load(std::memory_order_relaxed)) {
    const int window = s.window.load(std::memory_order_relaxed);
    if (window != cpu_window) {
      const std::int64_t now = cpu_ns(CLOCK_THREAD_CPUTIME_ID);
      w.cpu_ns[static_cast<std::size_t>(cpu_window)] += now - cpu_mark;
      cpu_mark = now;
      cpu_window = window;
    }
    const int side = s.side_of(window);
    if (side != last_side && w.index == 0) leave_side(s, last_side);
    last_side = side;
    const int a = static_cast<int>(rng() % kMutexes);
    const bool nested = rng() % 4 == 0 && a + 1 < kMutexes;
    const int b = nested ? a + 1 + static_cast<int>(rng() % (kMutexes - a - 1))
                         : a;
    const std::int64_t t0 = now_ns();
    {
      rmb::OpScope op(s.span_op, w.ops[window], kSampling);
      bool ok = lock(s, side, a);
      ++s.guarded[side][a];
      ++w.increments[side][a];
      if (nested) {
        ok = lock(s, side, b) && ok;
        ++s.guarded[side][b];
        ++w.increments[side][b];
        ok = unlock(s, side, b) && ok;
      }
      ok = unlock(s, side, a) && ok;
      if (!ok) w.failed = true;
    }
    w.latency[window].add(static_cast<double>(now_ns() - t0));
    ++w.ops[window];
    if (++w.total_ops % kHandoffEvery == 0 && w.index < 2) {
      handoff(s, w, side);
    }
  }
  if (w.index == 0) {
    // Both mutexes held, so a waiter on either side sees producer_done.
    s.api[0].lock(&s.handoff_mu[0]);
    s.api[1].lock(&s.handoff_mu[1]);
    s.producer_done = true;
    s.api[1].broadcast(&s.handoff_cv[1]);
    s.api[0].broadcast(&s.handoff_cv[0]);
    s.api[1].unlock(&s.handoff_mu[1]);
    s.api[0].unlock(&s.handoff_mu[0]);
  }
  w.cpu_ns[static_cast<std::size_t>(cpu_window)] +=
      cpu_ns(CLOCK_THREAD_CPUTIME_ID) - cpu_mark;
  return nullptr;
}

int run_micro() {
  pthread_mutex_t m = PTHREAD_MUTEX_INITIALIZER;
  pthread_mutex_lock(&m);  // register it with the shim before timing
  pthread_mutex_unlock(&m);
  const auto time_loop = [](auto&& body) {
    constexpr int kBatch = 1000;
    std::vector<double> per_call;
    const std::int64_t start = now_ns();
    while (per_call.size() < 200 || now_ns() - start < 300'000'000) {
      const std::int64_t t0 = now_ns();
      for (int i = 0; i < kBatch; ++i) body();
      per_call.push_back(static_cast<double>(now_ns() - t0) / kBatch);
    }
    return rmb::percentile(per_call, 50, 10).value;
  };
  const double pair_ns = time_loop([&] {
    pthread_mutex_lock(&m);
    pthread_mutex_unlock(&m);
  });
  pthread_mutex_lock(&m);
  int busy = 0;
  const double trylock_ns = time_loop([&] {
    busy += pthread_mutex_trylock(&m) != 0;
  });
  pthread_mutex_unlock(&m);
  rmb::JsonObject out;
  out.num("pair_ns", pair_ns);
  out.num("failed_trylock_ns", trylock_ns);
  out.boolean("correct", busy > 0);
  std::printf("%s\n", out.text().c_str());
  return 0;
}

int run(std::uint64_t seed, double seconds, bool trace,
        const std::string& out_dir) {
  // Before the first pthread call, so the shim's checker pool, started
  // lazily from this thread, shares CPU 3 with it; the app threads take
  // CPUs 0–2.
  rmb::pin_to(3, 3);
  Shared s;
  s.api[0] = {pthread_mutex_lock, pthread_mutex_unlock, pthread_cond_wait,
              pthread_cond_signal, pthread_cond_broadcast};
  s.api[1] = libc_pthreads();
  s.seed = seed;
  s.trace = trace;
  auto& recorder = rmb::SpanRecorder::instance();
  s.span_op = recorder.intern("app.critical_section");
  s.span_lock = recorder.intern("interpose.lock");
  s.span_unlock = recorder.intern("interpose.unlock");
  s.span_wait = recorder.intern("interpose.handoff");
  // Set-up: every mutex initialised and touched once, so the shim's
  // registry holds all of the program's before the first timed op.
  for (int side = 0; side < 2; ++side) {
    for (auto& m : s.mutex[side]) {
      pthread_mutex_init(&m, nullptr);
      s.api[side].lock(&m);
      s.api[side].unlock(&m);
    }
  }
  // Traced: two phases (untraced, traced) of about one-second windows.
  // Untraced: short windows alternating with the reference.
  const int windows = trace ? 2 * rmb::windows_per_phase(seconds / 2)
                            : rmb::paired_windows(seconds);
  const int per_phase = trace ? windows / 2 : windows;
  const auto per_window = static_cast<std::size_t>(windows);
  Worker workers[kThreads];
  pthread_t threads[kThreads];
  for (int t = 0; t < kThreads; ++t) {
    workers[t].shared = &s;
    workers[t].index = t;
    workers[t].latency = std::vector<rmb::Sampler>(per_window);
    workers[t].ops.assign(per_window, 0);
    workers[t].cpu_ns.assign(per_window, 0);
    if (pthread_create(&threads[t], nullptr, worker_main, &workers[t]) != 0) {
      throw std::runtime_error("pthread_create failed");
    }
  }
  while (s.first_op_ns.load() == 0) sleep_ns(50'000);
  const double setup_rss_mb = rmb::peak_rss_mb();
  const auto total = static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::int64_t> wall(per_window + 1, 0), cpu(per_window + 1, 0);
  wall[0] = now_ns();
  cpu[0] = cpu_ns(CLOCK_PROCESS_CPUTIME_ID);
  for (int w = 1; w <= windows; ++w) {
    sleep_ns(wall[0] + total * w / windows - now_ns());
    wall[w] = now_ns();
    cpu[w] = cpu_ns(CLOCK_PROCESS_CPUTIME_ID);
    if (w == per_phase && w < windows) recorder.set_enabled(true);
    if (w < windows) s.window.store(w);
  }
  recorder.set_enabled(false);
  s.stop.store(true);
  for (pthread_t thread : threads) pthread_join(thread, nullptr);
  const std::int64_t cpu_end = cpu_ns(CLOCK_PROCESS_CPUTIME_ID);

  // Outputs: every guarded counter equals the increments made under it,
  // and every handed-off token was received or is still queued.
  bool exclusive = true;
  bool handoff_ok = true;
  for (int side = 0; side < 2; ++side) {
    for (int i = 0; i < kMutexes; ++i) {
      std::uint64_t made = 0;
      for (const Worker& w : workers) made += w.increments[side][i];
      exclusive = exclusive && made == s.guarded[side][i];
    }
    handoff_ok = handoff_ok && workers[0].sent[side] ==
                                   workers[1].received[side] + s.tokens[side];
  }
  bool failed = false;
  std::uint64_t app_cpu = 0;
  for (const Worker& w : workers) {
    failed = failed || w.failed;
    for (std::int64_t ns : w.cpu_ns) app_cpu += static_cast<std::uint64_t>(ns);
  }

  rmb::JsonObject out;
  out.str("workload", "shim");
  out.integer("first_op_ns", s.first_op_ns.load());
  out.num("setup_rss_mb", setup_rss_mb);
  const auto window_at = [&](int w) {
    rmb::Window window;
    for (const Worker& worker : workers) {
      window.samplers.push_back(&worker.latency[w]);
      window.ops += worker.ops[w];
      window.app_cpu_ns += static_cast<double>(worker.cpu_ns[w]);
    }
    window.seconds = static_cast<double>(wall[w + 1] - wall[w]) / 1e9;
    window.cpu_ns = static_cast<double>(cpu[w + 1] - cpu[w]);
    return window;
  };
  const auto put_phase = [&](const std::string& prefix, int phase) {
    std::vector<rmb::Window> list;
    for (int w = phase * per_phase; w < (phase + 1) * per_phase; ++w) {
      list.push_back(window_at(w));
    }
    return rmb::put_windows(out, prefix, list);
  };
  std::uint64_t ops = 0;
  for (const Worker& w : workers) {
    for (std::uint64_t n : w.ops) ops += n;
  }
  if (!trace) {
    std::vector<rmb::Window> list;
    for (int w = 0; w < windows; ++w) list.push_back(window_at(w));
    rmb::put_paired(out, list);
  }
  if (trace) {
    const double untraced_cpu = put_phase("", 0);
    const double traced_cpu = put_phase("traced.", 1);
    out.num("trace.overhead_cpu_frac", traced_cpu / untraced_cpu - 1.0);
    // CPU the process spent outside the three app threads (the shim's
    // checker pool draining and checking the synthetic monitors), per op.
    out.num("interpose.drain_ns_per_op",
            static_cast<double>(cpu_end - cpu[0] -
                                static_cast<std::int64_t>(app_cpu)) /
                static_cast<double>(ops));
    for (const auto& [name, time] : recorder.layer_times()) {
      if (name == "interpose.lock" || name == "interpose.unlock") {
        out.num(name + "_ns", time.self_ns / time.count);
        out.integer(name + ".spans", static_cast<std::int64_t>(time.spans));
      }
    }
    recorder.write_jsonl(out_dir + "/spans-shim-" + std::to_string(seed) +
                         ".jsonl");
  }
  out.integer("attempted", static_cast<std::int64_t>(ops));
  out.integer("failed_ops", failed ? 1 : 0);
  out.integer("tokens", static_cast<std::int64_t>(workers[0].sent[0]));
  for (const Worker& w : workers) {
    out.integer("ops.t" + std::to_string(w.index),
                static_cast<std::int64_t>(w.total_ops));
  }
  out.num("peak_rss_mb", rmb::peak_rss_mb());
  std::string failures;
  if (!exclusive) failures += "a guarded counter lost increments; ";
  if (!handoff_ok) failures += "handed-off tokens lost; ";
  if (failed) failures += "a pthread call failed; ";
  out.boolean("correct", failures.empty());
  out.str("check_failures", failures);
  std::printf("%s\n", out.text().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out_dir = ".";
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--micro") return run_micro();
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      const std::string value = argv[++i];
      if (flag == "--seed") {
        seed = std::stoull(value);
      } else if (flag == "--seconds") {
        seconds = std::stod(value);
      } else if (flag == "--trace") {
        trace = value == "1";
      } else if (flag == "--out-dir") {
        out_dir = value;
      } else {
        throw std::invalid_argument("unknown flag " + flag);
      }
    }
    if (!(seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
    return run(seed, seconds, trace, out_dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "robmonbench_shim_app: %s\n", e.what());
    return 1;
  }
}
