// robmonbench_native — the in-process workloads of the robmon benchmark.
//
//   robmonbench_native --workload hot-monitor|fleet --seed N --seconds S
//                      --trace 0|1 [--out-dir DIR]
//
// Drives robmon only through its public header (robmon.hpp) and prints one
// JSON object of raw results on stdout; robmonbench/run.py turns it into
// the benchmark's metrics.  See robmonbench/README.md for what each
// workload stresses and what each number means.
//
// --trace 0 measures the whole run untraced, in short windows that alternate
// between robmon and a plain reference doing the same ops on a std::mutex
// (PlainBuffer, PlainAllocator).  --trace 1 runs the first half
// untraced and the second half with spans around every call the benchmark
// makes into robmon, then measures each layer's public functions directly
// (event log, detector and algorithms over captured segments, path
// expressions, pool checks and checkpoint passes).  The gap between the two
// halves is the tracing overhead.
#include <time.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "pin.hpp"
#include "robmon.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace {

using namespace robmon;
using rmb::now_ns;

// --- Process measurements. ---------------------------------------------------

std::int64_t cpu_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}
std::int64_t process_cpu_ns() { return cpu_ns(CLOCK_PROCESS_CPUTIME_ID); }
std::int64_t thread_cpu_ns() { return cpu_ns(CLOCK_THREAD_CPUTIME_ID); }

void sleep_for_ns(std::int64_t ns) {
  if (ns > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
}

/// Spin until `deadline`.  Sleeping would idle the core, and waking an idle
/// virtual CPU can take milliseconds, which would swamp op latency; the
/// spinning is excluded from the CPU figures (OpLog::idle_cpu_ns).
void wait_until(std::int64_t deadline) {
  while (now_ns() < deadline) {
  }
}

// --- Report sink: every report, timestamped on arrival. ----------------------

class TimedSink final : public core::ReportSink {
 public:
  struct Entry {
    std::int64_t at = 0;
    core::RuleId rule{};
    std::optional<core::FaultKind> suspected;
    std::string message;
  };

  void report(const core::FaultReport& fault) override {
    Entry entry{now_ns(), fault.rule, fault.suspected, fault.message};
    std::lock_guard<std::mutex> lock(mu_);
    entries_.push_back(std::move(entry));
  }
  std::vector<Entry> entries() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_;
  }

 private:
  mutable std::mutex mu_;  // guards entries_
  std::vector<Entry> entries_;
};

// --- Span names. --------------------------------------------------------------

struct SpanNames {
  std::uint32_t send, receive, acquire, release;
  std::uint32_t enter, wait, signal_exit, exit;

  static const SpanNames& get() {
    static const SpanNames names = [] {
      auto& r = rmb::SpanRecorder::instance();
      return SpanNames{r.intern("app.send"),        r.intern("app.receive"),
                       r.intern("app.acquire"),     r.intern("app.release"),
                       r.intern("runtime.enter"),   r.intern("runtime.wait"),
                       r.intern("runtime.signal_exit"),
                       r.intern("runtime.exit")};
    }();
    return names;
  }
};

// --- The paper's two example monitors, written on the public primitives. ----
//
// Each primitive call the benchmark makes is one span and one event-log
// append; `appends` counts them so the run can check
// total_appended + events_lost == append calls.

const std::string kSend = "Send";
const std::string kReceive = "Receive";
const std::string kAcquire = "Acquire";
const std::string kRelease = "Release";
const std::string kFull = "full";
const std::string kEmpty = "empty";
const std::string kAvailable = "available";

rt::Status span_enter(rt::RobustMonitor& m, trace::Pid pid,
                      const std::string& proc) {
  rmb::SpanScope span(SpanNames::get().enter);
  return m.enter(pid, proc);
}
rt::Status span_wait(rt::RobustMonitor& m, trace::Pid pid,
                     const std::string& cond) {
  rmb::SpanScope span(SpanNames::get().wait);
  return m.wait(pid, cond);
}
void span_signal_exit(rt::RobustMonitor& m, trace::Pid pid,
                      const std::string& cond, std::int64_t delta) {
  rmb::SpanScope span(SpanNames::get().signal_exit);
  m.signal_exit(pid, cond, delta);
}
void span_signal_exit(rt::RobustMonitor& m, trace::Pid pid,
                      const std::string& cond) {
  rmb::SpanScope span(SpanNames::get().signal_exit);
  m.signal_exit(pid, cond);
}
void span_exit(rt::RobustMonitor& m, trace::Pid pid) {
  rmb::SpanScope span(SpanNames::get().exit);
  m.exit(pid);
}

/// Bounded buffer on a coordinator monitor: Send waits on "full", Receive
/// on "empty".  The slots are guarded by the monitor itself.
class Buffer {
 public:
  Buffer(rt::RobustMonitor& monitor, std::int64_t capacity)
      : m_(monitor), slots_(static_cast<std::size_t>(capacity)) {
    m_.track_resources(capacity);
  }

  rt::Status send(trace::Pid pid, std::int64_t item, std::uint64_t& appends) {
    rt::Status status = span_enter(m_, pid, kSend);
    if (status != rt::Status::kOk) return status;
    ++appends;
    if (count_ == slots_.size()) {
      ++full_waits_;
      status = span_wait(m_, pid, kFull);
      ++appends;
      if (status != rt::Status::kOk) return status;
    }
    slots_[(head_ + count_) % slots_.size()] = item;
    ++count_;
    span_signal_exit(m_, pid, kEmpty, -1);
    ++appends;
    return rt::Status::kOk;
  }

  rt::Status receive(trace::Pid pid, std::int64_t* out,
                     std::uint64_t& appends) {
    rt::Status status = span_enter(m_, pid, kReceive);
    if (status != rt::Status::kOk) return status;
    ++appends;
    if (count_ == 0) {
      ++empty_waits_;
      status = span_wait(m_, pid, kEmpty);
      ++appends;
      if (status != rt::Status::kOk) return status;
    }
    *out = slots_[head_];
    head_ = (head_ + 1) % slots_.size();
    --count_;
    span_signal_exit(m_, pid, kFull, +1);
    ++appends;
    return rt::Status::kOk;
  }

  /// Injected fault II.c: a Receive that fabricates an item from an empty
  /// buffer instead of waiting.
  void fabricated_receive(trace::Pid pid, std::uint64_t& appends) {
    if (m_.enter(pid, kReceive) != rt::Status::kOk) return;
    ++appends;
    m_.signal_exit(pid, kFull, +1);
    ++appends;
  }

  std::size_t count() const { return count_; }
  std::uint64_t full_waits() const { return full_waits_; }
  std::uint64_t empty_waits() const { return empty_waits_; }

 private:
  rt::RobustMonitor& m_;
  // Guarded by the monitor, like the slots.
  std::uint64_t full_waits_ = 0;
  std::uint64_t empty_waits_ = 0;
  std::vector<std::int64_t> slots_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

/// Resource allocator on an allocator monitor (declared order
/// (Acquire ; Release)*, matched in real time at every Enter).
class Allocator {
 public:
  Allocator(rt::RobustMonitor& monitor, std::int64_t units)
      : m_(monitor), units_(units) {}

  rt::Status acquire(trace::Pid pid, std::uint64_t& appends) {
    rt::Status status = span_enter(m_, pid, kAcquire);
    if (status != rt::Status::kOk) return status;
    ++appends;
    if (units_ == 0) {
      status = span_wait(m_, pid, kAvailable);
      ++appends;
      if (status != rt::Status::kOk) return status;
    }
    --units_;
    m_.note_hold(pid);
    span_exit(m_, pid);
    ++appends;
    return rt::Status::kOk;
  }

  rt::Status release(trace::Pid pid, std::uint64_t& appends) {
    rt::Status status = span_enter(m_, pid, kRelease);
    if (status != rt::Status::kOk) return status;
    ++appends;
    ++units_;
    m_.note_release(pid);
    span_signal_exit(m_, pid, kAvailable);
    ++appends;
    return rt::Status::kOk;
  }

  /// Injected fault III.a: a Release by a process that holds nothing.
  void release_unheld(trace::Pid pid, std::uint64_t& appends) {
    if (m_.enter(pid, kRelease) != rt::Status::kOk) return;
    ++appends;
    m_.signal_exit(pid, kAvailable);
    ++appends;
  }

  std::int64_t units() const { return units_; }

 private:
  rt::RobustMonitor& m_;
  std::int64_t units_;
};

/// The plain reference: the same bounded buffer and allocator on a
/// std::mutex and condition variables, the code an application would run
/// without robmon.  Untraced runs time each workload's ops on these too, in
/// windows alternating with robmon's.
class PlainBuffer {
 public:
  explicit PlainBuffer(std::int64_t capacity)
      : slots_(static_cast<std::size_t>(capacity)) {}

  void send(std::int64_t item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock, [&] { return count_ < slots_.size(); });
    slots_[(head_ + count_) % slots_.size()] = item;
    ++count_;
    not_empty_.notify_one();
  }

  std::int64_t receive() {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return count_ > 0; });
    const std::int64_t item = slots_[head_];
    head_ = (head_ + 1) % slots_.size();
    --count_;
    not_full_.notify_one();
    return item;
  }

  std::size_t count() {
    std::lock_guard<std::mutex> lock(mu_);
    return count_;
  }

 private:
  std::mutex mu_;  // guards the slots
  std::condition_variable not_full_, not_empty_;
  std::vector<std::int64_t> slots_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

class PlainAllocator {
 public:
  explicit PlainAllocator(std::int64_t units) : units_(units) {}

  void acquire() {
    std::unique_lock<std::mutex> lock(mu_);
    available_.wait(lock, [&] { return units_ > 0; });
    --units_;
  }

  void release() {
    std::lock_guard<std::mutex> lock(mu_);
    ++units_;
    available_.notify_one();
  }

  std::int64_t units() {
    std::lock_guard<std::mutex> lock(mu_);
    return units_;
  }

 private:
  std::mutex mu_;  // guards units_
  std::condition_variable available_;
  std::int64_t units_;
};

core::MonitorSpec with_timing(core::MonitorSpec spec, util::TimeNs period) {
  spec.check_period = period;
  // Generous ST-rule timers: a loaded host must not read as a fault.
  spec.t_max = 5 * util::kSecond;
  spec.t_io = 5 * util::kSecond;
  spec.t_limit = 5 * util::kSecond;
  return spec;
}

// --- Run-wide bookkeeping. ------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";

  /// Measurement windows.  Untraced: short windows that alternate between
  /// robmon and the plain reference (rmb::paired_windows).  Traced: two
  /// phases of about one-second windows, untraced then traced, robmon only.
  int windows() const {
    return trace ? 2 * rmb::windows_per_phase(seconds / 2)
                 : rmb::paired_windows(seconds);
  }
  /// Whether window `w` runs the plain reference instead of robmon.
  bool reference(int w) const { return !trace && rmb::is_reference_window(w); }
};

/// Latency samples and op counts per window.
struct OpLog {
  explicit OpLog(const Args& args)
      : latency(args.windows()),
        ops(args.windows(), 0),
        app_cpu_ns(args.windows(), 0),
        idle_cpu_ns(args.windows(), 0) {}

  std::int64_t thread_cpu_ns = 0;  ///< CPU time of the thread that owns it.
  std::vector<rmb::Sampler> latency;
  std::vector<std::uint64_t> ops;
  /// CPU time of the threads that log here, per window (ThreadCpu).
  std::vector<std::int64_t> app_cpu_ns;
  /// CPU its thread spent spinning until the next op was due (the open
  /// loop), excluded from cost.
  std::vector<std::int64_t> idle_cpu_ns;
  std::uint64_t failed = 0;
  std::uint64_t appends = 0;
};

/// Charges the calling thread's CPU time to the window it was spent in:
/// call at(w) before each op and flush() when the thread ends.
class ThreadCpu {
 public:
  explicit ThreadCpu(OpLog& log) : log_(log), mark_(thread_cpu_ns()) {}
  void at(int w) {
    if (w != window_) charge(w);
  }
  void flush() { charge(window_); }

 private:
  void charge(int next) {
    const std::int64_t now = thread_cpu_ns();
    log_.app_cpu_ns[static_cast<std::size_t>(window_)] += now - mark_;
    mark_ = now;
    window_ = next;
  }
  OpLog& log_;
  std::int64_t mark_;
  int window_ = 0;
};

/// Shared run control: the window clock, the first-op stamp, stop.
struct RunControl {
  explicit RunControl(const Args& args)
      : args(args),
        start_ns(static_cast<std::size_t>(args.windows()) + 1, 0),
        cpu_ns(static_cast<std::size_t>(args.windows()) + 1, 0) {}

  /// Whether the ops of window `w` go to the plain reference.
  bool reference(int w) const { return args.reference(w); }

  const Args args;
  std::atomic<int> window{0};
  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> first_op_ns{0};
  double setup_rss_mb = 0.0;  ///< Peak resident memory once set up.
  int per_phase = 0;  ///< Windows per phase.
  std::vector<std::int64_t> start_ns;
  std::vector<std::int64_t> cpu_ns;

  void mark_first_op() {
    if (first_op_ns.load(std::memory_order_relaxed) != 0) return;
    std::int64_t expected = 0;
    first_op_ns.compare_exchange_strong(expected, now_ns());
  }

  /// Timer thread: waits for the first op, then measures `seconds` in
  /// equal windows (the second half traced when asked) and raises stop.
  void time_windows() {
    while (first_op_ns.load() == 0) sleep_for_ns(50'000);
    setup_rss_mb = rmb::peak_rss_mb();
    start_ns[0] = now_ns();
    cpu_ns[0] = process_cpu_ns();
    const int windows = args.windows();
    per_phase = args.trace ? windows / 2 : windows;
    const auto total = static_cast<std::int64_t>(args.seconds * 1e9);
    for (int w = 1; w <= windows; ++w) {
      sleep_for_ns(start_ns[0] + total * w / windows - now_ns());
      start_ns[w] = now_ns();
      cpu_ns[w] = process_cpu_ns();
      if (w == per_phase && w < windows) {
        rmb::SpanRecorder::instance().set_enabled(true);
      }
      if (w < windows) window.store(w);
    }
    rmb::SpanRecorder::instance().set_enabled(false);
    stop.store(true);
  }
};

/// Correctness bookkeeping: every failed check is named.
struct Checks {
  std::vector<std::string> failures;
  void expect(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  std::string joined() const {
    std::string out;
    for (const auto& f : failures) out += (out.empty() ? "" : "; ") + f;
    return out;
  }
};

/// Window `w` of the run: latency samples, ops, wall time, process CPU and
/// the workload threads' CPU, both without their spinning.
rmb::Window window_of(const std::vector<const OpLog*>& logs,
                      const RunControl& rc, int w) {
  rmb::Window window;
  window.cpu_ns = static_cast<double>(rc.cpu_ns[w + 1] - rc.cpu_ns[w]);
  for (const OpLog* log : logs) {
    window.samplers.push_back(&log->latency[w]);
    window.ops += log->ops[w];
    window.cpu_ns -= static_cast<double>(log->idle_cpu_ns[w]);
    window.app_cpu_ns +=
        static_cast<double>(log->app_cpu_ns[w] - log->idle_cpu_ns[w]);
  }
  window.seconds =
      static_cast<double>(rc.start_ns[w + 1] - rc.start_ns[w]) / 1e9;
  return window;
}

/// End-to-end numbers of one phase (0 untraced, 1 traced) into `out`;
/// returns the phase's CPU ns per op.
double put_phase(rmb::JsonObject& out, const std::string& prefix,
                 const std::vector<const OpLog*>& logs, const RunControl& rc,
                 int phase) {
  std::vector<rmb::Window> windows;
  for (int w = phase * rc.per_phase; w < (phase + 1) * rc.per_phase; ++w) {
    windows.push_back(window_of(logs, rc, w));
  }
  return rmb::put_windows(out, prefix, windows);
}

/// End-to-end numbers of an untraced run, from its paired windows.
void put_paired(rmb::JsonObject& out, const std::vector<const OpLog*>& logs,
                const RunControl& rc) {
  std::vector<rmb::Window> windows;
  for (int w = 0; w < rc.per_phase; ++w) {
    windows.push_back(window_of(logs, rc, w));
  }
  rmb::put_paired(out, windows);
}

// --- Layer measurements through each layer's public functions. -------------

/// Mean ns per call of `fn` over at least `min_calls` calls and ~budget ns.
double time_calls(const std::function<void()>& fn, int min_calls,
                  std::int64_t budget_ns) {
  const std::int64_t start = now_ns();
  std::int64_t calls = 0;
  while (calls < min_calls || now_ns() - start < budget_ns) {
    fn();
    ++calls;
  }
  return static_cast<double>(now_ns() - start) / static_cast<double>(calls);
}

/// Detector and Algorithms 1–3 replayed over the segments of captured
/// traces (segments split at each checkpoint, as core::replay_trace does).
void measure_core(rmb::JsonObject& out,
                  const std::vector<trace::TraceFile>& files, Checks& checks) {
  double check_ns = 0, alg1_ns = 0, alg2_ns = 0, alg3_ns = 0;
  std::uint64_t events = 0, alg2_calls = 0, alg3_events = 0, violations = 0;
  double empty_ns = 0;
  std::uint64_t empty_samples = 0;
  for (const trace::TraceFile& file : files) {
    if (file.checkpoints.size() < 2) continue;
    core::MonitorSpec spec;
    spec.name = file.monitor_name;
    spec.type = core::monitor_type_from_string(file.monitor_type);
    spec.rmax = file.rmax;
    std::vector<std::vector<trace::EventRecord>> segments;
    std::size_t cursor = 0;
    for (std::size_t k = 1; k < file.checkpoints.size(); ++k) {
      std::vector<trace::EventRecord> segment;
      while (cursor < file.events.size() &&
             file.events[cursor].time <= file.checkpoints[k].captured_at) {
        segment.push_back(file.events[cursor++]);
      }
      segments.push_back(std::move(segment));
    }
    trace::SymbolTable symbols;
    for (const auto& name : file.symbols) symbols.intern(name);
    TimedSink sink;

    core::Detector detector(spec, symbols, sink);
    detector.initialize(file.checkpoints.front());
    std::int64_t t0 = now_ns();
    for (std::size_t k = 0; k < segments.size(); ++k) {
      const auto& state = file.checkpoints[k + 1];
      violations += detector.check(segments[k], state, state.captured_at)
                        .violations;
      events += segments[k].size();
    }
    check_ns += static_cast<double>(now_ns() - t0);

    t0 = now_ns();
    for (std::size_t k = 0; k < segments.size(); ++k) {
      const auto& prev = file.checkpoints[k];
      const auto& cur = file.checkpoints[k + 1];
      const auto ctx =
          core::CheckContext::make(spec, symbols, cur.captured_at, sink);
      core::run_algorithm1(ctx, prev, cur, segments[k]);
    }
    alg1_ns += static_cast<double>(now_ns() - t0);

    if (spec.type == core::MonitorType::kCommunicationCoordinator) {
      core::ResourceCounters counters;
      t0 = now_ns();
      for (std::size_t k = 0; k < segments.size(); ++k) {
        const auto& cur = file.checkpoints[k + 1];
        const auto ctx =
            core::CheckContext::make(spec, symbols, cur.captured_at, sink);
        core::run_algorithm2(ctx, file.checkpoints[k], cur, segments[k],
                             counters);
      }
      alg2_ns += static_cast<double>(now_ns() - t0);
      alg2_calls += segments.size();
    } else if (spec.type == core::MonitorType::kResourceAllocator) {
      core::RequestList requests;
      t0 = now_ns();
      for (std::size_t k = 0; k < segments.size(); ++k) {
        const auto& cur = file.checkpoints[k + 1];
        const auto ctx =
            core::CheckContext::make(spec, symbols, cur.captured_at, sink);
        core::run_algorithm3(ctx, segments[k], requests);
        alg3_events += segments[k].size();
      }
      alg3_ns += static_cast<double>(now_ns() - t0);
    }

    // Fixed cost of one check: an empty segment against the last state.
    const auto& last = file.checkpoints.back();
    core::Detector idle(spec, symbols, sink);
    idle.initialize(last);
    empty_ns += time_calls([&] { idle.check({}, last, last.captured_at); },
                           2000, 20'000'000);
    ++empty_samples;
  }
  checks.expect(events > 0 && alg2_calls > 0 && alg3_events > 0,
                "captured traces hold no coordinator or allocator segments");
  const auto per = [](double ns, std::uint64_t n) {
    return n == 0 ? 0.0 : ns / static_cast<double>(n);
  };
  out.num("core.check_ns_per_event", per(check_ns, events));
  out.num("core.alg1_ns_per_event", per(alg1_ns, events));
  out.num("core.alg2_ns", per(alg2_ns, alg2_calls));
  out.num("core.alg3_ns_per_event", per(alg3_ns, alg3_events));
  out.integer("core.violations", static_cast<std::int64_t>(violations));
  out.num("core.check_empty_ns", per(empty_ns, empty_samples));
  out.integer("core.replayed_events", static_cast<std::int64_t>(events));
}

/// EventLog append (g) and drain, in batches the size of this workload's
/// mean segment, on a log configured as HoareMonitor's (one shard).
void measure_trace_layer(rmb::JsonObject& out, double events_per_check,
                         Checks& checks) {
  const auto batch = static_cast<std::size_t>(
      std::clamp(events_per_check, 1.0, 65536.0));
  trace::EventLog log(/*retain_history=*/false, /*shards=*/1);
  std::uint64_t calls = 0, drained = 0;
  double append_ns = 0, drain_ns = 0;
  const std::int64_t start = now_ns();
  while (calls < 200'000 || now_ns() - start < 200'000'000) {
    std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < batch; ++i) {
      log.append(trace::EventRecord::enter(static_cast<trace::Pid>(i & 7), 0,
                                           true, t0));
    }
    std::int64_t t1 = now_ns();
    drained += log.drain().size();
    append_ns += static_cast<double>(t1 - t0);
    drain_ns += static_cast<double>(now_ns() - t1);
    calls += batch;
  }
  checks.expect(log.total_appended() + log.events_lost() == calls,
                "event log: total_appended + events_lost != append calls");
  out.num("trace.append_ns", append_ns / static_cast<double>(calls));
  out.num("trace.drain_ns_per_event",
          drain_ns / static_cast<double>(std::max<std::uint64_t>(drained, 1)));
}

/// Calling-order matcher advance on the allocator's declared order.
void measure_pathexpr(rmb::JsonObject& out) {
  const core::MonitorSpec spec = core::MonitorSpec::allocator("probe");
  const pathexpr::CallOrderSpec order(spec.effective_path_expression());
  pathexpr::Matcher matcher = order.matcher();
  bool acquire = true;
  std::uint64_t violations = 0;
  const double ns = time_calls(
      [&] {
        if (matcher.advance(acquire ? kAcquire : kRelease) ==
            pathexpr::MatchResult::kViolation) {
          ++violations;
        }
        acquire = !acquire;
      },
      200'000, 100'000'000);
  out.num("pathexpr.advance_ns", ns);
  out.integer("pathexpr.violations", static_cast<std::int64_t>(violations));
}

/// Enter + Exit on an uninstrumented monitor: the paper's ratio denominator.
void measure_uninstrumented(rmb::JsonObject& out) {
  TimedSink sink;
  rt::RobustMonitor::Options options;
  options.instrumentation = rt::Instrumentation::kOff;
  rt::RobustMonitor monitor(core::MonitorSpec::coordinator("probe.off", 8),
                            sink, options);
  const double ns = time_calls(
      [&] {
        monitor.enter(1, kSend);
        monitor.exit(1);
      },
      200'000, 100'000'000);
  out.num("runtime.uninstrumented_pair_ns", ns);
}

/// Pool counters, snapshot and check_now over a workload's monitors.
void measure_pool(rmb::JsonObject& out, rt::CheckerPool& pool,
                  const std::vector<rt::RobustMonitor*>& monitors,
                  std::uint64_t events_appended, bool checkpoints) {
  const std::uint64_t checks = pool.checks_executed();
  const double per_check =
      static_cast<double>(std::max<std::uint64_t>(checks, 1));
  std::uint64_t runs = 0, idle = 0;
  for (rt::RobustMonitor* m : monitors) {
    runs += m->detector().checks_run();
    idle += m->detector().idle_checks();
  }
  out.integer("pool.checks", static_cast<std::int64_t>(checks));
  out.integer("pool.dispatches", static_cast<std::int64_t>(pool.dispatches()));
  out.num("pool.checks_per_dispatch",
          static_cast<double>(checks) /
              static_cast<double>(std::max<std::uint64_t>(pool.dispatches(), 1)));
  out.integer("pool.coalesced",
              static_cast<std::int64_t>(pool.checks_coalesced()));
  out.num("pool.idle_frac", runs == 0 ? 0.0
                                      : static_cast<double>(idle) /
                                            static_cast<double>(runs));
  out.num("pool.quiesce_ns_per_check",
          static_cast<double>(pool.total_quiesce_ns()) / per_check);
  out.num("pool.check_ns_per_check",
          static_cast<double>(pool.total_check_ns()) / per_check);
  out.num("trace.events_per_check",
          static_cast<double>(events_appended) / per_check);
  out.integer("trace.events_lost", static_cast<std::int64_t>(pool.events_lost()));
  out.integer("pool.waitfor_passes",
              static_cast<std::int64_t>(pool.waitfor_checkpoints()));
  out.integer("pool.lockorder_edges",
              static_cast<std::int64_t>(pool.lockorder_edge_count()));
  out.integer("pool.recovery_actions",
              static_cast<std::int64_t>(pool.recovery_actions()));

  // Idle monitors now: snapshot and check_now price the fixed per-check
  // path (quiesce, drain, snapshot, detector set-up) with no events.
  double snapshot_ns = 0, check_now_ns = 0;
  int rounds = std::max<int>(4, 512 / static_cast<int>(monitors.size()));
  std::uint64_t calls = 0;
  for (int r = 0; r < rounds; ++r) {
    for (rt::RobustMonitor* m : monitors) {
      std::int64_t t0 = now_ns();
      const auto state = m->snapshot();
      std::int64_t t1 = now_ns();
      m->check_now();
      snapshot_ns += static_cast<double>(t1 - t0);
      check_now_ns += static_cast<double>(now_ns() - t1);
      ++calls;
      (void)state;
    }
  }
  out.num("runtime.snapshot_ns", snapshot_ns / static_cast<double>(calls));
  out.num("pool.check_now_ns", check_now_ns / static_cast<double>(calls));

  if (checkpoints) {
    out.num("pool.waitfor_pass_ns",
            time_calls([&] { pool.run_waitfor_checkpoint(); }, 50,
                       20'000'000));
    out.num("pool.lockorder_pass_ns",
            time_calls([&] { pool.run_lockorder_checkpoint(); }, 50,
                       20'000'000));
  }
}

/// Per-layer self time from the spans of the traced half.
void put_span_layers(rmb::JsonObject& out) {
  const auto layers = rmb::SpanRecorder::instance().layer_times();
  static const char* const kLayers[] = {"runtime.enter", "runtime.wait",
                                        "runtime.signal_exit", "runtime.exit"};
  for (const char* name : kLayers) {
    auto it = layers.find(name);
    if (it == layers.end() || it->second.count == 0) continue;
    out.num(std::string(name) + "_ns", it->second.self_ns / it->second.count);
    out.integer(std::string(name) + ".spans",
                static_cast<std::int64_t>(it->second.spans));
  }
  std::uint64_t spans = 0;
  for (const auto& [name, time] : layers) spans += time.spans;
  out.integer("trace.spans", static_cast<std::int64_t>(spans));
  out.integer("trace.spans_dropped",
              static_cast<std::int64_t>(rmb::SpanRecorder::instance().dropped()));
}

// --- hot-monitor ----------------------------------------------------------------
//
// Closed loop, no think time.  Three client threads, two monitors on a
// 1-worker pool: a producer and a consumer on a bounded buffer (Full/Empty
// waits and signals), and one client cycling Acquire/Release on an
// allocator through its calling-order matcher.  Short check period, gate
// held, wait-for and lock-order checkpoints off.
//
// The producer is paced by the client: it sends items in bursts of
// kHotBurst, a burst once the client has completed kPairsPerItem
// Acquire/Release pairs per item sent.  Left free, the pair's rate relative
// to the client's follows the host's scheduling (their handoffs park and
// wake threads), and the op mix with it; every figure is an average over
// that mix.  Paced, the mix is fixed at 1 Send : 1 Receive : 64 client ops.
// A burst overfills the buffer, so Full and Empty waits both occur.  The
// producer and the consumer block between bursts instead of spinning, so
// the workload keeps about one CPU busy, not three.
//
// In the reference windows of an untraced run the same three threads do the
// same ops on PlainBuffer and PlainAllocator; a burst goes wholly to one
// side, chosen when it starts, and the consumer follows the bursts in order.

constexpr util::TimeNs kHotPeriod = 5 * util::kMillisecond;
constexpr std::int64_t kHotCapacity = 8;
constexpr std::int64_t kHotBurst = 2 * kHotCapacity;
// Above the pairs per item the client completes unpaced (12–19 on a
// 4-CPU VM), so the pacing always binds.
constexpr std::int64_t kPairsPerItem = 32;
// Bursts the client may run ahead of the producer before it waits.
constexpr std::int64_t kBurstsAhead = 4;
// Span sampling per op stream: the buffer's ~30k ops/s (where the waits
// are) densely, the allocator client's ~1M ops/s sparsely.
constexpr std::uint32_t kBufferSampling = 2;
constexpr std::uint32_t kClientSampling = 64;

/// Hands bursts from the client to the producer, and each burst's side
/// (0 robmon, 1 reference; -1 ends the stream) from the producer to the
/// consumer, in order.
class Bursts {
 public:
  /// Client: one more burst is due.  Waits while the producer is more than
  /// kBurstsAhead bursts behind.
  void grant() {
    std::unique_lock<std::mutex> lock(mu_);
    ++granted_;
    cv_.notify_all();
    cv_.wait(lock,
             [&] { return granted_ - taken_ <= kBurstsAhead || stopped_; });
  }
  /// Producer: waits for a due burst; false once stopped with none due.
  bool take() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return granted_ > taken_ || stopped_; });
    if (granted_ == taken_) return false;
    ++taken_;
    cv_.notify_all();
    return true;
  }
  void announce(int side) {
    std::lock_guard<std::mutex> lock(mu_);
    sides_.push_back(side);
    cv_.notify_all();
  }
  /// Consumer: the side of the next burst.
  int next() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return !sides_.empty(); });
    const int side = sides_.front();
    sides_.pop_front();
    return side;
  }
  void stop() {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;  // guards the state below
  std::condition_variable cv_;
  std::int64_t granted_ = 0;
  std::int64_t taken_ = 0;
  bool stopped_ = false;
  std::deque<int> sides_;
};

struct HotMonitor {
  TimedSink sink;
  rt::CheckerPool pool;
  rt::RobustMonitor buffer_monitor;
  rt::RobustMonitor alloc_monitor;
  Buffer buffer;
  Allocator allocator;
  PlainBuffer plain_buffer{kHotCapacity};
  PlainAllocator plain_allocator{1};

  static rt::CheckerPool::Options pool_options() {
    rt::CheckerPool::Options options;
    options.threads = 1;  // budget controller stays off (fraction 0)
    return options;
  }
  rt::RobustMonitor::Options monitor_options(bool retain) {
    rt::RobustMonitor::Options options;
    options.checker_pool = &pool;
    options.hold_gate_during_check = true;
    options.retain_trace = retain;
    return options;
  }

  explicit HotMonitor(bool retain)
      : pool(pool_options()),
        buffer_monitor(
            with_timing(core::MonitorSpec::coordinator("hot.buffer",
                                                       kHotCapacity),
                        kHotPeriod),
            sink, monitor_options(retain)),
        alloc_monitor(with_timing(core::MonitorSpec::allocator("hot.alloc"),
                                  kHotPeriod),
                      sink, monitor_options(retain)),
        buffer(buffer_monitor, kHotCapacity),
        allocator(alloc_monitor, 1) {}

  /// Runs the three clients until rc.stop, recording into `logs`.
  void run(RunControl& rc, std::vector<OpLog>& logs, Checks& checks) {
    buffer_monitor.start_checking();
    alloc_monitor.start_checking();
    const SpanNames& n = SpanNames::get();
    Bursts bursts;
    std::int64_t sent[2] = {0, 0};
    std::int64_t received[2] = {0, 0};
    std::thread producer([&] {
      rmb::pin_to(0, 0);
      OpLog& log = logs[0];
      ThreadCpu cpu(log);
      bool ok = true;
      while (ok && bursts.take()) {
        const int side = rc.reference(rc.window.load()) ? 1 : 0;
        bursts.announce(side);
        for (std::int64_t k = 0; k < kHotBurst; ++k) {
          const int w = rc.window.load(std::memory_order_relaxed);
          cpu.at(w);
          const std::int64_t t0 = now_ns();
          if (side == 1) {
            plain_buffer.send(sent[1]);
          } else {
            rmb::OpScope op(n.send, log.ops[w], kBufferSampling);
            ok = buffer.send(1, sent[0], log.appends) == rt::Status::kOk;
          }
          if (!ok) {
            ++log.failed;
            break;
          }
          log.latency[w].add(static_cast<double>(now_ns() - t0));
          ++log.ops[w];
          ++sent[side];
        }
      }
      bursts.stop();
      bursts.announce(-1);
      cpu.flush();
      log.thread_cpu_ns = thread_cpu_ns();
    });
    std::thread consumer([&] {
      rmb::pin_to(1, 1);
      OpLog& log = logs[1];
      ThreadCpu cpu(log);
      bool in_order = true;
      bool ok = true;
      for (int side = bursts.next(); ok && side >= 0; side = bursts.next()) {
        for (std::int64_t k = 0; k < kHotBurst; ++k) {
          const int w = rc.window.load(std::memory_order_relaxed);
          cpu.at(w);
          const std::int64_t t0 = now_ns();
          std::int64_t item = 0;
          if (side == 1) {
            item = plain_buffer.receive();
          } else {
            rmb::OpScope op(n.receive, log.ops[w], kBufferSampling);
            ok = buffer.receive(2, &item, log.appends) == rt::Status::kOk;
          }
          if (!ok) {
            ++log.failed;
            break;
          }
          log.latency[w].add(static_cast<double>(now_ns() - t0));
          ++log.ops[w];
          in_order = in_order && item == received[side];
          ++received[side];
        }
      }
      cpu.flush();
      log.thread_cpu_ns = thread_cpu_ns();
      checks.expect(in_order, "hot.buffer: items received out of order");
    });
    std::thread client([&] {
      rmb::pin_to(2, 2);
      OpLog& log = logs[2];
      ThreadCpu cpu(log);
      std::int64_t pairs = 0;
      while (!rc.stop.load(std::memory_order_relaxed)) {
        rc.mark_first_op();
        const bool plain = rc.reference(rc.window.load());
        bool ok = true;
        for (int step = 0; ok && step < 2; ++step) {
          const int w = rc.window.load(std::memory_order_relaxed);
          cpu.at(w);
          const std::int64_t t0 = now_ns();
          if (plain) {
            if (step == 0) {
              plain_allocator.acquire();
            } else {
              plain_allocator.release();
            }
          } else {
            rmb::OpScope op(step == 0 ? n.acquire : n.release, log.ops[w],
                            kClientSampling);
            ok = (step == 0 ? allocator.acquire(3, log.appends)
                            : allocator.release(3, log.appends)) ==
                 rt::Status::kOk;
          }
          if (!ok) {
            ++log.failed;
            break;
          }
          log.latency[w].add(static_cast<double>(now_ns() - t0));
          ++log.ops[w];
        }
        if (!ok) break;
        if (++pairs % (kPairsPerItem * kHotBurst) == 0) bursts.grant();
      }
      cpu.flush();
      log.thread_cpu_ns = thread_cpu_ns();
      bursts.stop();
    });
    producer.join();
    consumer.join();
    client.join();
    buffer_monitor.stop_checking();
    alloc_monitor.stop_checking();
    buffer_monitor.check_now();
    alloc_monitor.check_now();
    checks.expect(received[0] == sent[0] && received[1] == sent[1],
                  "hot.buffer: items sent != items received");
    checks.expect(buffer.count() == 0 && plain_buffer.count() == 0,
                  "hot.buffer: items left behind");
    checks.expect(allocator.units() == 1 && plain_allocator.units() == 1,
                  "hot.alloc: units not conserved");
  }

  std::uint64_t appended() {
    return buffer_monitor.monitor().log().total_appended() +
           alloc_monitor.monitor().log().total_appended();
  }
  std::uint64_t lost() {
    return buffer_monitor.monitor().log().events_lost() +
           alloc_monitor.monitor().log().events_lost();
  }
};

int run_hot_monitor(const Args& args) {
  rmb::pin_to(3, 3);  // the pool worker and the timer; clients take 0–2
  RunControl rc(args);
  Checks checks;
  std::vector<OpLog> logs(3, OpLog(args));
  auto hot = std::make_unique<HotMonitor>(/*retain=*/false);
  std::thread timer([&] { rc.time_windows(); });
  hot->run(rc, logs, checks);
  timer.join();

  rmb::JsonObject out;
  out.str("workload", "hot-monitor");
  out.integer("first_op_ns", rc.first_op_ns.load());
  out.num("setup_rss_mb", rc.setup_rss_mb);
  out.integer("runtime.full_waits",
              static_cast<std::int64_t>(hot->buffer.full_waits()));
  out.integer("runtime.empty_waits",
              static_cast<std::int64_t>(hot->buffer.empty_waits()));
  const std::vector<const OpLog*> all = {&logs[0], &logs[1], &logs[2]};
  std::uint64_t failed = 0, appends = 0;
  for (std::size_t t = 0; t < all.size(); ++t) {
    failed += all[t]->failed;
    appends += all[t]->appends;
    std::uint64_t ops = 0;
    for (std::uint64_t n : all[t]->ops) ops += n;
    out.integer("ops.t" + std::to_string(t), static_cast<std::int64_t>(ops));
    out.integer("cpu_ns.t" + std::to_string(t), all[t]->thread_cpu_ns);
  }
  checks.expect(hot->appended() + hot->lost() == appends,
                "hot: total_appended + events_lost != append calls");
  const std::size_t false_reports = hot->sink.entries().size();
  checks.expect(false_reports == 0, "hot: reports on clean monitors");
  if (!args.trace) put_paired(out, all, rc);
  if (args.trace) {
    const double untraced_cpu = put_phase(out, "", all, rc, 0);
    const double traced_cpu = put_phase(out, "traced.", all, rc, 1);
    out.num("trace.overhead_cpu_frac", traced_cpu / untraced_cpu - 1.0);
    put_span_layers(out);
    const std::uint64_t events = hot->appended();
    measure_pool(out, hot->pool,
                 {&hot->buffer_monitor, &hot->alloc_monitor}, events,
                 /*checkpoints=*/false);
    measure_trace_layer(
        out,
        static_cast<double>(events) /
            static_cast<double>(
                std::max<std::uint64_t>(hot->pool.checks_executed(), 1)),
        checks);
    hot.reset();
    // Capture: the same workload on fresh monitors that retain their
    // history, replayed through the detector and the algorithms.
    Args capture_args = args;
    capture_args.seconds = 0.3;
    RunControl capture_rc(capture_args);
    std::vector<OpLog> capture_logs(3, OpLog(capture_args));
    auto capture = std::make_unique<HotMonitor>(/*retain=*/true);
    std::thread capture_timer([&] { capture_rc.time_windows(); });
    capture->run(capture_rc, capture_logs, checks);
    capture_timer.join();
    measure_core(out, {capture->buffer_monitor.export_trace(),
                       capture->alloc_monitor.export_trace()},
                 checks);
    measure_pathexpr(out);
    measure_uninstrumented(out);
  }
  std::uint64_t attempted = failed;
  for (const OpLog* log : all) {
    for (std::uint64_t ops : log->ops) attempted += ops;
  }
  out.integer("attempted", static_cast<std::int64_t>(attempted));
  out.integer("failed_ops", static_cast<std::int64_t>(failed));
  out.integer("injected_faults", 0);
  out.integer("missed_faults", 0);
  out.integer("false_reports", static_cast<std::int64_t>(false_reports));
  out.num("peak_rss_mb", rmb::peak_rss_mb());
  out.boolean("correct", checks.failures.empty());
  out.str("check_failures", checks.joined());
  if (args.trace) {
    rmb::SpanRecorder::instance().write_jsonl(
        args.out_dir + "/spans-hot-monitor-" + std::to_string(args.seed) +
        ".jsonl");
  }
  std::printf("%s\n", out.text().c_str());
  return 0;
}

// --- fleet ------------------------------------------------------------------------
//
// Open loop at a fixed offered rate: one generator thread issues seeded
// Send/Receive and nested Acquire/Release (consistent global order) over
// 256 alternating coordinator/allocator monitors, about one event per
// monitor per check period.  One pool worker with wait-for and lock-order
// checkpoints and poison recovery on.  Two more threads repeatedly close a
// 2-monitor deadlock that detection plus recovery must break, and a seeded
// sixteenth of the monitors gets one injected per-monitor fault each.

constexpr std::size_t kFleetMonitors = 256;
constexpr util::TimeNs kFleetPeriod = 10 * util::kMillisecond;
constexpr util::TimeNs kFleetWaitForPeriod = 5 * util::kMillisecond;
constexpr util::TimeNs kFleetLockOrderPeriod = 20 * util::kMillisecond;
constexpr double kFleetMeanGapNs = 1'000'000;  // between batch arrivals
constexpr std::int64_t kFleetOpsPerBatch = 13;  // ≈ 13k ops/s, ≈ 2 events/op
constexpr std::int64_t kFleetCapacity = 4;
constexpr std::size_t kFleetFaulty = kFleetMonitors / 16;
constexpr std::uint32_t kFleetSampling = 8;  // span sampling, 1 op in 8

struct FaultPlan {
  std::int64_t at_offset_ns = 0;
  std::size_t monitor = 0;
  std::int64_t injected_at = 0;  ///< 0 until injected.
};

struct Fleet {
  TimedSink waitfor_sink, lockorder_sink, recovery_sink;
  core::RecoveryPolicy policy;
  rt::CheckerPool pool;
  std::vector<std::unique_ptr<TimedSink>> sinks;
  std::vector<std::unique_ptr<rt::RobustMonitor>> monitors;
  std::vector<std::unique_ptr<Buffer>> buffers;
  std::vector<std::unique_ptr<Allocator>> allocators;
  /// The plain reference's buffers and allocators, one per monitor.
  std::vector<std::unique_ptr<PlainBuffer>> plain_buffers;
  std::vector<std::unique_ptr<PlainAllocator>> plain_allocators;
  /// Expected buffer items, robmon's [0] and the reference's [1].
  std::vector<std::deque<std::int64_t>> shadow[2];
  TimedSink dl_sink[2];
  std::unique_ptr<rt::RobustMonitor> dl_monitor[2];
  std::unique_ptr<Allocator> dl_alloc[2];

  static core::RecoveryPolicy::Options policy_options() {
    core::RecoveryPolicy::Options options;
    options.confirmed_remedy = core::RecoveryRemedy::kPoisonVictim;
    options.preempt_predicted = false;  // no gate: predictions only warn
    return options;
  }
  rt::CheckerPool::Options pool_options() {
    rt::CheckerPool::Options options;
    options.threads = 1;  // budget controller stays off (fraction 0)
    options.waitfor_checkpoint_period = kFleetWaitForPeriod;
    options.waitfor_sink = &waitfor_sink;
    options.lockorder_checkpoint_period = kFleetLockOrderPeriod;
    options.lockorder_sink = &lockorder_sink;
    options.recovery.policy = &policy;
    options.recovery.sink = &recovery_sink;
    return options;
  }

  explicit Fleet(bool retain) : policy(policy_options()), pool(pool_options()) {
    // The reference's objects first, next to each other, as an application
    // would keep them without robmon's per-monitor state in between.
    for (std::size_t i = 0; i < kFleetMonitors; ++i) {
      const bool coordinator = i % 2 == 0;
      plain_buffers.push_back(
          coordinator ? std::make_unique<PlainBuffer>(kFleetCapacity)
                      : nullptr);
      plain_allocators.push_back(
          coordinator ? nullptr : std::make_unique<PlainAllocator>(1));
    }
    rt::RobustMonitor::Options options;
    options.checker_pool = &pool;
    options.retain_trace = retain;
    for (std::size_t i = 0; i < kFleetMonitors; ++i) {
      char name[32];
      std::snprintf(name, sizeof name, "fleet.m%03zu", i);
      sinks.push_back(std::make_unique<TimedSink>());
      const bool coordinator = i % 2 == 0;
      monitors.push_back(std::make_unique<rt::RobustMonitor>(
          with_timing(coordinator
                          ? core::MonitorSpec::coordinator(name, kFleetCapacity)
                          : core::MonitorSpec::allocator(name),
                      kFleetPeriod),
          *sinks.back(), options));
      buffers.push_back(coordinator ? std::make_unique<Buffer>(
                                          *monitors.back(), kFleetCapacity)
                                    : nullptr);
      allocators.push_back(
          coordinator ? nullptr
                      : std::make_unique<Allocator>(*monitors.back(), 1));
    }
    shadow[0].resize(kFleetMonitors);
    shadow[1].resize(kFleetMonitors);
    for (int d = 0; d < 2; ++d) {
      dl_monitor[d] = std::make_unique<rt::RobustMonitor>(
          with_timing(core::MonitorSpec::allocator("fleet.dl." +
                                                   std::to_string(d)),
                      kFleetPeriod),
          dl_sink[d], options);
      dl_alloc[d] = std::make_unique<Allocator>(*dl_monitor[d], 1);
    }
  }

  std::vector<rt::RobustMonitor*> all_monitors() {
    std::vector<rt::RobustMonitor*> out;
    for (auto& m : monitors) out.push_back(m.get());
    out.push_back(dl_monitor[0].get());
    out.push_back(dl_monitor[1].get());
    return out;
  }
};

/// One closed deadlock and how it ended.
struct Cycle {
  std::int64_t closed_at = 0;
  std::int64_t crossed_at = 0;  ///< Both threads completed their crossing.
};

/// The two threads that repeatedly close fleet.dl.0 <-> fleet.dl.1.
class DeadlockPair {
 public:
  DeadlockPair(Fleet& fleet, RunControl& rc, std::uint64_t seed)
      : fleet_(fleet), rc_(rc), rng_(seed ^ 0x9e3779b97f4a7c15ULL) {}

  void start() {
    for (int t = 0; t < 2; ++t) threads_[t] = std::thread([this, t] { body(t); });
  }
  /// Waits for the round in flight; a round still blocked after `grace_ns`
  /// is an undetected deadlock: its monitors are poisoned to unwind it.
  void finish(std::int64_t grace_ns) {
    const std::int64_t deadline = now_ns() + grace_ns;
    while (now_ns() < deadline) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (exited_ == 2) break;
      }
      sleep_for_ns(1'000'000);
    }
    bool stuck;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stuck = exited_ < 2;
      unfinished_ = stuck;
      cv_.notify_all();
    }
    if (stuck) {
      fleet_.dl_monitor[0]->poison();
      fleet_.dl_monitor[1]->poison();
    }
    for (auto& t : threads_) t.join();
  }

  std::vector<Cycle> cycles() const {
    std::lock_guard<std::mutex> lock(mu_);
    return cycles_;
  }
  bool unfinished() const { return unfinished_; }
  std::uint64_t recovery_faults() const { return recovery_faults_.load(); }
  std::uint64_t failed() const { return failed_.load(); }

 private:
  /// Both threads meet here; the last to arrive runs `last` under the lock.
  bool meet(const std::function<void()>& last) {
    std::unique_lock<std::mutex> lock(mu_);
    const std::uint64_t generation = generation_;
    if (++arrived_ == 2) {
      arrived_ = 0;
      ++generation_;
      if (last) last();
      cv_.notify_all();
      return !unfinished_;
    }
    cv_.wait(lock, [&] { return generation_ != generation || unfinished_; });
    return !unfinished_ && generation_ != generation;
  }

  rt::Status acquire(int t, int d, std::uint64_t& appends) {
    return fleet_.dl_alloc[d]->acquire(static_cast<trace::Pid>(701 + t),
                                       appends);
  }
  void release(int t, int d, std::uint64_t& appends) {
    if (fleet_.dl_alloc[d]->release(static_cast<trace::Pid>(701 + t),
                                    appends) != rt::Status::kOk) {
      failed_.fetch_add(1);
    }
  }

  void body(int t) {
    const int first = t;
    const int second = 1 - t;
    std::uint64_t appends = 0;
    while (true) {
      // Round start: both monitors back in service, seeded gap, go.
      bool go = meet([&] {
        gap_ns_ = static_cast<std::int64_t>(rng_() % 3'000'000) + 1'000'000;
        start_ok_ = !rc_.stop.load();
      });
      if (!go || !start_ok_) break;
      sleep_for_ns(t == 0 ? gap_ns_ : 0);
      if (!meet(nullptr)) break;
      if (acquire(t, first, appends) != rt::Status::kOk) {
        failed_.fetch_add(1);
        break;
      }
      if (!meet(nullptr)) break;  // both hold their first monitor
      request_at_[t] = now_ns();
      rt::Status status = acquire(t, second, appends);
      while (status == rt::Status::kRecoveryFault) {
        // Victim: back off, let the other thread cross, retry the crossing.
        recovery_faults_.fetch_add(1);
        release(t, first, appends);
        status = acquire(t, first, appends);
        if (status == rt::Status::kOk) status = acquire(t, second, appends);
        if (status == rt::Status::kRecoveryFault) sleep_for_ns(100'000);
      }
      if (status != rt::Status::kOk) {
        failed_.fetch_add(1);
        break;
      }
      crossed_at_[t] = now_ns();
      release(t, second, appends);
      release(t, first, appends);
      if (!meet([&] {
            cycles_.push_back({std::max(request_at_[0], request_at_[1]),
                               std::max(crossed_at_[0], crossed_at_[1])});
          })) {
        break;
      }
      if (t == 0) {
        // Recovery completes at the next wait-for pass that sees the cycle
        // gone; a new round on a still-poisoned monitor could not close.
        const std::int64_t limit = now_ns() + 2'000'000'000;
        while ((fleet_.dl_monitor[0]->recovery_poisoned() ||
                fleet_.dl_monitor[1]->recovery_poisoned()) &&
               now_ns() < limit) {
          sleep_for_ns(200'000);
        }
      }
    }
    std::lock_guard<std::mutex> lock(mu_);
    ++exited_;
    cv_.notify_all();
  }

  Fleet& fleet_;
  RunControl& rc_;
  std::mt19937_64 rng_;
  std::thread threads_[2];
  mutable std::mutex mu_;  // guards the round state below
  std::condition_variable cv_;
  int arrived_ = 0;
  std::uint64_t generation_ = 0;
  int exited_ = 0;
  bool unfinished_ = false;
  bool start_ok_ = true;
  std::int64_t gap_ns_ = 0;
  std::int64_t request_at_[2] = {0, 0};
  std::int64_t crossed_at_[2] = {0, 0};
  std::vector<Cycle> cycles_;
  std::atomic<std::uint64_t> recovery_faults_{0};
  std::atomic<std::uint64_t> failed_{0};
};

struct FleetResult {
  std::uint64_t generator_appends = 0;
  std::vector<double> lag_ns;
};

/// The open-loop generator; returns when rc.stop is raised.
void run_generator(Fleet& fleet, RunControl& rc, const Args& args,
                   std::vector<FaultPlan>& faults, OpLog& log,
                   FleetResult& result, Checks& checks) {
  const SpanNames& n = SpanNames::get();
  std::mt19937_64 rng(args.seed);
  std::vector<bool> retired(kFleetMonitors, false);
  std::vector<bool> reserved(kFleetMonitors, false);  // faulty, not yet hit
  for (const FaultPlan& f : faults) reserved[f.monitor] = true;
  std::size_t next_fault = 0;
  const trace::Pid pid = 1;
  rmb::Sampler lag;
  bool in_order = true;

  // Op plan for one batch: (kind, monitor) where kind 0 send, 1 receive,
  // 2 acquire, 3 release.
  // Each side's buffers fill alike: `count` is per side.
  std::vector<std::pair<int, std::size_t>> plan;
  std::vector<std::size_t> counts[2] = {
      std::vector<std::size_t>(kFleetMonitors, 0),
      std::vector<std::size_t>(kFleetMonitors, 0)};
  const auto draw_batch = [&](int side) {
    std::vector<std::size_t>& count = counts[side];
    plan.clear();
    while (static_cast<std::int64_t>(plan.size()) < kFleetOpsPerBatch) {
      const std::size_t i = rng() % kFleetMonitors;
      if (retired[i]) continue;
      if (i % 2 == 0) {
        if (reserved[i]) continue;  // stays empty until its fault
        const bool send = count[i] == 0 ||
                          (count[i] < static_cast<std::size_t>(kFleetCapacity) &&
                           rng() % 2 == 0);
        plan.emplace_back(send ? 0 : 1, i);
        if (send) {
          ++count[i];
        } else {
          --count[i];
        }
      } else {
        std::size_t j = kFleetMonitors;
        if (rng() % 2 == 0) {
          const std::size_t pick = i + 2 * (1 + rng() % 8);
          if (pick < kFleetMonitors && !retired[pick]) j = pick;
        }
        plan.emplace_back(2, i);
        if (j < kFleetMonitors) plan.emplace_back(2, j);
        if (j < kFleetMonitors) plan.emplace_back(3, j);
        plan.emplace_back(3, i);
      }
    }
  };

  std::int64_t items[2] = {0, 0};
  // Wall time from each batch's start to its last op, per window: the
  // generator's work (its ops do not block).  The rest of its CPU time is
  // spinning until the next batch is due.  Timing the spin with the thread
  // CPU clock instead would put two system calls into every batch.
  std::vector<std::int64_t> work_ns(log.ops.size(), 0);
  ThreadCpu cpu(log);
  const std::int64_t run_start = now_ns() + 1'000'000;
  rmb::ArrivalSchedule schedule(args.seed, kFleetMeanGapNs, run_start);
  while (!rc.stop.load(std::memory_order_relaxed)) {
    const std::int64_t due = schedule.next_due();
    const int wait_window = rc.window.load(std::memory_order_relaxed);
    cpu.at(wait_window);
    // Before the batch is due, untimed: inject the faults due by then and
    // draw the batch's ops.
    while (next_fault < faults.size() &&
           run_start + faults[next_fault].at_offset_ns <= due) {
      FaultPlan& f = faults[next_fault++];
      const trace::Pid injector = 9000 + static_cast<trace::Pid>(f.monitor);
      f.injected_at = now_ns();
      if (f.monitor % 2 == 0) {
        fleet.buffers[f.monitor]->fabricated_receive(injector,
                                                     result.generator_appends);
      } else {
        fleet.allocators[f.monitor]->release_unheld(injector,
                                                    result.generator_appends);
      }
      retired[f.monitor] = true;
    }
    const int side = rc.reference(wait_window) ? 1 : 0;
    auto& shadow = fleet.shadow[side];
    draw_batch(side);
    wait_until(due);
    rc.mark_first_op();
    const std::int64_t start = now_ns();
    for (const auto& [kind, i] : plan) {
      const int w = rc.window.load(std::memory_order_relaxed);
      cpu.at(w);
      rt::Status status = rt::Status::kOk;
      if (side == 1) {
        switch (kind) {
          case 0:
            fleet.plain_buffers[i]->send(items[1]);
            shadow[i].push_back(items[1]++);
            break;
          case 1: {
            const std::int64_t got = fleet.plain_buffers[i]->receive();
            in_order = in_order && !shadow[i].empty() &&
                       shadow[i].front() == got;
            if (!shadow[i].empty()) shadow[i].pop_front();
            break;
          }
          case 2:
            fleet.plain_allocators[i]->acquire();
            break;
          default:
            fleet.plain_allocators[i]->release();
            break;
        }
      } else {
        static const std::uint32_t* const kNames[] = {&n.send, &n.receive,
                                                      &n.acquire, &n.release};
        rmb::OpScope op(*kNames[kind], log.ops[w], kFleetSampling);
        std::int64_t got = 0;
        switch (kind) {
          case 0:
            status = fleet.buffers[i]->send(pid, items[0], log.appends);
            shadow[i].push_back(items[0]++);
            break;
          case 1:
            status = fleet.buffers[i]->receive(pid, &got, log.appends);
            in_order = in_order && !shadow[i].empty() &&
                       shadow[i].front() == got;
            if (!shadow[i].empty()) shadow[i].pop_front();
            break;
          case 2:
            status = fleet.allocators[i]->acquire(pid, log.appends);
            break;
          default:
            status = fleet.allocators[i]->release(pid, log.appends);
            break;
        }
      }
      if (status != rt::Status::kOk) {
        ++log.failed;
        continue;
      }
      log.latency[w].add(static_cast<double>(now_ns() - due));
      ++log.ops[w];
    }
    const std::int64_t end = now_ns();
    work_ns[static_cast<std::size_t>(wait_window)] += end - start;
    lag.add(static_cast<double>(rmb::lateness_ns(due, start)));
  }
  cpu.flush();
  for (std::size_t w = 0; w < work_ns.size(); ++w) {
    log.idle_cpu_ns[w] =
        std::max<std::int64_t>(0, log.app_cpu_ns[w] - work_ns[w]);
  }
  result.lag_ns = rmb::merge_samplers({&lag});
  checks.expect(in_order, "fleet: a buffer returned items out of order");
  for (std::size_t i = 0; i < kFleetMonitors; i += 2) {
    checks.expect(fleet.buffers[i]->count() == fleet.shadow[0][i].size() &&
                      fleet.plain_buffers[i]->count() ==
                          fleet.shadow[1][i].size(),
                  "fleet: items sent != items received + items held");
  }
  for (std::size_t i = 1; i < kFleetMonitors; i += 2) {
    checks.expect(fleet.allocators[i]->units() == 1 &&
                      fleet.plain_allocators[i]->units() == 1,
                  "fleet: allocator units not conserved");
  }
}

bool names_pair(const std::string& message) {
  return message.find("fleet.dl.0") != std::string::npos &&
         message.find("fleet.dl.1") != std::string::npos;
}

int run_fleet(const Args& args) {
  // The pool worker, the deadlock pair and the timer share CPUs 0–2; the
  // generator (this thread) moves to CPU 3 once they have started.
  rmb::pin_to(0, 2);
  RunControl rc(args);
  Checks checks;
  OpLog log(args);
  FleetResult result;
  auto fleet = std::make_unique<Fleet>(/*retain=*/args.trace);

  // Seeded fault plan: half coordinators, half allocators, spread over the
  // middle of the run so each is checked several times after injection.
  std::mt19937_64 plan_rng(args.seed * 7919 + 17);
  std::vector<FaultPlan> faults;
  std::vector<std::size_t> order(kFleetMonitors);
  for (std::size_t i = 0; i < kFleetMonitors; ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), plan_rng);
  std::size_t coordinators = 0, allocators = 0;
  const auto span_ns = static_cast<std::int64_t>(args.seconds * 1e9);
  for (std::size_t i : order) {
    std::size_t& taken = i % 2 == 0 ? coordinators : allocators;
    if (taken == kFleetFaulty / 2) continue;
    ++taken;
    faults.push_back({span_ns / 10 + static_cast<std::int64_t>(
                                         plan_rng() % static_cast<std::uint64_t>(
                                                          span_ns * 7 / 10 + 1)),
                      i, 0});
  }
  std::sort(faults.begin(), faults.end(),
            [](const FaultPlan& a, const FaultPlan& b) {
              return a.at_offset_ns < b.at_offset_ns;
            });

  for (rt::RobustMonitor* m : fleet->all_monitors()) m->start_checking();
  DeadlockPair pair(*fleet, rc, args.seed);
  std::thread timer([&] { rc.time_windows(); });
  pair.start();
  rmb::pin_to(3, 3);
  run_generator(*fleet, rc, args, faults, log, result, checks);
  timer.join();
  pair.finish(3'000'000'000);
  for (rt::RobustMonitor* m : fleet->all_monitors()) m->stop_checking();
  // Final synchronous check: drains every tail segment.
  for (rt::RobustMonitor* m : fleet->all_monitors()) m->check_now();

  rmb::JsonObject out;
  out.str("workload", "fleet");
  out.integer("first_op_ns", rc.first_op_ns.load());
  out.num("setup_rss_mb", rc.setup_rss_mb);

  // Injected per-monitor faults: each must be reported on its own monitor's
  // sink with the expected kind; any other report is a false report.
  std::size_t injected = 0, missed = 0, false_reports = 0;
  // The first few misses and false reports, named in the check failures.
  std::vector<std::string> notes;
  const auto note = [&](const std::string& what, const TimedSink::Entry* e) {
    if (notes.size() >= 8) return;
    notes.push_back(e == nullptr ? what
                                 : what + " [" + std::string(core::to_string(e->rule)) +
                                       "] " + e->message.substr(0, 200));
  };
  for (std::size_t i = 0; i < kFleetMonitors; ++i) {
    const FaultPlan* plan = nullptr;
    for (const FaultPlan& f : faults) {
      if (f.monitor == i && f.injected_at != 0) plan = &f;
    }
    const core::FaultKind expected = i % 2 == 0
                                         ? core::FaultKind::kReceiveExceedsSend
                                         : core::FaultKind::kReleaseBeforeAcquire;
    bool matched = false;
    for (const auto& e : fleet->sinks[i]->entries()) {
      if (plan != nullptr && e.at >= plan->injected_at) {
        matched = matched || e.suspected == expected;
      } else {
        ++false_reports;
        note("false report on " + fleet->monitors[i]->spec().name, &e);
      }
    }
    if (plan != nullptr) {
      ++injected;
      if (!matched) {
        ++missed;
        note("no matching report on " + fleet->monitors[i]->spec().name,
             nullptr);
      }
    }
  }
  for (int d = 0; d < 2; ++d) {
    for (const auto& e : fleet->dl_sink[d].entries()) {
      ++false_reports;
      note("false report on fleet.dl." + std::to_string(d), &e);
    }
  }

  // Injected cycles: each needs a wait-for report naming both monitors.
  const auto cycle_reports = fleet->waitfor_sink.entries();
  for (const auto& e : cycle_reports) {
    if (e.rule != core::RuleId::kWfCycleDetected || !names_pair(e.message)) {
      ++false_reports;
      note("false wait-for report", &e);
    }
  }
  for (const auto& e : fleet->lockorder_sink.entries()) {
    if (!names_pair(e.message)) {
      ++false_reports;
      note("false lock-order report", &e);
    }
  }
  std::vector<double> detect_ns, recover_ns;
  const std::vector<Cycle> cycles = pair.cycles();
  for (const Cycle& c : cycles) {
    ++injected;
    std::int64_t first = 0;
    for (const auto& e : cycle_reports) {
      if (e.at >= c.closed_at && e.at <= c.crossed_at &&
          e.rule == core::RuleId::kWfCycleDetected && names_pair(e.message)) {
        first = first == 0 ? e.at : std::min(first, e.at);
      }
    }
    if (first == 0) {
      ++missed;
      note("cycle closed " + std::to_string((c.crossed_at - c.closed_at) / 1000) +
               " us before its crossing with no wait-for report in between",
           nullptr);
      continue;
    }
    detect_ns.push_back(static_cast<double>(first - c.closed_at));
    recover_ns.push_back(static_cast<double>(c.crossed_at - c.closed_at));
  }
  if (pair.unfinished()) {
    ++injected;
    ++missed;
    note("the last cycle never completed", nullptr);
  }

  checks.expect(fleet->dl_alloc[0]->units() + fleet->dl_alloc[1]->units() == 2 ||
                    pair.unfinished(),
                "fleet.dl: allocator units not conserved");
  std::uint64_t appended = 0, lost = 0;
  for (auto& m : fleet->monitors) {
    appended += m->monitor().log().total_appended();
    lost += m->monitor().log().events_lost();
  }
  checks.expect(appended + lost == log.appends + result.generator_appends,
                "fleet: total_appended + events_lost != append calls");
  checks.expect(missed == 0, "fleet: injected faults with no matching report");
  checks.expect(false_reports == 0, "fleet: reports naming clean monitors");
  for (const std::string& n : notes) checks.expect(false, "fleet: " + n);

  const std::vector<const OpLog*> all = {&log};
  if (!args.trace) put_paired(out, all, rc);
  if (args.trace) {
    const double untraced_cpu = put_phase(out, "", all, rc, 0);
    const double traced_cpu = put_phase(out, "traced.", all, rc, 1);
    out.num("trace.overhead_cpu_frac", traced_cpu / untraced_cpu - 1.0);
    put_span_layers(out);
  }
  // Detection figures come only from enough cycles to leave ten samples
  // beyond the p95; otherwise they are left out, and a traced run fails for
  // want of them.
  const std::size_t beyond =
      detect_ns.empty() ? 0 : rmb::samples_beyond(detect_ns.size(), 95);
  out.integer("detect_p95_ms.beyond", static_cast<std::int64_t>(beyond));
  if (beyond >= 10) {
    const rmb::Percentile p50 = rmb::percentile(detect_ns, 50, 10);
    out.num("detect_p50_ms", p50.value / 1e6);
    out.integer("detect_p50_ms.samples", static_cast<std::int64_t>(p50.samples));
    out.num("detect_p95_ms", rmb::percentile(detect_ns, 95, 10).value / 1e6);
    out.num("recover_p50_ms", rmb::percentile(recover_ns, 50, 10).value / 1e6);
  }
  out.integer("cycles", static_cast<std::int64_t>(cycles.size()));
  out.integer("recovery_faults",
              static_cast<std::int64_t>(pair.recovery_faults()));
  if (!result.lag_ns.empty() &&
      rmb::samples_beyond(result.lag_ns.size(), 99) >= 10) {
    const rmb::Percentile lag = rmb::percentile(result.lag_ns, 99, 10);
    out.num("loadgen.lag_p99_us", lag.value / 1e3);
    out.integer("loadgen.lag_p99_us.samples",
                static_cast<std::int64_t>(lag.samples));
  }
  if (args.trace) {
    std::uint64_t events = 0;
    for (rt::RobustMonitor* m : fleet->all_monitors()) {
      events += m->monitor().log().total_appended();
    }
    measure_pool(out, fleet->pool, fleet->all_monitors(), events,
                 /*checkpoints=*/true);
    measure_trace_layer(
        out,
        static_cast<double>(events) /
            static_cast<double>(
                std::max<std::uint64_t>(fleet->pool.checks_executed(), 1)),
        checks);
    std::vector<trace::TraceFile> files;
    for (std::size_t i = 0; i < kFleetMonitors; ++i) {
      bool faulty = false;
      for (const FaultPlan& f : faults) faulty = faulty || f.monitor == i;
      if (!faulty) files.push_back(fleet->monitors[i]->export_trace());
    }
    measure_core(out, files, checks);
    measure_pathexpr(out);
    measure_uninstrumented(out);
  }
  const std::uint64_t failed = log.failed + pair.failed();
  std::uint64_t attempted = failed;
  for (std::uint64_t ops : log.ops) attempted += ops;
  out.integer("attempted", static_cast<std::int64_t>(attempted));
  out.integer("failed_ops", static_cast<std::int64_t>(failed));
  out.integer("injected_faults", static_cast<std::int64_t>(injected));
  out.integer("missed_faults", static_cast<std::int64_t>(missed));
  out.integer("false_reports", static_cast<std::int64_t>(false_reports));
  out.num("peak_rss_mb", rmb::peak_rss_mb());
  out.boolean("correct", checks.failures.empty());
  out.str("check_failures", checks.joined());
  if (args.trace) {
    rmb::SpanRecorder::instance().write_jsonl(
        args.out_dir + "/spans-fleet-" + std::to_string(args.seed) + ".jsonl");
  }
  std::printf("%s\n", out.text().c_str());
  return 0;
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value());
    } else if (flag == "--trace") {
      args.trace = value() == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value();
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!(args.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);
    if (args.workload == "hot-monitor") return run_hot_monitor(args);
    if (args.workload == "fleet") return run_fleet(args);
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "robmonbench_native: %s\n", e.what());
    return 1;
  }
}
