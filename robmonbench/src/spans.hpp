// Span recorder for the benchmark's traced runs.
//
// A span is one timed call across a layer boundary: name, start, end, the
// span that caused it (parent) and the app op it belongs to — every span of
// one op shares that op's id.  Ops are sampled, 1 in N per op stream, and
// each span carries N as its weight, so streams sampled at different rates
// add up to unbiased per-layer totals.  Spans are kept in per-thread memory,
// never written while the benchmark runs, and written out as JSON lines at
// the end.  Self time is a span's duration minus the part of it covered by
// its children.
//
// The recorder wraps the benchmark's own calls into each layer's public
// functions; it puts nothing inside the program under test.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace rmb {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root of its op.
  std::uint64_t op = 0;      ///< Shared by every span of one app op.
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t name = 0;    ///< SpanRecorder::intern() id.
  std::uint32_t weight = 1;  ///< Ops this sampled op stands for.
};

/// Per-name totals over a span set, each span counted `weight` times.
struct LayerTime {
  std::uint64_t spans = 0;  ///< Spans recorded.
  double count = 0.0;       ///< Calls they stand for.
  double total_ns = 0.0;
  double self_ns = 0.0;
};

/// Self time per span name: each span's duration minus the union of its
/// children's intervals (clipped to the span).  Pure, so it is testable.
std::map<std::uint32_t, LayerTime> self_times(const std::vector<Span>& spans);

class SpanRecorder {
 public:
  static SpanRecorder& instance();

  /// Off by default: untraced runs record nothing.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  std::uint32_t intern(const std::string& name);
  std::string name_of(std::uint32_t id) const;

  /// Every span recorded so far.  Call only once the recording threads
  /// have been joined: a thread's buffer is written without a lock.
  std::vector<Span> collect() const;
  std::uint64_t dropped() const;
  /// Self time keyed by span name.
  std::map<std::string, LayerTime> layer_times() const;
  /// One JSON object per span; returns false when the file cannot be
  /// written.
  bool write_jsonl(const std::string& path) const;

  /// Thread-local recording state; used by the scopes below.
  struct ThreadState;
  static ThreadState& local();

 private:
  SpanRecorder() = default;
  struct Buffer;
  Buffer& register_thread();

  /// Spin lock rather than a pthread mutex: under the LD_PRELOAD shim a
  /// pthread mutex here would itself become an observed monitor.
  class SpinGuard {
   public:
    explicit SpinGuard(std::atomic_flag& flag) : flag_(flag) {
      while (flag_.test_and_set(std::memory_order_acquire)) {
      }
    }
    ~SpinGuard() { flag_.clear(std::memory_order_release); }
    SpinGuard(const SpinGuard&) = delete;
    SpinGuard& operator=(const SpinGuard&) = delete;

   private:
    std::atomic_flag& flag_;
  };

  std::atomic<bool> enabled_{false};
  mutable std::atomic_flag lock_ = ATOMIC_FLAG_INIT;  // names_, buffers_
  std::vector<std::string> names_;
  std::vector<std::shared_ptr<Buffer>> buffers_;
};

/// Root span of one app op.  Inactive unless recording is on and the op is
/// sampled: 1 in `every` ops of its stream, chosen by a hash of `op_index`.
class OpScope {
 public:
  OpScope(std::uint32_t name, std::uint64_t op_index, std::uint32_t every);
  ~OpScope();
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

 private:
  bool active_ = false;
  Span span_;
};

/// Child span inside the current op (active only while a sampled OpScope
/// is open on this thread).
class SpanScope {
 public:
  explicit SpanScope(std::uint32_t name);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  bool active_ = false;
  Span span_;
};

}  // namespace rmb
