#include "spans.hpp"

#include <algorithm>
#include <fstream>
#include <unordered_map>

namespace rmb {

namespace {
/// SplitMix64 finaliser: sampling on a hash of the op index instead of the
/// index itself keeps the sample from locking onto a periodic op pattern
/// (a producer that waits on every 8th Send, say).
std::uint64_t sample_hash(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

constexpr std::size_t kMaxSpansPerThread = std::size_t{1} << 18;
constexpr int kMaxDepth = 16;
}  // namespace

struct SpanRecorder::Buffer {
  std::vector<Span> spans;  ///< Written by its thread only.
  std::uint64_t dropped = 0;
  std::uint64_t thread_index = 0;
};

struct SpanRecorder::ThreadState {
  Buffer* buffer = nullptr;
  std::uint64_t next_local_id = 1;
  std::uint64_t op = 0;
  bool sampled = false;
  std::uint32_t weight = 1;
  int depth = 0;
  std::uint64_t stack[kMaxDepth] = {};

  std::uint64_t fresh_id() { return (buffer->thread_index << 40) | next_local_id++; }

  void push(const Span& span) {
    if (buffer->spans.size() >= kMaxSpansPerThread) {
      ++buffer->dropped;
      return;
    }
    buffer->spans.push_back(span);
  }
};

SpanRecorder& SpanRecorder::instance() {
  static SpanRecorder recorder;
  return recorder;
}

SpanRecorder::ThreadState& SpanRecorder::local() {
  thread_local ThreadState state;
  if (state.buffer == nullptr) state.buffer = &instance().register_thread();
  return state;
}

SpanRecorder::Buffer& SpanRecorder::register_thread() {
  SpinGuard guard(lock_);
  buffers_.push_back(std::make_shared<Buffer>());
  buffers_.back()->thread_index = buffers_.size();
  return *buffers_.back();
}

std::uint32_t SpanRecorder::intern(const std::string& name) {
  SpinGuard guard(lock_);
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::string SpanRecorder::name_of(std::uint32_t id) const {
  SpinGuard guard(lock_);
  return id < names_.size() ? names_[id] : "?";
}

std::vector<Span> SpanRecorder::collect() const {
  std::vector<std::shared_ptr<Buffer>> buffers;
  {
    SpinGuard guard(lock_);
    buffers = buffers_;
  }
  std::vector<Span> all;
  for (const auto& buffer : buffers) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

std::uint64_t SpanRecorder::dropped() const {
  std::vector<std::shared_ptr<Buffer>> buffers;
  {
    SpinGuard guard(lock_);
    buffers = buffers_;
  }
  std::uint64_t total = 0;
  for (const auto& buffer : buffers) {
    total += buffer->dropped;
  }
  return total;
}

std::map<std::string, LayerTime> SpanRecorder::layer_times() const {
  std::map<std::string, LayerTime> out;
  for (const auto& [id, time] : self_times(collect())) out[name_of(id)] = time;
  return out;
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  std::ofstream file(path);
  if (!file) return false;
  for (const Span& span : collect()) {
    file << "{\"id\":" << span.id << ",\"parent\":" << span.parent
         << ",\"op\":" << span.op << ",\"weight\":" << span.weight
         << ",\"name\":\"" << name_of(span.name)
         << "\",\"start_ns\":" << span.start_ns << ",\"end_ns\":"
         << span.end_ns << "}\n";
  }
  return static_cast<bool>(file);
}

std::map<std::uint32_t, LayerTime> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& span : spans) {
    if (span.parent != 0) children[span.parent].push_back(&span);
  }
  std::map<std::uint32_t, LayerTime> out;
  for (const Span& span : spans) {
    const double duration = static_cast<double>(span.end_ns - span.start_ns);
    double covered = 0.0;
    if (auto it = children.find(span.id); it != children.end()) {
      std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
      for (const Span* child : it->second) {
        const std::int64_t lo = std::max(child->start_ns, span.start_ns);
        const std::int64_t hi = std::min(child->end_ns, span.end_ns);
        if (hi > lo) intervals.emplace_back(lo, hi);
      }
      std::sort(intervals.begin(), intervals.end());
      std::int64_t run_lo = 0;
      std::int64_t run_hi = 0;
      bool open = false;
      for (const auto& [lo, hi] : intervals) {
        if (open && lo <= run_hi) {
          run_hi = std::max(run_hi, hi);
          continue;
        }
        if (open) covered += static_cast<double>(run_hi - run_lo);
        run_lo = lo;
        run_hi = hi;
        open = true;
      }
      if (open) covered += static_cast<double>(run_hi - run_lo);
    }
    LayerTime& layer = out[span.name];
    const double weight = span.weight;
    ++layer.spans;
    layer.count += weight;
    layer.total_ns += weight * duration;
    layer.self_ns += weight * (duration - covered);
  }
  return out;
}

OpScope::OpScope(std::uint32_t name, std::uint64_t op_index,
                 std::uint32_t every) {
  if (!SpanRecorder::instance().enabled() || every == 0 ||
      sample_hash(op_index) % every != 0) {
    return;
  }
  auto& state = SpanRecorder::local();
  active_ = true;
  state.weight = every;
  span_.weight = every;
  span_.id = state.fresh_id();
  span_.op = span_.id;
  span_.name = name;
  state.op = span_.id;
  state.sampled = true;
  state.depth = 1;
  state.stack[0] = span_.id;
  span_.start_ns = now_ns();
}

OpScope::~OpScope() {
  if (!active_) return;
  span_.end_ns = now_ns();
  auto& state = SpanRecorder::local();
  state.sampled = false;
  state.depth = 0;
  state.push(span_);
}

SpanScope::SpanScope(std::uint32_t name) {
  if (!SpanRecorder::instance().enabled()) return;
  auto& state = SpanRecorder::local();
  if (!state.sampled || state.depth >= kMaxDepth) return;
  active_ = true;
  span_.id = state.fresh_id();
  span_.parent = state.stack[state.depth - 1];
  span_.op = state.op;
  span_.name = name;
  span_.weight = state.weight;
  state.stack[state.depth++] = span_.id;
  span_.start_ns = now_ns();
}

SpanScope::~SpanScope() {
  if (!active_) return;
  span_.end_ns = now_ns();
  auto& state = SpanRecorder::local();
  --state.depth;
  state.push(span_);
}

}  // namespace rmb
