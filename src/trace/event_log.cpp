#include "trace/event_log.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace robmon::trace {

EventLog::EventLog(Options options)
    : segment_capacity_(options.segment_capacity),
      retain_history_(options.retain_history) {}

EventLog::EventLog(bool retain_history, std::size_t shards)
    : EventLog(Options{.retain_history = retain_history}) {
  if (shards != 1) {
    throw std::invalid_argument("EventLog: shards must be 1");
  }
}

bool EventLog::append(EventRecord event) {
  if (segment_.size() >= segment_capacity_) {
    bump(lost_, 1);
    return false;
  }
  event.seq = next_seq_++;
  segment_.push_back(event);
  bump(appended_, 1);
  return true;
}

void EventLog::retire_segment() {
  bump(drained_, segment_.size());
  if (retain_history_) {
    archive_.insert(archive_.end(), segment_.begin(), segment_.end());
  }
}

std::vector<EventRecord> EventLog::drain() {
  if (segment_.empty()) return {};
  retire_segment();
  std::vector<EventRecord> drained;
  drained.swap(segment_);
  // Headroom of half the drained size: a window up to 1.5x the last one
  // appends without growing the segment under the caller's lock, and the
  // reservation follows the load back down.
  segment_.reserve(
      std::min(drained.size() + drained.size() / 2, segment_capacity_));
  return drained;
}

std::size_t EventLog::discard() {
  const std::size_t count = segment_.size();
  retire_segment();
  segment_.clear();
  return count;
}

std::size_t EventLog::pending() const {
  const std::uint64_t drained = drained_.load(std::memory_order_relaxed);
  const std::uint64_t appended = appended_.load(std::memory_order_relaxed);
  return appended >= drained ? static_cast<std::size_t>(appended - drained)
                             : 0;
}

std::uint64_t EventLog::total_appended() const {
  return appended_.load(std::memory_order_relaxed);
}

std::uint64_t EventLog::events_lost() const {
  return lost_.load(std::memory_order_relaxed);
}

std::vector<EventRecord> EventLog::history() const {
  if (!retain_history_) return {};
  std::vector<EventRecord> out;
  out.reserve(archive_.size() + segment_.size());
  out.insert(out.end(), archive_.begin(), archive_.end());
  out.insert(out.end(), segment_.begin(), segment_.end());
  return out;
}

}  // namespace robmon::trace
