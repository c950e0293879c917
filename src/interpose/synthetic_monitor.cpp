#include "interpose/synthetic_monitor.hpp"

#include <algorithm>
#include <utility>

namespace robmon::interpose {

SyntheticMonitor::SyntheticMonitor(std::string name, Kind kind,
                                   const util::Clock& clock,
                                   const Config& config)
    : kind_(kind),
      retain_history_(config.retain_history),
      spec_(core::MonitorSpec::manager(std::move(name))),
      clock_(&clock),
      ring_(config.ring_capacity) {
  spec_.check_period = config.check_period;
  proc_lock_ = symbols_.intern("lock");
  proc_wait_ = symbols_.intern("wait");
  proc_signal_ = symbols_.intern("signal");
  cond_sym_ = symbols_.intern("cond");
}

void SyntheticMonitor::lock_blocked(Tid tid) {
  push(OpKind::kLockBlocked, tid);
}

void SyntheticMonitor::lock_acquired(Tid tid) {
  push(OpKind::kLockAcquired, tid);
}

void SyntheticMonitor::lock_cancelled(Tid tid) {
  push(OpKind::kLockCancelled, tid);
}

void SyntheticMonitor::unlocked(Tid tid) { push(OpKind::kUnlocked, tid); }

void SyntheticMonitor::cond_parked(Tid tid) { push(OpKind::kCondParked, tid); }

void SyntheticMonitor::cond_unparked(Tid tid) {
  push(OpKind::kCondUnparked, tid);
}

void SyntheticMonitor::cond_signalled(Tid tid, bool broadcast) {
  push(OpKind::kCondSignalled, tid, broadcast);
}

void SyntheticMonitor::reset() { push(OpKind::kReset, kNoTid); }

void SyntheticMonitor::push(OpKind kind, Tid tid, bool flag) {
  // A block or a park starts an episode and an acquisition a hold, so
  // their state carries a time; every other op needs one only for its
  // record.
  const bool timed = kind == OpKind::kLockBlocked ||
                     kind == OpKind::kLockAcquired ||
                     kind == OpKind::kCondParked || retain_history_;
  const Op op{kind, tid, timed ? clock_->now_ns() : 0, flag};
  if (ring_.try_push(op)) return;
  // Ring full (the pool's drain cadence fell behind a burst): apply the
  // backlog plus this op inline.  The producer pays one bounded mutex
  // acquisition — apply_mu_ is only ever held for short folds, never
  // across an application lock — and nothing is dropped.
  std::lock_guard<std::mutex> lock(apply_mu_);
  apply_pending_locked();
  apply_locked(op);
  backpressure_syncs_.fetch_add(1, std::memory_order_relaxed);
}

void SyntheticMonitor::apply_pending_locked() const {
  ring_.consume([this](const Op& op) { apply_locked(op); });
}

void SyntheticMonitor::erase_entry_wait(Tid tid) const {
  const auto it = std::find_if(
      entry_queue_.begin(), entry_queue_.end(),
      [tid](const trace::QueueEntry& entry) { return entry.pid == tid; });
  if (it != entry_queue_.end()) entry_queue_.erase(it);
}

void SyntheticMonitor::apply_locked(const Op& op) const {
  switch (op.kind) {
    case OpKind::kLockBlocked:
      entry_queue_.push_back({op.tid, proc_lock_, op.time, ++next_ticket_});
      record_locked(
          trace::EventRecord::enter(op.tid, proc_lock_, false, op.time));
      break;
    case OpKind::kLockAcquired: {
      const std::size_t queued = entry_queue_.size();
      erase_entry_wait(op.tid);
      if (owner_ == op.tid) {
        ++owner_depth_;  // Recursive re-acquisition.
      } else {
        owner_ = op.tid;
        owner_depth_ = 1;
        owner_since_ = op.time;
        owner_ticket_ = ++next_ticket_;
      }
      // Reduced recording model: a blocked request was recorded at block
      // time and its resume is implied; only a fast-path acquire records
      // a fresh (immediately admitted) Enter.
      if (entry_queue_.size() == queued) {
        record_locked(
            trace::EventRecord::enter(op.tid, proc_lock_, true, op.time));
      }
      break;
    }
    case OpKind::kLockCancelled:
      erase_entry_wait(op.tid);
      break;
    case OpKind::kUnlocked:
      // Guarded: an unlock from a thread the adapter never saw acquire
      // (pthread_mutex_timedlock is unobserved) is a no-op.
      if (owner_ == op.tid) {
        if (--owner_depth_ == 0) {
          owner_ = kNoTid;
          owner_since_ = 0;
          owner_ticket_ = 0;
          record_locked(trace::EventRecord::signal_exit(
              op.tid, proc_lock_, trace::kNoSymbol, !entry_queue_.empty(),
              op.time));
        }
      }
      break;
    case OpKind::kCondParked:
      cond_queue_.push_back({op.tid, proc_wait_, op.time, ++next_ticket_});
      record_locked(
          trace::EventRecord::wait(op.tid, proc_wait_, cond_sym_, op.time));
      break;
    case OpKind::kCondUnparked: {
      const auto it = std::find_if(
          cond_queue_.begin(), cond_queue_.end(),
          [&op](const trace::QueueEntry& entry) { return entry.pid == op.tid; });
      if (it != cond_queue_.end()) cond_queue_.erase(it);
      break;
    }
    case OpKind::kCondSignalled:
      record_locked(trace::EventRecord::signal_exit(
          op.tid, proc_signal_, cond_sym_, !cond_queue_.empty(), op.time));
      break;
    case OpKind::kReset:
      entry_queue_.clear();
      cond_queue_.clear();
      owner_ = kNoTid;
      owner_depth_ = 0;
      owner_since_ = 0;
      owner_ticket_ = 0;
      break;
  }
}

void SyntheticMonitor::record_locked(const trace::EventRecord& event) const {
  ++segment_events_;
  if (!retain_history_) return;
  if (segment_.size() >= kMaxSegmentRecords) {
    lost_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  segment_.push_back(event);
  segment_.back().seq = next_seq_++;
}

std::vector<trace::EventRecord> SyntheticMonitor::drain_segment() {
  std::lock_guard<std::mutex> lock(apply_mu_);
  apply_pending_locked();
  // The archive is the one copy (retention only; both are empty without).
  archive_.insert(archive_.end(), segment_.begin(), segment_.end());
  segment_events_ = 0;
  std::vector<trace::EventRecord> records;
  records.swap(segment_);
  return records;
}

std::size_t SyntheticMonitor::discard_segment() {
  std::lock_guard<std::mutex> lock(apply_mu_);
  apply_pending_locked();
  archive_.insert(archive_.end(), segment_.begin(), segment_.end());
  segment_.clear();
  return std::exchange(segment_events_, 0);
}

std::vector<trace::EventRecord> SyntheticMonitor::history() const {
  std::lock_guard<std::mutex> lock(apply_mu_);
  apply_pending_locked();
  std::vector<trace::EventRecord> records;
  records.reserve(archive_.size() + segment_.size());
  records.insert(records.end(), archive_.begin(), archive_.end());
  records.insert(records.end(), segment_.begin(), segment_.end());
  return records;
}

trace::SchedulingState SyntheticMonitor::snapshot() const {
  std::lock_guard<std::mutex> lock(apply_mu_);
  apply_pending_locked();
  trace::SchedulingState state;
  state.captured_at = clock_->now_ns();
  if (kind_ == Kind::kMutex) {
    state.entry_queue = entry_queue_;
    if (owner_ != kNoTid) {
      // The owner appears twice, deliberately: Running is the mutex-hold
      // edge entry-queue waits pair with (wait-for graph), holders[] is
      // what the lock-order relation's certified-interval join reads.
      state.running = owner_;
      state.running_proc = proc_lock_;
      state.running_since = owner_since_;
      state.running_ticket = owner_ticket_;
      state.holders.push_back(
          {owner_, owner_depth_, owner_since_, owner_ticket_});
    }
  } else {
    state.cond_queues.push_back({cond_sym_, cond_queue_});
  }
  return state;
}

}  // namespace robmon::interpose
