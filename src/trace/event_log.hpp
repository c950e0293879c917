// Append-only scheduling-event log — the event half of the paper's history
// information database (Fig. 1).  The data-gathering routines append in real
// time; the periodic checker drains the segment recorded since the previous
// checking point ("most of the information can be removed after being used",
// Section 3.3).  Optional full retention supports offline FD-Rule validation
// and trace export.
//
// Single-writer segment log.  Its one production writer, rt::HoareMonitor,
// already serializes every append under the monitor's internal lock, so the
// log takes no lock of its own: the *caller* serializes append(), drain(),
// discard(), history() and set_retention() (HoareMonitor holds mu_ for the
// first four and sets retention before traffic starts).  An append assigns seq = next_seq++ and pushes the record onto the
// current segment, so seqs are dense and in append order — the total order
// Algorithm-1's segment replay depends on.  A drain swaps the segment out
// (no copy, no sort) and reserves the next one to the drained size plus
// half, so steady-state appends never allocate.
//
// Overflow contract: a segment holds at most segment_capacity records (a
// stalled drain cannot grow memory without bound).  Appends past the bound
// are dropped and counted in events_lost() — exact loss accounting, never a
// silent gap; a dropped record consumes no seq.  total_appended() counts
// accepted events only; total_appended() + events_lost() equals the number
// of append() calls.  The trace codec carries the loss count (v5 `loss`
// line) so offline consumers can see ingestion was lossy.
//
// The counters total_appended(), events_lost() and pending() may be read
// from any thread at any time; the single writer updates them with a
// relaxed load and store, not a read-modify-write.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "trace/event.hpp"

namespace robmon::trace {

class EventLog {
 public:
  /// Default per-segment bound (events).
  static constexpr std::size_t kDefaultSegmentCapacity = std::size_t{1} << 20;

  struct Options {
    bool retain_history = false;
    std::size_t segment_capacity = kDefaultSegmentCapacity;
  };

  explicit EventLog(Options options);
  /// `shards` must be 1 (anything else throws std::invalid_argument): the
  /// log has one segment.  The parameter only keeps existing
  /// `EventLog(retain, 1)` call sites compiling; a benchmark change may
  /// drop it.
  explicit EventLog(bool retain_history = false, std::size_t shards = 1);

  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// Append one event, assigning it the next sequence number.  Returns
  /// false when the segment is at its bound: the event is dropped and
  /// counted in events_lost().
  bool append(EventRecord event);

  /// Remove and return the current segment, in append (= seq) order.
  std::vector<EventRecord> drain();

  /// End the segment like drain() — archiving it when retaining — but keep
  /// its buffer and return only its event count.
  std::size_t discard();

  /// Number of accepted events currently buffered (not yet drained).
  std::size_t pending() const;

  /// Total events ever accepted (excludes dropped events).
  std::uint64_t total_appended() const;

  /// Total events dropped at the segment bound — exact.
  std::uint64_t events_lost() const;

  /// When retention is on, every drained or discarded segment is also
  /// archived (and history() additionally includes the pending segment).
  void set_retention(bool retain) { retain_history_ = retain; }
  bool retention() const { return retain_history_; }

  /// Full archive in sequence order (requires retention; empty otherwise).
  std::vector<EventRecord> history() const;

 private:
  /// Single-writer counter bump: the caller serializes every writer.
  static void bump(std::atomic<std::uint64_t>& counter, std::uint64_t by) {
    counter.store(counter.load(std::memory_order_relaxed) + by,
                  std::memory_order_relaxed);
  }
  /// Count the current segment as consumed and archive it when retaining.
  void retire_segment();

  const std::size_t segment_capacity_;
  bool retain_history_;
  std::uint64_t next_seq_ = 0;
  std::vector<EventRecord> segment_;
  std::vector<EventRecord> archive_;

  std::atomic<std::uint64_t> appended_{0};
  std::atomic<std::uint64_t> lost_{0};
  std::atomic<std::uint64_t> drained_{0};
};

}  // namespace robmon::trace
