#include "runtime/checker_pool.hpp"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <optional>
#include <stdexcept>
#include <utility>

namespace robmon::rt {

namespace {

/// Floor for the checking cadence: a zero check_period (the paper's
/// per-event "T = 1" request, which the pool does not implement) would turn
/// a worker into a hot spin loop.
constexpr util::TimeNs kMinPeriodNs = 100'000;  // 100us

/// EWMA of drained segment sizes below which a monitor counts as idle for
/// the adaptive-cadence controller.
constexpr double kIdleEventsEwma = 0.5;

/// EWMA weight of the newest drained segment size in the idle estimate.
constexpr double kEventsEwmaAlpha = 0.25;

/// Deadlines and durations are backend wall-clock: Options::clock only feeds
/// the detection rules, so a frozen ManualClock must not stall the cadence.
/// Under SimBackend this is the scheduler's virtual clock, which only a
/// scheduler step can freeze — and then nothing runs at all.
util::TimeNs wall_now() { return sync::backend_now(); }

/// Budgeted check cost is measured on the *thread CPU* clock, not the wall
/// clock: a batch preempted mid-flight on a contended box would otherwise
/// charge the scheduler's time slice to the detection budget and drive
/// spurious degradation.  The spend window itself stays wall-clock (the
/// budget is "checking cycles per wall-clock second").  Falls back to the
/// wall clock where no thread CPU clock exists.
util::TimeNs cpu_now() { return sync::backend_cpu_now(); }

std::size_t clamp_threads(std::size_t requested) {
  const std::size_t hardware =
      std::max<std::size_t>(1, sync::backend_hardware_concurrency());
  if (requested == 0) return hardware;
  return std::min(requested, hardware);
}

}  // namespace

CheckerPool::CheckerPool(Options options)
    : clock_(options.clock),
      configured_threads_(clamp_threads(options.threads)),
      waitfor_period_(options.waitfor_checkpoint_period > 0
                          ? std::max(options.waitfor_checkpoint_period,
                                     kMinPeriodNs)
                          : 0),
      waitfor_sink_(options.waitfor_sink),
      lockorder_period_(options.lockorder_checkpoint_period > 0
                            ? std::max(options.lockorder_checkpoint_period,
                                       kMinPeriodNs)
                            : 0),
      lockorder_sink_(options.lockorder_sink),
      recovery_(options.recovery),
      budget_(options.budget) {
  if (waitfor_period_ > 0 && waitfor_sink_ == nullptr) {
    throw std::invalid_argument(
        "CheckerPool: waitfor_checkpoint_period set without a waitfor_sink");
  }
  if (lockorder_period_ > 0 && lockorder_sink_ == nullptr) {
    throw std::invalid_argument(
        "CheckerPool: lockorder_checkpoint_period set without a "
        "lockorder_sink");
  }
}

CheckerPool::~CheckerPool() {
  {
    std::lock_guard<sync::BackendMutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (sync::BackendThread& worker : workers_) worker.join();
}

CheckerPool::MonitorId CheckerPool::add(EventSink& source,
                                        core::Detector& detector) {
  return add_impl(source, &detector, MonitorOptions{});
}

CheckerPool::MonitorId CheckerPool::add(EventSink& source,
                                        core::Detector& detector,
                                        MonitorOptions options) {
  return add_impl(source, &detector, std::move(options));
}

CheckerPool::MonitorId CheckerPool::add(EventSink& source) {
  return add_impl(source, nullptr, MonitorOptions{});
}

CheckerPool::MonitorId CheckerPool::add(EventSink& source,
                                        MonitorOptions options) {
  return add_impl(source, nullptr, std::move(options));
}

CheckerPool::MonitorId CheckerPool::add_impl(EventSink& source,
                                             core::Detector* detector,
                                             MonitorOptions options) {
  // Detector-less sources pace themselves: cadence (and the timer clamp in
  // update_cadence_locked) come from the source's own spec.
  const util::TimeNs requested_period = detector != nullptr
                                            ? detector->spec().check_period
                                            : source.spec().check_period;
  if (requested_period < 0) {
    throw std::invalid_argument(
        "CheckerPool::add: negative check_period");
  }
  if (options.max_stretch < 1.0) {
    throw std::invalid_argument(
        "CheckerPool::add: max_stretch must be >= 1");
  }
  auto entry = std::make_unique<Entry>();
  entry->monitor = &source;
  entry->detector = detector;
  entry->options = std::move(options);
  // Clamp (not reject) a zero period: callers historically pass 0 meaning
  // "as fast as possible", and the 100 µs floor keeps that from becoming a
  // hot spin on the heap.
  entry->period = std::max(requested_period, kMinPeriodNs);
  entry->effective_period = entry->period;

  std::lock_guard<sync::BackendMutex> lock(mu_);
  const MonitorId id = next_id_++;
  entry->id = id;
  entries_.emplace(id, std::move(entry));
  return id;
}

void CheckerPool::ensure_workers_locked() {
  if (!workers_.empty() || stop_) return;
  workers_.reserve(configured_threads_);
  for (std::size_t i = 0; i < configured_threads_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void CheckerPool::schedule(MonitorId id) {
  std::lock_guard<sync::BackendMutex> lock(mu_);
  auto it = entries_.find(id);
  if (it == entries_.end()) {
    throw std::invalid_argument("CheckerPool::schedule: unknown monitor id");
  }
  Entry& entry = *it->second;
  if (entry.scheduled) return;
  entry.scheduled = true;
  ++entry.generation;
  // A fresh scheduling episode starts at base cadence: stretch retained
  // from a previous idle episode must not defer the first check while new
  // events accumulate.
  entry.stretch = 1.0;
  entry.ewma_events = 0.0;
  entry.effective_period = entry.period;
  // Inline monitors stay off the worker heap — their call sites poll
  // check_inline() — unless budget pressure has offloaded them.
  if (entry.options.instrumentation == CheckInstrumentation::kOffloaded ||
      inline_offloaded_.load(std::memory_order_relaxed)) {
    heap_.push({wall_now() + entry.period, id, entry.generation});
  }
  if (waitfor_enabled() && !checkpoint_scheduled_) {
    heap_.push({wall_now() + waitfor_period_, kCheckpointId, 0});
    checkpoint_scheduled_ = true;
  }
  if (lockorder_enabled() && !lockorder_scheduled_) {
    heap_.push({wall_now() + lockorder_period_, kLockOrderId, 0});
    lockorder_scheduled_ = true;
  }
  ensure_workers_locked();
  work_cv_.notify_all();
}

void CheckerPool::unschedule(MonitorId id) {
  std::unique_lock<sync::BackendMutex> lock(mu_);
  auto it = entries_.find(id);
  if (it == entries_.end()) return;
  Entry& entry = *it->second;
  entry.scheduled = false;
  ++entry.generation;  // invalidates every heap item for this monitor
  idle_cv_.wait(lock, [&entry] { return entry.busy == 0; });
  // Withdraw the wait-for contribution: it would never be refreshed again
  // and every checkpoint would re-derive (and re-validate) candidates from
  // it.  A later check_now()/schedule() re-contributes.
  std::lock_guard<sync::BackendMutex> graph_lock(graph_mu_);
  graph_.erase(id);
}

void CheckerPool::remove(MonitorId id) {
  std::unique_lock<sync::BackendMutex> lock(mu_);
  auto it = entries_.find(id);
  if (it == entries_.end()) return;
  Entry& entry = *it->second;
  entry.scheduled = false;
  ++entry.generation;
  idle_cv_.wait(lock, [&entry] { return entry.busy == 0; });
  EventSink* monitor = entry.monitor;  // outlives its registration
  entries_.erase(it);  // stale heap items are discarded by the workers
  // No check of this monitor is in flight or can start (busy drained above),
  // so nothing can re-contribute this id's edges after the erase.  Per the
  // lifecycle contract (header comment), remove() erases the monitor from
  // BOTH pool-level graphs and re-arms every reported cycle naming it —
  // wait-for and order side handled identically.
  const auto names_monitor = [id](const auto& reported) {
    const auto& monitors = reported.second;
    return std::find(monitors.begin(), monitors.end(), id) != monitors.end();
  };
  {
    std::lock_guard<sync::BackendMutex> graph_lock(graph_mu_);
    graph_.erase(id);
    std::erase_if(reported_cycles_, names_monitor);
  }
  {
    std::lock_guard<sync::BackendMutex> order_lock(lockorder_mu_);
    order_graph_.erase(id);
    std::erase_if(reported_order_cycles_, names_monitor);
  }
  // A sticky poison targeting the removed monitor can never be completed
  // by a later checkpoint (the registration is gone) — clear it NOW, or a
  // still-alive monitor re-registered later would reject blocking calls
  // forever.  `monitor` stays valid here: remove() only unregisters, and
  // busy drained above means no check references it.
  bool was_poisoned = false;
  {
    std::lock_guard<sync::BackendMutex> recovery_lock(recovery_mu_);
    was_poisoned =
        std::erase_if(active_poisons_, [id](const auto& poison) {
          return poison.second == id;
        }) > 0;
  }
  if (was_poisoned) monitor->unpoison();
}

core::Detector::CheckStats CheckerPool::check_now(MonitorId id) {
  Entry* entry = nullptr;
  {
    std::lock_guard<sync::BackendMutex> lock(mu_);
    auto it = entries_.find(id);
    // Unknown or just-removed id: report "no check ran" instead of
    // throwing.  Callers probing mid-churn (the schedule explorer, inline
    // polls racing remove()) cannot atomically check-and-call, so caller
    // discipline is not enforceable here.
    if (it == entries_.end()) return core::Detector::CheckStats{};
    entry = it->second.get();
    ++entry->busy;  // pins the entry: remove() waits for busy == 0
  }
  // The busy pin must drop even if the check throws (e.g. a user
  // on_checkpoint callback), or unschedule()/remove() would block forever.
  struct BusyRelease {
    CheckerPool* pool;
    Entry* entry;
    ~BusyRelease() {
      {
        std::lock_guard<sync::BackendMutex> lock(pool->mu_);
        --entry->busy;
      }
      pool->idle_cv_.notify_all();
    }
  } release{this, entry};
  core::Detector::CheckStats stats;
  bool occupied = false;
  {
    std::lock_guard<sync::BackendMutex> check_lock(entry->check_mu);
    stats = run_check(*entry, clock_->now_ns(), &occupied);
  }
  {
    std::lock_guard<sync::BackendMutex> lock(mu_);
    update_cadence_locked(*entry, stats, occupied);
  }
  return stats;
}

core::Detector::CheckStats CheckerPool::check_inline(MonitorId id) {
  // Inline checks run on the application's thread, so their cost is exactly
  // the in-path overhead the budget bounds: measure and fold every one.
  inline_checks_.fetch_add(1, std::memory_order_relaxed);
  const util::TimeNs started = cpu_now();
  core::Detector::CheckStats stats = check_now(id);
  if (budget_.enabled()) {
    record_budget(cpu_now() - started, wall_now());
  }
  return stats;
}

void CheckerPool::record_budget(util::TimeNs check_ns, util::TimeNs now) {
  const std::optional<trace::BudgetRecord> transition =
      budget_.record_batch(check_ns, now);
  if (transition) apply_budget_transition(*transition);
}

void CheckerPool::apply_budget_transition(
    const trace::BudgetRecord& transition) {
  // The inline↔offloaded flip rides the kStretch boundary: under pressure
  // application threads should not also pay for checking, so the pool takes
  // the inline monitors over; recovery hands them back.
  const auto crossed = [](int level) {
    return level >= static_cast<int>(BudgetLevel::kStretch);
  };
  if (crossed(transition.to) != crossed(transition.from)) {
    set_inline_offloaded(crossed(transition.to));
  }
}

void CheckerPool::set_inline_offloaded(bool offload) {
  std::lock_guard<sync::BackendMutex> lock(mu_);
  if (inline_offloaded_.load(std::memory_order_relaxed) == offload) return;
  inline_offloaded_.store(offload, std::memory_order_relaxed);
  bool pushed = false;
  for (auto& [id, entry] : entries_) {
    if (entry->options.instrumentation != CheckInstrumentation::kInline ||
        !entry->scheduled) {
      continue;
    }
    inline_flips_.fetch_add(1, std::memory_order_relaxed);
    if (offload) {
      heap_.push({wall_now() + entry->effective_period, id,
                  entry->generation});
      pushed = true;
    } else {
      // Invalidate the heap items pushed while offloaded; the call sites'
      // polls resume on their own (they re-read inline_offloaded()).
      ++entry->generation;
    }
  }
  if (pushed) {
    ensure_workers_locked();
    work_cv_.notify_all();
  }
}

std::size_t CheckerPool::thread_count() const {
  std::lock_guard<sync::BackendMutex> lock(mu_);
  return workers_.size();
}

std::size_t CheckerPool::monitor_count() const {
  std::lock_guard<sync::BackendMutex> lock(mu_);
  return entries_.size();
}

std::size_t CheckerPool::scheduled_count() const {
  std::lock_guard<sync::BackendMutex> lock(mu_);
  std::size_t count = 0;
  for (const auto& [id, entry] : entries_) {
    if (entry->scheduled) ++count;
  }
  return count;
}

util::TimeNs CheckerPool::period(MonitorId id) const {
  std::lock_guard<sync::BackendMutex> lock(mu_);
  auto it = entries_.find(id);
  if (it == entries_.end()) {
    throw std::invalid_argument("CheckerPool::period: unknown monitor id");
  }
  return it->second->period;
}

util::TimeNs CheckerPool::effective_period(MonitorId id) const {
  std::lock_guard<sync::BackendMutex> lock(mu_);
  auto it = entries_.find(id);
  if (it == entries_.end()) {
    throw std::invalid_argument(
        "CheckerPool::effective_period: unknown monitor id");
  }
  return it->second->effective_period;
}

double CheckerPool::stretch(MonitorId id) const {
  std::lock_guard<sync::BackendMutex> lock(mu_);
  auto it = entries_.find(id);
  if (it == entries_.end()) {
    throw std::invalid_argument("CheckerPool::stretch: unknown monitor id");
  }
  return it->second->stretch;
}

core::Detector::CheckStats CheckerPool::run_check(Entry& entry,
                                                  util::TimeNs rule_now,
                                                  bool* occupied_out) {
  const util::TimeNs started = wall_now();
  std::vector<trace::EventRecord> segment;
  std::optional<trace::SchedulingState> state;
  core::Detector::CheckStats stats;
  util::TimeNs gate_released = started;
  // While a monitor is recovery-poisoned its traffic is out-of-band by
  // definition (evictions and would-block rejections record no events,
  // but admitted non-blocking calls still record theirs), so replaying
  // the window's segment would fabricate ST violations.  Detection is
  // suspended for the window — segment discarded, snapshot still taken
  // (the wait-for/order contributions stay fresh) — and
  // complete_recoveries() re-baselines the detector when service is
  // restored.  recovery_poisoned() is stable across this function: the
  // poison/unpoison transitions run under entry.check_mu, which every
  // caller of run_check holds.
  bool suppressed = false;
  // Detector-less sinks (interposition adapters) skip the per-monitor
  // algorithms — their synthetic stream is not a faithful Hoare history and
  // Algorithms 1-3 would fabricate ST violations over it — but still feed
  // the cadence controller (segment size) and, below, the pool-level
  // wait-for and lock-order contributions.  Only a segment a detector
  // replays is drained; every other one is discarded by count.
  std::size_t discarded = 0;
  const auto collect = [&] {
    suppressed = entry.monitor->recovery_poisoned();
    if (entry.detector != nullptr && !suppressed) {
      segment = entry.monitor->drain_segment();
    } else {
      discarded = entry.monitor->discard_segment();
    }
    state = entry.monitor->snapshot();
  };
  const auto evaluate = [&] {
    if (suppressed) return;
    if (entry.detector != nullptr) {
      stats = entry.detector->check(segment, *state, rule_now);
    } else {
      stats.events = discarded;
      stats.idle = discarded == 0;
    }
  };
  if (entry.options.hold_gate_during_check) {
    {
      sync::CheckerGate::ExclusiveScope quiesce(entry.monitor->gate());
      collect();
      evaluate();
    }
    gate_released = wall_now();  // paper mode: suspended through the check
  } else {
    {
      sync::CheckerGate::ExclusiveScope quiesce(entry.monitor->gate());
      collect();
    }
    gate_released = wall_now();
    evaluate();
  }
  if (suppressed) stats.idle = true;
  const util::TimeNs finished = wall_now();
  checks_executed_.fetch_add(1, std::memory_order_relaxed);
  total_quiesce_ns_.fetch_add(
      static_cast<std::uint64_t>(gate_released - started),
      std::memory_order_relaxed);
  total_check_ns_.fetch_add(static_cast<std::uint64_t>(finished - started),
                            std::memory_order_relaxed);
  if (occupied_out != nullptr) {
    *occupied_out = state->has_running() || state->blocked_count() > 0;
  }
  if (waitfor_enabled()) {
    fold_wait_edges(entry, *state);
  }
  if (lockorder_enabled() && entry.options.contribute_lock_order &&
      !budget_.shed_prediction()) {
    // Shed with the prediction checkpoint: the per-check fold is the other
    // half of prediction's cost (the observe() join).  Edges missed while
    // shed are simply not recorded — the relation is advisory, and the
    // certified-interval join never fabricates, so resuming is safe.
    fold_lock_order(entry, *state);
  }
  if (entry.options.on_checkpoint) entry.options.on_checkpoint(*state);
  return stats;
}

void CheckerPool::update_cadence_locked(
    Entry& entry, const core::Detector::CheckStats& stats, bool occupied) {
  // Budget degradation feeds the same controller: level ≥ kStretch lifts
  // the idle-stretch ceiling (first shed step — idle monitors are checked
  // even more lazily, which costs nothing in detection latency thanks to
  // the timer clamp below), and kWiden multiplies the effective period of
  // EVERY monitor, occupied ones included (last step before nothing is
  // left to shed but detection itself — which is never shed; the clamp
  // keeps the widened period timer-bounded).  Both knobs are 1.0 when the
  // budget is disabled or nominal.
  const double boost = budget_.stretch_boost();
  const double widen = budget_.widen_factor();
  const double ceiling = std::max(1.0, entry.options.max_stretch * boost);
  entry.ewma_events = kEventsEwmaAlpha * static_cast<double>(stats.events) +
                      (1.0 - kEventsEwmaAlpha) * entry.ewma_events;
  // Symmetric recovery: a ceiling that shrank back (boost returned to 1)
  // re-clamps stretch retained from the pressure episode immediately.
  entry.stretch = std::min(entry.stretch, ceiling);
  if (stats.events > 0 || stats.violations > 0 || occupied) {
    // Activity, a finding, or anybody running/queued: base cadence, now.
    // Occupancy is the precondition of every timer rule (ST-5/6/8c), so an
    // occupied monitor is always checked at base cadence.
    entry.stretch = 1.0;
  } else if (entry.ewma_events < kIdleEventsEwma) {
    entry.stretch = std::min(entry.stretch * 2.0, ceiling);
  }
  // A flipped inline monitor sits on the heap only as a pressure measure:
  // the flip exists to relieve application threads, not to add pool load,
  // so the pool covers it at the boosted ceiling (still timer-clamped
  // below) instead of base cadence.  This is part of the kStretch shed
  // step — it keeps degraded levels strictly cheaper than nominal, which
  // is what lets the controller descend back out of them.
  double floor = 1.0;
  if (entry.options.instrumentation == CheckInstrumentation::kInline) {
    floor = ceiling;
  }
  util::TimeNs effective = static_cast<util::TimeNs>(
      static_cast<double>(entry.period) *
      std::max({entry.stretch, widen, floor}));
  // Detection-latency clamp.  A blocking episode that *begins* mid-
  // stretched-interval is only noticed at the next (deferred) check, so
  // the effective period also bounds that first detection latency.  Capping
  // it at the smallest *positive* timer threshold (never below the base
  // period; a zeroed threshold means "rule unused", not "clamp off") keeps
  // the deferred case within ~2x the threshold: onset -> next check is at
  // most that threshold, and the check both snaps the cadence back to base
  // and evaluates the timer rules.  Tmax < T_eff (the Section 3.3
  // relation) holds throughout, since stretching only grows T.
  const core::MonitorSpec& spec = entry.detector != nullptr
                                      ? entry.detector->spec()
                                      : entry.monitor->spec();
  util::TimeNs min_timer = 0;
  for (const util::TimeNs threshold : {spec.t_max, spec.t_io, spec.t_limit}) {
    if (threshold > 0 && (min_timer == 0 || threshold < min_timer)) {
      min_timer = threshold;
    }
  }
  if (min_timer > 0) {
    effective = std::min(effective, std::max(entry.period, min_timer));
  }
  entry.effective_period = std::max<util::TimeNs>(1, effective);
}

util::TimeNs CheckerPool::next_due_locked(Entry& entry, util::TimeNs due,
                                          util::TimeNs finished) {
  const util::TimeNs period = std::max<util::TimeNs>(1, entry.effective_period);
  const util::TimeNs next = due + period;
  if (next > finished) return next;  // on schedule (includes pulled-forward)
  // The check outlasted its period: `missed` deadlines fell due while it
  // ran.  Slip the grid; the next check's drained segment covers them.
  const std::uint64_t missed =
      static_cast<std::uint64_t>((finished - next) / period) + 1;
  checks_coalesced_.fetch_add(missed, std::memory_order_relaxed);
  return finished + period;
}

void CheckerPool::fold_wait_edges(const Entry& entry,
                                  const trace::SchedulingState& state) {
  // Resolve names and copy queues outside the graph lock; only the swap-in
  // (and the epoch stamp) happens under it.
  core::WaitContribution contribution = core::make_wait_contribution(
      entry.id, entry.monitor->spec().name, 0, state,
      entry.monitor->symbols());
  std::lock_guard<sync::BackendMutex> lock(graph_mu_);
  contribution.epoch = graph_epoch_;
  graph_.update(std::move(contribution));
}

void CheckerPool::fold_lock_order(const Entry& entry,
                                  const trace::SchedulingState& state) {
  // observe() joins this snapshot against every other monitor's current
  // accesses, so the whole fold runs under the order-graph lock.  The
  // access sets are one snapshot deep per monitor, keeping the join small.
  std::lock_guard<sync::BackendMutex> lock(lockorder_mu_);
  order_graph_.observe(entry.id, entry.monitor->spec().name,
                       lockorder_epoch_, state);
}

bool CheckerPool::validate_cycle(const core::DeadlockCycle& cycle) {
  // Pin every participating monitor so remove() cannot free an entry while
  // we re-snapshot it.  A monitor that already unregistered voids the cycle.
  std::vector<Entry*> pinned;
  {
    std::lock_guard<sync::BackendMutex> lock(mu_);
    for (const auto& link : cycle.links) {
      auto it = entries_.find(link.monitor);
      if (it == entries_.end()) {
        for (Entry* entry : pinned) --entry->busy;
        if (!pinned.empty()) idle_cv_.notify_all();
        return false;
      }
      Entry* entry = it->second.get();
      // A cycle may traverse one monitor more than once; pin per link so
      // the unpin below is symmetric.
      ++entry->busy;
      pinned.push_back(entry);
    }
  }
  // Two sequential live passes, each re-snapshotting every participating
  // monitor.  One pass is not enough for exactness: its snapshots are taken
  // at different instants, so link A could be confirmed at t1, dissolve,
  // and link B (formed only after A dissolved) be confirmed at t2 — a
  // "cycle" that never coexisted.  With two passes, a link confirmed in
  // both with the SAME blocking episode and the same hold episode was
  // continuously blocked/held across the boundary between the passes — a
  // parked thread cannot release anything, and a re-formed wait or hold
  // carries a fresh episode ticket.  So every edge of the cycle exists
  // simultaneously at the instant pass 1 ended, and the deadlock is real;
  // a cycle that resolved before the checkpoint fails here and is never
  // reported.  Episode identity is the per-monitor monotonic ticket
  // (clock-independent: distinct episodes get distinct tickets even under
  // a frozen ManualClock); only links from pre-ticket traces fall back to
  // enqueue/hold timestamps.
  bool confirmed = true;
  for (int pass = 0; pass < 2 && confirmed; ++pass) {
    for (std::size_t i = 0; i < cycle.links.size() && confirmed; ++i) {
      const auto& link = cycle.links[i];
      const trace::SchedulingState state = pinned[i]->monitor->snapshot();
      confirmed =
          core::link_holds_in(link, state, pinned[i]->monitor->symbols());
    }
  }
  {
    std::lock_guard<sync::BackendMutex> lock(mu_);
    for (Entry* entry : pinned) --entry->busy;
  }
  idle_cv_.notify_all();
  return confirmed;
}

std::size_t CheckerPool::run_waitfor_checkpoint() {
  if (!waitfor_enabled()) return 0;
  std::lock_guard<sync::BackendMutex> pass_lock(checkpoint_pass_mu_);
  std::vector<core::DeadlockCycle> candidates;
  {
    std::lock_guard<sync::BackendMutex> lock(graph_mu_);
    ++graph_epoch_;
    candidates = graph_.find_cycles();
  }
  waitfor_checkpoints_.fetch_add(1, std::memory_order_relaxed);

  std::size_t confirmed_count = 0;
  std::unordered_set<std::string> confirmed_keys;
  for (const core::DeadlockCycle& cycle : candidates) {
    if (!validate_cycle(cycle)) continue;
    ++confirmed_count;
    const std::string key = cycle.key();
    confirmed_keys.insert(key);
    bool already_reported;
    {
      std::lock_guard<sync::BackendMutex> lock(graph_mu_);
      std::vector<MonitorId> monitors;
      monitors.reserve(cycle.links.size());
      for (const auto& link : cycle.links) monitors.push_back(link.monitor);
      already_reported =
          !reported_cycles_.emplace(key, std::move(monitors)).second;
    }
    if (already_reported) continue;
    deadlocks_reported_.fetch_add(1, std::memory_order_relaxed);
    waitfor_sink_->report(core::make_cycle_report(cycle, clock_->now_ns()));
    // Exactly one recovery action per reported cycle: actuation rides the
    // same newly-reported edge as the fault report.
    if (recovery_enabled()) act_on_confirmed_cycle(cycle);
  }

  // Forget cycles that no longer hold, so a deadlock that dissolves (e.g.
  // poisoned monitors) and later re-forms is reported again.
  {
    std::lock_guard<sync::BackendMutex> lock(graph_mu_);
    std::erase_if(reported_cycles_, [&](const auto& reported) {
      return confirmed_keys.find(reported.first) == confirmed_keys.end();
    });
  }
  // Recovery-complete: a sticky poison whose cycle dissolved is cleared,
  // restoring normal service on the victim monitor.
  if (recovery_enabled()) complete_recoveries(confirmed_keys);
  return confirmed_count;
}

std::size_t CheckerPool::waitfor_graph_monitors() const {
  std::lock_guard<sync::BackendMutex> lock(graph_mu_);
  return graph_.monitor_count();
}

std::size_t CheckerPool::run_lockorder_checkpoint() {
  if (!lockorder_enabled()) return 0;
  if (budget_.shed_prediction()) {
    // Prediction is shed before detection (budget level ≥ kShedPrediction):
    // the pass is skipped, not cancelled — the periodic heap item keeps
    // rescheduling, so the first pass after recovery resumes over the
    // accumulated relation.  lockorder_checkpoints() deliberately does not
    // advance: it counts passes that ran.
    prediction_sheds_.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  // Order cycles are accumulated historical facts — no live validation
  // pass, and no cross-pass race to serialize: the reported-set insert
  // under the graph lock makes concurrent passes agree on who reports.
  std::vector<core::OrderCycle> fresh;
  std::vector<core::OrderEdge> edges_snapshot;
  std::size_t present = 0;
  {
    std::lock_guard<sync::BackendMutex> lock(lockorder_mu_);
    ++lockorder_epoch_;
    for (core::OrderCycle& cycle : order_graph_.find_cycles()) {
      ++present;
      auto [it, inserted] =
          reported_order_cycles_.emplace(cycle.key(), cycle.monitors());
      if (inserted) fresh.push_back(std::move(cycle));
    }
    // The pre-emptive decision scores minority edges by witness count; take
    // the relation snapshot under the same lock as the verdicts.
    if (!fresh.empty() && recovery_enabled()) {
      edges_snapshot = order_graph_.edges();
    }
  }
  lockorder_checkpoints_.fetch_add(1, std::memory_order_relaxed);
  for (const core::OrderCycle& cycle : fresh) {
    potential_deadlocks_reported_.fetch_add(1, std::memory_order_relaxed);
    lockorder_sink_->report(
        core::make_order_report(cycle, clock_->now_ns()));
    if (recovery_enabled()) act_on_order_cycle(cycle, edges_snapshot);
  }
  return present;
}

std::uint64_t CheckerPool::lockorder_epoch() const {
  std::lock_guard<sync::BackendMutex> lock(lockorder_mu_);
  return lockorder_epoch_;
}

std::size_t CheckerPool::lockorder_edge_count() const {
  std::lock_guard<sync::BackendMutex> lock(lockorder_mu_);
  return order_graph_.edge_count();
}

std::vector<core::OrderEdge> CheckerPool::lockorder_edges() const {
  std::lock_guard<sync::BackendMutex> lock(lockorder_mu_);
  return order_graph_.edges();
}

CheckerPool::Entry* CheckerPool::pin_entry(MonitorId id) {
  std::lock_guard<sync::BackendMutex> lock(mu_);
  auto it = entries_.find(id);
  if (it == entries_.end()) return nullptr;
  ++it->second->busy;  // remove() waits for busy == 0
  return it->second.get();
}

void CheckerPool::unpin_entry(Entry* entry) {
  if (entry == nullptr) return;
  {
    std::lock_guard<sync::BackendMutex> lock(mu_);
    --entry->busy;
  }
  idle_cv_.notify_all();
}

void CheckerPool::rebaseline_entry(Entry& entry) {
  // Discard the segment spanning the action and restart the detector from
  // the post-action state.  The caller holds entry.check_mu, so no worker
  // check interleaves between the action and the new baseline.
  sync::CheckerGate::ExclusiveScope quiesce(entry.monitor->gate());
  entry.monitor->discard_segment();
  if (entry.detector != nullptr) {
    entry.detector->rebaseline(entry.monitor->snapshot());
  }
}

void CheckerPool::act_on_confirmed_cycle(const core::DeadlockCycle& cycle) {
  const core::RecoveryDecision decision = recovery_.policy->decide(cycle);
  if (decision.victim.pid == trace::kNoPid) return;
  Entry* entry = pin_entry(decision.victim.monitor);
  if (entry == nullptr) return;  // victim monitor unregistered: cycle gone
  {
    // check_mu spans the action and the re-baseline: a periodic check must
    // never observe the post-action queues against a pre-action baseline
    // (that mismatch would read as an ST-Rule violation).
    std::lock_guard<sync::BackendMutex> check_lock(entry->check_mu);
    if (decision.remedy == core::RecoveryRemedy::kPoisonVictim) {
      entry->monitor->recovery_poison();
      {
        std::lock_guard<sync::BackendMutex> recovery_lock(recovery_mu_);
        active_poisons_[cycle.key()] = entry->id;
      }
      victims_poisoned_.fetch_add(1, std::memory_order_relaxed);
    } else {
      entry->monitor->deliver_recovery_fault(decision.victim.pid);
      recovery_faults_delivered_.fetch_add(1, std::memory_order_relaxed);
    }
    rebaseline_entry(*entry);
  }
  unpin_entry(entry);
  recovery_actions_.fetch_add(1, std::memory_order_relaxed);
  const util::TimeNs at = clock_->now_ns();
  log_recovery(core::make_recovery_record(decision, at));
  core::ReportSink* sink =
      recovery_.sink != nullptr ? recovery_.sink : waitfor_sink_;
  sink->report(core::make_recovery_report(decision, at));
}

void CheckerPool::act_on_order_cycle(
    const core::OrderCycle& cycle,
    const std::vector<core::OrderEdge>& edges) {
  if (!recovery_.policy->preempt_predicted() || recovery_.gate == nullptr) {
    return;
  }
  const core::OrderDecision decision = recovery_.policy->decide(cycle, edges);
  if (decision.imposed_order.empty()) return;
  recovery_.gate->impose(decision.imposed_order, decision.fenced);
  orders_imposed_.fetch_add(1, std::memory_order_relaxed);
  recovery_actions_.fetch_add(1, std::memory_order_relaxed);
  const util::TimeNs at = clock_->now_ns();
  log_recovery(core::make_recovery_record(decision, at));
  core::ReportSink* sink =
      recovery_.sink != nullptr ? recovery_.sink : lockorder_sink_;
  sink->report(core::make_recovery_report(decision, at));
}

void CheckerPool::complete_recoveries(
    const std::unordered_set<std::string>& confirmed_keys) {
  std::vector<std::pair<std::string, MonitorId>> completed;
  {
    std::lock_guard<sync::BackendMutex> recovery_lock(recovery_mu_);
    for (auto it = active_poisons_.begin(); it != active_poisons_.end();) {
      if (confirmed_keys.find(it->first) != confirmed_keys.end()) {
        ++it;
        continue;
      }
      completed.emplace_back(it->first, it->second);
      it = active_poisons_.erase(it);
    }
  }
  for (const auto& [key, id] : completed) {
    Entry* entry = pin_entry(id);
    if (entry == nullptr) continue;
    std::string name;
    {
      std::lock_guard<sync::BackendMutex> check_lock(entry->check_mu);
      entry->monitor->unpoison();
      // Detection was suspended for the poison window; restart it from
      // the restored-service state.
      rebaseline_entry(*entry);
      name = entry->monitor->spec().name;
    }
    unpin_entry(entry);
    monitors_unpoisoned_.fetch_add(1, std::memory_order_relaxed);
    trace::RecoveryRecord record;
    record.action = 'C';
    record.monitor = name;
    record.at = clock_->now_ns();
    record.detail = "recovery complete: cycle dissolved, normal service "
                    "restored; was " + key;
    log_recovery(std::move(record));
  }
}

void CheckerPool::log_recovery(trace::RecoveryRecord record) {
  std::lock_guard<sync::BackendMutex> lock(recovery_mu_);
  recovery_log_.push_back(std::move(record));
}

std::vector<trace::RecoveryRecord> CheckerPool::recovery_log() const {
  std::lock_guard<sync::BackendMutex> lock(recovery_mu_);
  return recovery_log_;
}

std::uint64_t CheckerPool::events_lost() const {
  std::lock_guard<sync::BackendMutex> lock(mu_);
  std::uint64_t lost = 0;
  for (const auto& [id, entry] : entries_) {
    if (entry->monitor != nullptr) lost += entry->monitor->events_lost();
  }
  return lost;
}

void CheckerPool::run_checkpoint_item_locked(
    std::unique_lock<sync::BackendMutex>& lock, MonitorId id) {
  heap_.pop();  // this worker owns the pass; re-pushed when done
  dispatches_.fetch_add(1, std::memory_order_relaxed);
  lock.unlock();
  const util::TimeNs pass_started = cpu_now();
  if (id == kCheckpointId) {
    run_waitfor_checkpoint();
  } else {
    run_lockorder_checkpoint();
  }
  if (budget_.enabled()) {
    // Checkpoint passes are detection spend too (graph SCC + live
    // validation can dwarf a per-monitor check); one clock pair per pass,
    // same as a dispatch batch.
    record_budget(cpu_now() - pass_started, wall_now());
  }
  lock.lock();
  const bool any_scheduled =
      std::any_of(entries_.begin(), entries_.end(), [](const auto& kv) {
        return kv.second->scheduled;
      });
  bool& armed =
      id == kCheckpointId ? checkpoint_scheduled_ : lockorder_scheduled_;
  if (!any_scheduled) {
    // Nothing is being checked, so nothing refreshes the graphs
    // (unschedule also withdrew the wait-for contributions); schedule()
    // re-arms on the next scheduling instead of waking a worker every
    // period for an idle pool.
    armed = false;
  } else {
    const util::TimeNs period =
        id == kCheckpointId ? waitfor_period_ : lockorder_period_;
    heap_.push({wall_now() + period, id, 0});
    work_cv_.notify_one();
  }
}

void CheckerPool::worker_loop() {
  std::unique_lock<sync::BackendMutex> lock(mu_);
  std::vector<BatchSlot> batch;
  while (!stop_) {
    if (heap_.empty()) {
      work_cv_.wait(lock);
      continue;
    }
    const HeapItem top = heap_.top();
    util::TimeNs now = wall_now();
    if (top.due > now) {
      work_cv_.wait_for(lock, std::chrono::nanoseconds(top.due - now));
      continue;
    }
    if (top.id < kFirstMonitorId) {
      run_checkpoint_item_locked(lock, top.id);
      continue;
    }

    // --- Form a batch: every monitor due now, plus near-due monitors
    // within one check period of the head monitor.  One dispatch amortizes
    // the heap pops, the condvar wake-up and the rule-clock read across the
    // whole batch.  The cap splits the wave across the pool's workers (heap
    // size / K, min 1) so one worker never serializes a whole due wave
    // while its K-1 peers idle; on a single-worker pool it is the full wave.
    batch.clear();
    const std::size_t batch_cap =
        std::max<std::size_t>(1, heap_.size() / configured_threads_);
    util::TimeNs window = 0;
    while (!heap_.empty() && batch.size() < batch_cap) {
      const HeapItem item = heap_.top();
      if (item.id < kFirstMonitorId) break;  // checkpoints dispatch alone
      auto it = entries_.find(item.id);
      if (it == entries_.end() || it->second->generation != item.generation ||
          !it->second->scheduled) {
        heap_.pop();  // stale: unscheduled, rescheduled, or removed
        continue;
      }
      if (batch.empty()) {
        if (item.due > now) break;  // head raced away (stale pops)
        window = it->second->period;
      } else if (item.due > now + window) {
        break;
      }
      heap_.pop();
      ++it->second->busy;
      batch.push_back({it->second.get(), item, {}, false});
    }
    if (batch.empty()) continue;  // everything popped was stale
    dispatches_.fetch_add(1, std::memory_order_relaxed);
    // If due work remains beyond this batch's cap, wake a peer to serve it
    // concurrently.
    if (!heap_.empty() && heap_.top().due <= now) work_cv_.notify_one();
    lock.unlock();

    // One rule-clock read per batch, not per check.  Timer rules for later
    // batch members see a timestamp early by at most the batch runtime —
    // conservative: a threshold crossed mid-batch is simply caught at that
    // monitor's next check.  The budget measurement reuses the same
    // structure: one thread-CPU clock pair brackets the whole batch (the
    // spend it charges is the worker's CPU time, relocks and cadence
    // updates included — exactly the cost the batch imposed, and immune to
    // preemption charging the scheduler's slice to the budget).
    const util::TimeNs batch_started = cpu_now();
    const util::TimeNs rule_now = clock_->now_ns();
    for (BatchSlot& slot : batch) {
      Entry& entry = *slot.entry;
      // Slots run sequentially, so an unschedule()/remove() issued after
      // batch formation may have landed before this slot's turn: re-check
      // under mu_ and skip the now-pointless check (dropping the pin
      // immediately) instead of making the caller wait on it.
      {
        std::lock_guard<sync::BackendMutex> relock(mu_);
        if (!entry.scheduled || entry.generation != slot.item.generation) {
          --entry.busy;
          slot.entry = nullptr;
        }
      }
      if (slot.entry == nullptr) {
        idle_cv_.notify_all();
        continue;
      }
      {
        std::lock_guard<sync::BackendMutex> check_lock(entry.check_mu);
        slot.stats = run_check(entry, rule_now, &slot.occupied);
      }
      // Retire the slot as soon as its check completes — cadence update,
      // reschedule, busy release — so a waiting unschedule()/remove() of
      // this monitor (e.g. a RobustMonitor destructor) resumes after this
      // check instead of after the whole batch.  The entry pointer is only
      // safe before the busy drop: remove() may free it right after.
      {
        std::lock_guard<sync::BackendMutex> relock(mu_);
        // Deadlines restart from the item's original due time, so checks
        // the window pulled forward keep their cadence grid; a check that
        // outlasts its period coalesces the slots it missed.
        if (entry.scheduled && entry.generation == slot.item.generation) {
          update_cadence_locked(entry, slot.stats, slot.occupied);
          heap_.push({next_due_locked(entry, slot.item.due, wall_now()),
                      slot.item.id, slot.item.generation});
          work_cv_.notify_one();
        }
        --entry.busy;
      }
      idle_cv_.notify_all();
    }
    if (budget_.enabled()) {
      record_budget(cpu_now() - batch_started, wall_now());
    }
    lock.lock();
  }
}

}  // namespace robmon::rt
