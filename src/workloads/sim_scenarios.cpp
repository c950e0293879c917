#include "workloads/sim_scenarios.hpp"

#include <stdexcept>

#if !defined(ROBMON_SYNC_BACKEND_SIM)

namespace robmon::wl {

namespace {

[[noreturn]] void require_sim_backend() {
  throw std::logic_error(
      "coverage trials require the SimBackend build "
      "(link robmon_sim / compile with ROBMON_SYNC_BACKEND_SIM)");
}

}  // namespace

CoverageOutcome run_coverage_trial(core::FaultKind, std::uint64_t,
                                   const CoverageConfig&) {
  require_sim_backend();
}

std::size_t run_fault_free_trial(core::MonitorType, std::uint64_t,
                                 const CoverageConfig&) {
  require_sim_backend();
}

FdTrialResult run_fd_trial(std::optional<core::FaultKind>, std::uint64_t,
                           const CoverageConfig&) {
  require_sim_backend();
}

}  // namespace robmon::wl

#else  // ROBMON_SYNC_BACKEND_SIM

#include <algorithm>
#include <vector>

#include "core/detector.hpp"
#include "core/fd_rules.hpp"
#include "inject/catalog.hpp"
#include "inject/injection.hpp"
#include "runtime/checker_pool.hpp"
#include "runtime/hoare_monitor.hpp"
#include "sync/backend.hpp"
#include "sync/sim_backend.hpp"

namespace robmon::wl {

namespace {

using core::FaultKind;
using core::MonitorType;
using rt::Status;
using util::TimeNs;

/// Time an allocator client spends inside Acquire / Release.
constexpr TimeNs kAllocatorInMonitorNs = 50'000;

core::MonitorSpec trial_spec(MonitorType type, const CoverageConfig& config) {
  const auto capacity = static_cast<std::int64_t>(config.buffer_capacity);
  core::MonitorSpec spec =
      type == MonitorType::kCommunicationCoordinator
          ? core::MonitorSpec::coordinator("cov-buffer", capacity)
          : core::MonitorSpec::allocator("cov-allocator");
  spec.t_max = config.t_max;
  spec.t_io = config.t_io;
  spec.t_limit = config.t_limit;
  spec.check_period = config.check_period;
  return spec;
}

void dwell(TimeNs ns) {
  if (ns > 0) sync::backend_sleep_for(ns);
}

/// One trial: the monitor under test, its detector on a one-thread pool,
/// and the client procedures, all living on one seeded SimScheduler.  The
/// scheduler is declared first so it is installed before anything else is
/// built and torn down last.
class Trial {
 public:
  Trial(MonitorType type, std::uint64_t seed, const CoverageConfig& config,
        inject::InjectionController& injection)
      : scheduler_({.policy = sync::SchedulePolicy::kRandom, .seed = seed}),
        type_(type),
        config_(config),
        injection_(injection),
        monitor_(trial_spec(type, config), *sync::backend_clock(), injection),
        detector_(monitor_.spec(), monitor_.symbols(), sink_),
        pool_(single_worker()),
        id_(pool_.add(monitor_, detector_)),
        units_(config.allocator_units) {
    if (type_ == MonitorType::kResourceAllocator) {
      monitor_.set_resource_gauge([this] { return units_; });
    }
  }

  rt::HoareMonitor& monitor() { return monitor_; }
  const core::CollectingSink& sink() const { return sink_; }
  const core::MonitorSpec& spec() const { return monitor_.spec(); }
  /// Virtual time at which the last check ran (the history's horizon).
  TimeNs end_time() const { return end_time_; }

  /// Run the workload and the periodic checks to completion.
  void run() {
    detector_.initialize(monitor_.snapshot());
    scheduler_.spawn([this] { drive(); }, "driver");
    const auto stop = scheduler_.run(config_.max_steps);
    scheduler_.rethrow_any_failure();
    if (stop != sync::SimScheduler::StopReason::kAllDone) {
      throw std::runtime_error("coverage trial did not run to completion");
    }
  }

 private:
  static rt::CheckerPool::Options single_worker() {
    rt::CheckerPool::Options options;
    options.threads = 1;
    return options;
  }

  /// Fig. 1's periodic fault-detection routine, on virtual time: check
  /// every check_period until the clients are done and the longest timer
  /// horizon has been covered (or max_checks), then poison the monitor so
  /// clients parked by an injected fault unwind, and join everyone.
  void drive() {
    std::vector<sync::BackendThread> clients;
    spawn_clients(clients);
    const TimeNs horizon =
        std::max({spec().t_max, spec().t_io, spec().t_limit});
    const auto min_checks =
        static_cast<std::uint64_t>(horizon / spec().check_period) + 3;
    for (std::uint64_t check = 1; check <= config_.max_checks; ++check) {
      sync::backend_sleep_for(spec().check_period);
      pool_.check_now(id_);
      if (clients_done_ == clients.size() && check >= min_checks) break;
    }
    end_time_ = sync::backend_now();
    monitor_.poison();
    for (sync::BackendThread& client : clients) client.join();
  }

  void spawn_clients(std::vector<sync::BackendThread>& clients) {
    const auto spawn = [&](auto body) {
      clients.emplace_back([this, body] {
        body();
        ++clients_done_;
      });
    };
    if (type_ == MonitorType::kCommunicationCoordinator) {
      const int total = config_.producers * config_.operations;
      const int per_consumer = total / config_.consumers;
      const int remainder = total % config_.consumers;
      for (int p = 0; p < config_.producers; ++p) {
        spawn([this, p] { produce(p); });
      }
      for (int c = 0; c < config_.consumers; ++c) {
        const int quota = per_consumer + (c == 0 ? remainder : 0);
        spawn([this, c, quota] { consume(100 + c, quota); });
      }
    } else {
      const int clients_total = config_.producers + config_.consumers;
      for (int w = 0; w < clients_total; ++w) {
        spawn([this, w] { allocate(w, config_.operations / 2 + 1); });
      }
    }
  }

  // --- Coordinator workload: bounded buffer. --------------------------------

  bool full() const {
    return items_ >= static_cast<std::int64_t>(config_.buffer_capacity);
  }

  void produce(trace::Pid pid) {
    dwell(config_.producer_initial_delay_ns);
    for (int i = 0; i < config_.operations; ++i) {
      if (send(pid) != Status::kOk) return;
      dwell(config_.producer_think_ns);
    }
  }

  void consume(trace::Pid pid, int operations) {
    for (int i = 0; i < operations; ++i) {
      if (receive(pid) != Status::kOk) return;
      dwell(config_.consumer_think_ns);
    }
  }

  /// Monitor procedure "Send".  Arming is conditioned on the state where
  /// the fault has an effect, so a one-shot injection is not wasted on a
  /// no-op opportunity.
  Status send(trace::Pid pid) {
    if (const Status s = monitor_.enter(pid, "Send"); s != Status::kOk) {
      return s;
    }
    dwell(config_.in_monitor_ns);
    // II.a: delayed although not full / II.d: not delayed although full.
    const bool force_delay =
        !full() && injection_.fire(FaultKind::kSendDelayWrong, pid);
    const bool skip_delay =
        full() && injection_.fire(FaultKind::kSendExceedsCapacity, pid);
    if (force_delay || (full() && !skip_delay)) {
      if (const Status s = monitor_.wait(pid, "full"); s != Status::kOk) {
        return s;
      }
    }
    ++items_;
    monitor_.signal_exit(pid, "empty", -1);  // one fewer free slot
    return Status::kOk;
  }

  /// Monitor procedure "Receive".
  Status receive(trace::Pid pid) {
    if (const Status s = monitor_.enter(pid, "Receive"); s != Status::kOk) {
      return s;
    }
    dwell(config_.in_monitor_ns);
    // II.b: delayed although not empty / II.c: fabricate instead of waiting.
    const bool force_delay =
        items_ > 0 && injection_.fire(FaultKind::kReceiveDelayWrong, pid);
    const bool fabricate =
        items_ == 0 && injection_.fire(FaultKind::kReceiveExceedsSend, pid);
    if (force_delay || (items_ == 0 && !fabricate)) {
      if (const Status s = monitor_.wait(pid, "empty"); s != Status::kOk) {
        return s;
      }
    }
    if (items_ > 0) --items_;
    monitor_.signal_exit(pid, "full", +1);  // one more free slot
    return Status::kOk;
  }

  // --- Allocator workload with Level-III client faults. ---------------------

  void allocate(trace::Pid pid, int iterations) {
    for (int i = 0; i < iterations; ++i) {
      // III.a: release a resource that was never acquired.
      if (injection_.fire(FaultKind::kReleaseBeforeAcquire, pid) &&
          release(pid) != Status::kOk) {
        return;
      }
      if (acquire(pid) != Status::kOk) return;
      // III.c: acquire again while already holding.
      if (injection_.fire(FaultKind::kDoubleAcquireDeadlock, pid) &&
          acquire(pid) != Status::kOk) {
        return;
      }
      dwell(config_.producer_think_ns);
      // III.b: never release.
      if (!injection_.fire(FaultKind::kResourceNeverReleased, pid) &&
          release(pid) != Status::kOk) {
        return;
      }
      dwell(config_.producer_think_ns);
    }
  }

  Status acquire(trace::Pid pid) {
    if (const Status s = monitor_.enter(pid, "Acquire"); s != Status::kOk) {
      return s;
    }
    dwell(kAllocatorInMonitorNs);
    if (units_ == 0) {
      if (const Status s = monitor_.wait(pid, "available"); s != Status::kOk) {
        return s;
      }
    }
    --units_;
    monitor_.exit(pid);
    return Status::kOk;
  }

  Status release(trace::Pid pid) {
    if (const Status s = monitor_.enter(pid, "Release"); s != Status::kOk) {
      return s;
    }
    dwell(kAllocatorInMonitorNs);
    ++units_;
    monitor_.signal_exit(pid, "available");
    return Status::kOk;
  }

  sync::SimScheduler scheduler_;
  MonitorType type_;
  const CoverageConfig& config_;
  inject::InjectionController& injection_;
  rt::HoareMonitor monitor_;
  core::CollectingSink sink_;
  core::Detector detector_;
  rt::CheckerPool pool_;
  rt::CheckerPool::MonitorId id_;
  std::int64_t items_ = 0;  ///< Coordinator: buffered items.
  std::int64_t units_;      ///< Allocator: free units (the R# gauge).
  std::size_t clients_done_ = 0;
  TimeNs end_time_ = 0;
};

CoverageOutcome run_one_attempt(FaultKind kind, std::uint64_t seed,
                                const CoverageConfig& config,
                                std::int64_t nth) {
  const inject::CatalogEntry& entry = inject::catalog_entry(kind);

  inject::ScriptedInjection::Plan plan;
  plan.kind = kind;
  plan.nth = nth;
  plan.sticky = inject::is_sticky_fault(kind);
  inject::ScriptedInjection injection(plan);

  Trial trial(entry.exercised_on, seed, config, injection);
  trial.run();

  CoverageOutcome outcome;
  outcome.kind = kind;
  outcome.injected = injection.fired();
  outcome.injection_attempt = nth;
  outcome.reports = trial.sink().reports();
  outcome.total_reports = outcome.reports.size();
  outcome.detected = inject::detected(entry, outcome.reports);
  if (outcome.detected) {
    TimeNs first = 0;
    for (const auto& report : outcome.reports) {
      const bool matches =
          std::find(entry.detecting_rules.begin(),
                    entry.detecting_rules.end(),
                    report.rule) != entry.detecting_rules.end();
      if (matches && (first == 0 || report.detected_at < first)) {
        first = report.detected_at;
      }
    }
    const TimeNs period = trial.spec().check_period;
    outcome.detection_check =
        static_cast<std::uint64_t>((first + period - 1) / period);
  }
  return outcome;
}

}  // namespace

CoverageOutcome run_coverage_trial(FaultKind kind, std::uint64_t seed,
                                   const CoverageConfig& config) {
  constexpr std::int64_t kMaxAttempts = 12;
  CoverageOutcome outcome;
  for (std::int64_t nth = 1; nth <= kMaxAttempts; ++nth) {
    outcome = run_one_attempt(kind, seed, config, nth);
    // Detected, or the fault never even armed at this depth (no further
    // opportunities exist) -> stop.
    if (outcome.detected || !outcome.injected) break;
  }
  return outcome;
}

std::size_t run_fault_free_trial(MonitorType type, std::uint64_t seed,
                                 const CoverageConfig& config) {
  Trial trial(type, seed, config, inject::NullInjection::instance());
  trial.run();
  return trial.sink().count();
}

FdTrialResult run_fd_trial(std::optional<FaultKind> kind, std::uint64_t seed,
                           const CoverageConfig& config) {
  const MonitorType type =
      kind ? inject::catalog_entry(*kind).exercised_on
           : MonitorType::kCommunicationCoordinator;

  inject::ScriptedInjection::Plan plan;
  plan.kind = kind.value_or(FaultKind::kEnterRequestLost);
  plan.sticky = kind ? inject::is_sticky_fault(*kind) : false;
  inject::ScriptedInjection scripted(plan);
  inject::InjectionController& injection =
      kind ? static_cast<inject::InjectionController&>(scripted)
           : inject::NullInjection::instance();

  Trial trial(type, seed, config, injection);
  trial.monitor().log().set_retention(true);
  trial.monitor().enable_state_trace();
  trial.run();

  FdTrialResult result;
  result.injected = kind ? scripted.fired() : false;
  result.st_reports = trial.sink().reports();
  const auto events = trial.monitor().history();
  result.event_count = events.size();
  result.fd_reports = core::validate_fd_rules(
      trial.spec(), trial.monitor().symbols(), events,
      trial.monitor().state_trace(), trial.end_time());
  return result;
}

}  // namespace robmon::wl

#endif  // ROBMON_SYNC_BACKEND_SIM
