// Property-style sweeps and unit tests for the supporting pieces:
// injection-framework semantics, codec round-trips under random traces, and
// spec/catalog consistency.
#include <gtest/gtest.h>

#include <sstream>

#include "core/monitor_spec.hpp"
#include "inject/catalog.hpp"
#include "inject/injection.hpp"
#include "trace/codec.hpp"
#include "util/rng.hpp"

namespace robmon {
namespace {

// --- Injection framework semantics. -------------------------------------------

TEST(ScriptedInjectionTest, FiresOnNthOpportunity) {
  inject::ScriptedInjection injection(
      {core::FaultKind::kWaitNoBlock, trace::kNoPid, 3, false});
  EXPECT_FALSE(injection.fire(core::FaultKind::kWaitNoBlock, 1));
  EXPECT_FALSE(injection.fire(core::FaultKind::kWaitNoBlock, 2));
  EXPECT_TRUE(injection.fire(core::FaultKind::kWaitNoBlock, 3));
  EXPECT_TRUE(injection.fired());
  EXPECT_EQ(injection.victim(), 3);
  // One-shot: no further strikes.
  EXPECT_FALSE(injection.fire(core::FaultKind::kWaitNoBlock, 4));
}

TEST(ScriptedInjectionTest, OtherKindsDoNotConsumeOpportunities) {
  inject::ScriptedInjection injection(
      {core::FaultKind::kWaitNoBlock, trace::kNoPid, 1, false});
  EXPECT_FALSE(injection.fire(core::FaultKind::kEnterRequestLost, 1));
  EXPECT_FALSE(injection.fired());
  EXPECT_TRUE(injection.fire(core::FaultKind::kWaitNoBlock, 1));
}

TEST(ScriptedInjectionTest, TargetFilter) {
  inject::ScriptedInjection injection(
      {core::FaultKind::kWaitNoBlock, /*target=*/7, 1, false});
  EXPECT_FALSE(injection.fire(core::FaultKind::kWaitNoBlock, 1));
  EXPECT_FALSE(injection.fire(core::FaultKind::kWaitNoBlock, 9));
  EXPECT_TRUE(injection.fire(core::FaultKind::kWaitNoBlock, 7));
}

TEST(ScriptedInjectionTest, StickyKeepsStrikingVictim) {
  inject::ScriptedInjection injection(
      {core::FaultKind::kWaitEntryStarved, trace::kNoPid, 1, true});
  EXPECT_TRUE(injection.fire(core::FaultKind::kWaitEntryStarved, 5));
  EXPECT_TRUE(injection.fire(core::FaultKind::kWaitEntryStarved, 5));
  EXPECT_FALSE(injection.fire(core::FaultKind::kWaitEntryStarved, 6));
  EXPECT_TRUE(injection.active(core::FaultKind::kWaitEntryStarved, 5));
  EXPECT_FALSE(injection.active(core::FaultKind::kWaitEntryStarved, 6));
  EXPECT_FALSE(injection.active(core::FaultKind::kWaitNoBlock, 5));
}

TEST(ScriptedInjectionTest, NonStickyActiveStillIdentifiesVictim) {
  inject::ScriptedInjection injection(
      {core::FaultKind::kEnterNoResponse, trace::kNoPid, 1, false});
  EXPECT_FALSE(injection.active(core::FaultKind::kEnterNoResponse, 5));
  EXPECT_TRUE(injection.fire(core::FaultKind::kEnterNoResponse, 5));
  EXPECT_TRUE(injection.active(core::FaultKind::kEnterNoResponse, 5));
}

TEST(RandomInjectionTest, ProbabilityZeroNeverFires) {
  inject::RandomInjection injection(core::FaultKind::kWaitNoBlock, 0.0, 1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(injection.fire(core::FaultKind::kWaitNoBlock, i));
  }
  EXPECT_EQ(injection.times_fired(), 0);
}

TEST(RandomInjectionTest, ProbabilityOneAlwaysFires) {
  inject::RandomInjection injection(core::FaultKind::kWaitNoBlock, 1.0, 1);
  EXPECT_TRUE(injection.fire(core::FaultKind::kWaitNoBlock, 3));
  EXPECT_GE(injection.times_fired(), 1);
  EXPECT_EQ(injection.victim(), 3);
}

TEST(RandomInjectionTest, StickyFaultEngagesOnVictim) {
  inject::RandomInjection injection(core::FaultKind::kWaitEntryStarved, 1.0,
                                    1);
  EXPECT_TRUE(injection.fire(core::FaultKind::kWaitEntryStarved, 4));
  // Once engaged, only the victim keeps being struck.
  EXPECT_TRUE(injection.fire(core::FaultKind::kWaitEntryStarved, 4));
  EXPECT_FALSE(injection.fire(core::FaultKind::kWaitEntryStarved, 5));
}

TEST(InjectionMetaTest, StickyAndTimerFlagsConsistentWithCatalog) {
  for (const auto& entry : inject::fault_catalog()) {
    EXPECT_EQ(entry.timer_based, inject::needs_timer(entry.kind))
        << core::to_string(entry.kind);
  }
  EXPECT_TRUE(inject::is_sticky_fault(core::FaultKind::kWaitEntryStarved));
  EXPECT_TRUE(inject::is_sticky_fault(core::FaultKind::kEnterNoResponse));
  EXPECT_FALSE(inject::is_sticky_fault(core::FaultKind::kWaitNoBlock));
}

// --- MonitorSpec. --------------------------------------------------------------

TEST(MonitorSpecTest, FactoriesSetTypeAndCapacity) {
  const auto coordinator = core::MonitorSpec::coordinator("c", 16);
  EXPECT_EQ(coordinator.type,
            core::MonitorType::kCommunicationCoordinator);
  EXPECT_EQ(coordinator.rmax, 16);
  EXPECT_EQ(core::MonitorSpec::allocator("a").type,
            core::MonitorType::kResourceAllocator);
  EXPECT_EQ(core::MonitorSpec::manager("m").type,
            core::MonitorType::kOperationManager);
}

TEST(MonitorSpecTest, AllocatorDefaultsToAcquireReleaseOrder) {
  const auto spec = core::MonitorSpec::allocator("a");
  EXPECT_EQ(spec.effective_path_expression(), "(Acquire ; Release)*");
}

TEST(MonitorSpecTest, ExplicitPathExpressionWins) {
  auto spec = core::MonitorSpec::allocator("a");
  spec.path_expression = "(Open ; Use* ; Close)*";
  EXPECT_EQ(spec.effective_path_expression(), "(Open ; Use* ; Close)*");
}

TEST(MonitorSpecTest, NonAllocatorHasNoDefaultOrder) {
  EXPECT_TRUE(core::MonitorSpec::manager("m")
                  .effective_path_expression()
                  .empty());
}

TEST(MonitorSpecTest, TypeStringRoundTrip) {
  for (const auto type : {core::MonitorType::kCommunicationCoordinator,
                          core::MonitorType::kResourceAllocator,
                          core::MonitorType::kOperationManager}) {
    EXPECT_EQ(core::monitor_type_from_string(core::to_string(type)), type);
  }
  EXPECT_THROW(core::monitor_type_from_string("nonsense"),
               std::invalid_argument);
}

// --- Report rendering. -----------------------------------------------------------

TEST(ReportDescribeTest, IncludesLevelRulePidAndSuspect) {
  trace::SymbolTable symbols;
  const auto send = symbols.intern("Send");
  core::FaultReport report;
  report.rule = core::RuleId::kSt7aSendExceedsCapacity;
  report.suspected = core::FaultKind::kSendExceedsCapacity;
  report.pid = 3;
  report.proc = send;
  report.message = "boom";
  const std::string text = core::describe(report, symbols);
  EXPECT_NE(text.find("monitor-procedure"), std::string::npos);
  EXPECT_NE(text.find("ST-7a"), std::string::npos);
  EXPECT_NE(text.find("p3"), std::string::npos);
  EXPECT_NE(text.find("Send"), std::string::npos);
  EXPECT_NE(text.find("II.d"), std::string::npos);
  EXPECT_NE(text.find("boom"), std::string::npos);
}

// --- Codec round-trip under random traces. ----------------------------------------

trace::TraceFile random_trace(util::Rng& rng) {
  trace::TraceFile file;
  file.monitor_name = "m" + std::to_string(rng.below(100));
  file.monitor_type = "coordinator";
  file.rmax = rng.range(0, 64);
  const auto symbol_count = 2 + rng.below(6);
  for (std::uint64_t s = 0; s < symbol_count; ++s) {
    file.symbols.push_back("sym" + std::to_string(s));
  }
  const auto event_count = rng.below(200);
  for (std::uint64_t i = 0; i < event_count; ++i) {
    trace::EventRecord ev;
    ev.seq = i;
    ev.time = static_cast<util::TimeNs>(rng.below(1'000'000));
    ev.kind = static_cast<trace::EventKind>(rng.below(3));
    ev.pid = static_cast<trace::Pid>(rng.below(32));
    ev.proc = static_cast<trace::SymbolId>(rng.below(symbol_count));
    ev.cond = rng.chance(0.5)
                  ? trace::kNoSymbol
                  : static_cast<trace::SymbolId>(rng.below(symbol_count));
    ev.flag = rng.chance(0.5);
    file.events.push_back(ev);
  }
  const auto checkpoint_count = 1 + rng.below(4);
  for (std::uint64_t c = 0; c < checkpoint_count; ++c) {
    trace::SchedulingState state;
    state.captured_at = static_cast<util::TimeNs>(rng.below(1'000'000));
    state.resources = rng.range(-1, 32);
    if (rng.chance(0.6)) {
      state.running = static_cast<trace::Pid>(rng.below(32));
      state.running_proc = static_cast<trace::SymbolId>(
          rng.below(symbol_count));
      state.running_since = static_cast<util::TimeNs>(rng.below(1'000'000));
    }
    const auto eq = rng.below(5);
    for (std::uint64_t i = 0; i < eq; ++i) {
      state.entry_queue.push_back(
          {static_cast<trace::Pid>(rng.below(32)),
           static_cast<trace::SymbolId>(rng.below(symbol_count)),
           static_cast<util::TimeNs>(rng.below(1'000'000))});
    }
    if (rng.chance(0.7)) {
      trace::CondQueueState queue;
      queue.cond = static_cast<trace::SymbolId>(rng.below(symbol_count));
      const auto cq = rng.below(4);
      for (std::uint64_t i = 0; i < cq; ++i) {
        queue.entries.push_back(
            {static_cast<trace::Pid>(rng.below(32)),
             static_cast<trace::SymbolId>(rng.below(symbol_count)),
             static_cast<util::TimeNs>(rng.below(1'000'000))});
      }
      state.cond_queues.push_back(queue);
    }
    file.checkpoints.push_back(state);
  }
  return file;
}

class CodecRoundTripTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecRoundTripTest, RandomTraceSurvivesRoundTrip) {
  util::Rng rng(GetParam());
  for (int i = 0; i < 5; ++i) {
    const trace::TraceFile original = random_trace(rng);
    const trace::TraceFile parsed =
        trace::read_trace_string(trace::write_trace_string(original));
    EXPECT_EQ(parsed.monitor_name, original.monitor_name);
    EXPECT_EQ(parsed.rmax, original.rmax);
    EXPECT_EQ(parsed.symbols, original.symbols);
    ASSERT_EQ(parsed.events.size(), original.events.size());
    for (std::size_t e = 0; e < parsed.events.size(); ++e) {
      EXPECT_EQ(parsed.events[e], original.events[e]);
    }
    ASSERT_EQ(parsed.checkpoints.size(), original.checkpoints.size());
    for (std::size_t c = 0; c < parsed.checkpoints.size(); ++c) {
      // Condition queues that were randomly generated empty are recorded
      // as declared-empty and survive; compare structurally.
      EXPECT_EQ(parsed.checkpoints[c].entry_queue,
                original.checkpoints[c].entry_queue);
      EXPECT_EQ(parsed.checkpoints[c].resources,
                original.checkpoints[c].resources);
      EXPECT_EQ(parsed.checkpoints[c].running,
                original.checkpoints[c].running);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecRoundTripTest,
                         ::testing::Values(101, 102, 103, 104));

}  // namespace
}  // namespace robmon
