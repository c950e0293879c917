// The paper's robustness evaluation as a property test (Section 4: "Faults
// of different kinds as classified ... are injected randomly ... The
// results show that all injected faults are detected"):
//
//   * completeness — for every one of the 21 taxonomy classes and several
//     schedule seeds, a scripted injection is detected by one of the rules
//     the catalog maps it to;
//   * soundness — fault-free runs of the same workloads over many seeds,
//     and over a sweep of workload shapes, produce zero reports.
//
// Every trial runs the production HoareMonitor + CheckerPool under the
// deterministic SimBackend (this binary links robmon_sim).
#include <gtest/gtest.h>

#include <sstream>

#include "core/fault.hpp"
#include "inject/catalog.hpp"
#include "workloads/sim_scenarios.hpp"

namespace robmon::wl {
namespace {

std::string render_reports(const CoverageOutcome& outcome) {
  std::ostringstream out;
  for (const auto& report : outcome.reports) {
    out << "  " << core::to_string(report.rule) << " pid=" << report.pid
        << ": " << report.message << "\n";
  }
  return out.str();
}

using CoverageParam = std::tuple<core::FaultKind, std::uint64_t>;

class CoverageTest : public ::testing::TestWithParam<CoverageParam> {};

TEST_P(CoverageTest, InjectedFaultIsDetected) {
  const auto [kind, seed] = GetParam();
  const CoverageOutcome outcome = run_coverage_trial(kind, seed);
  EXPECT_TRUE(outcome.injected)
      << "fault " << core::to_string(kind) << " never armed under seed "
      << seed;
  EXPECT_TRUE(outcome.detected)
      << "fault " << core::paper_designation(kind) << " ("
      << core::to_string(kind) << ") undetected under seed " << seed
      << "; reports were:\n"
      << render_reports(outcome);
  if (outcome.detected) {
    EXPECT_GE(outcome.detection_check, 1u);
  }
}

std::vector<CoverageParam> coverage_params() {
  std::vector<CoverageParam> params;
  for (const core::FaultKind kind : core::all_fault_kinds()) {
    for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
      params.emplace_back(kind, seed);
    }
  }
  return params;
}

std::string coverage_param_name(
    const ::testing::TestParamInfo<CoverageParam>& info) {
  const auto [kind, seed] = info.param;
  std::string name(core::to_string(kind));
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name + "_seed" + std::to_string(seed);
}

INSTANTIATE_TEST_SUITE_P(AllFaultKinds, CoverageTest,
                         ::testing::ValuesIn(coverage_params()),
                         coverage_param_name);

using SoundnessParam = std::tuple<core::MonitorType, std::uint64_t>;

class SoundnessTest : public ::testing::TestWithParam<SoundnessParam> {};

TEST_P(SoundnessTest, FaultFreeRunReportsNothing) {
  const auto [type, seed] = GetParam();
  EXPECT_EQ(run_fault_free_trial(type, seed), 0u)
      << "spurious report on " << core::to_string(type) << " seed " << seed;
}

std::vector<SoundnessParam> soundness_params() {
  std::vector<SoundnessParam> params;
  for (const core::MonitorType type :
       {core::MonitorType::kCommunicationCoordinator,
        core::MonitorType::kResourceAllocator}) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      params.emplace_back(type, seed);
    }
  }
  return params;
}

std::string soundness_param_name(
    const ::testing::TestParamInfo<SoundnessParam>& info) {
  const auto [type, seed] = info.param;
  return std::string(core::to_string(type)) + "_seed" +
         std::to_string(seed);
}

INSTANTIATE_TEST_SUITE_P(FaultFree, SoundnessTest,
                         ::testing::ValuesIn(soundness_params()),
                         soundness_param_name);

// --- Soundness across workload shapes. -------------------------------------

struct SweepShape {
  int producers;
  int consumers;
  std::size_t capacity;
  int operations;
  const char* label;
};

using SweepParam = std::tuple<SweepShape, std::uint64_t>;

class ShapeSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ShapeSweepTest, FaultFreeAcrossShapes) {
  const auto [shape, seed] = GetParam();
  wl::CoverageConfig config;
  config.producers = shape.producers;
  config.consumers = shape.consumers;
  config.buffer_capacity = shape.capacity;
  config.operations = shape.operations;
  EXPECT_EQ(wl::run_fault_free_trial(
                core::MonitorType::kCommunicationCoordinator, seed, config),
            0u)
      << shape.label << " seed " << seed;
}

std::vector<SweepParam> sweep_params() {
  static const SweepShape shapes[] = {
      {1, 1, 1, 20, "minimal"},
      {1, 4, 2, 16, "consumer-heavy"},
      {4, 1, 2, 16, "producer-heavy"},
      {2, 2, 1, 24, "single-slot"},
      {5, 5, 4, 10, "wide"},
  };
  std::vector<SweepParam> params;
  for (const auto& shape : shapes) {
    for (std::uint64_t seed : {11ULL, 12ULL, 13ULL}) {
      params.emplace_back(shape, seed);
    }
  }
  return params;
}

std::string sweep_name(const ::testing::TestParamInfo<SweepParam>& info) {
  const auto [shape, seed] = info.param;
  std::string label = shape.label;
  for (char& c : label) {
    if (c == '-') c = '_';
  }
  return label + "_seed" + std::to_string(seed);
}

INSTANTIATE_TEST_SUITE_P(Shapes, ShapeSweepTest,
                         ::testing::ValuesIn(sweep_params()), sweep_name);

TEST(CoverageCatalogTest, CoversAllTwentyOneKinds) {
  EXPECT_EQ(inject::fault_catalog().size(), core::kFaultKindCount);
  for (const core::FaultKind kind : core::all_fault_kinds()) {
    EXPECT_NO_THROW(inject::catalog_entry(kind));
    EXPECT_FALSE(inject::catalog_entry(kind).detecting_rules.empty());
  }
}

TEST(CoverageCatalogTest, LevelsMatchTaxonomy) {
  for (const auto& entry : inject::fault_catalog()) {
    const core::FaultLevel level = core::level_of(entry.kind);
    if (level == core::FaultLevel::kUserProcess) {
      EXPECT_EQ(entry.exercised_on, core::MonitorType::kResourceAllocator);
    } else {
      EXPECT_EQ(entry.exercised_on,
                core::MonitorType::kCommunicationCoordinator);
    }
  }
}

}  // namespace
}  // namespace robmon::wl
