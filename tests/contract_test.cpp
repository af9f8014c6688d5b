// Contract (precondition) enforcement: misusing the API must abort with a
// diagnostic, not corrupt state. Death tests document the exact contracts.
#include <gtest/gtest.h>

#include <vector>

#include "core/admission.h"
#include "core/feasible_region.h"
#include "core/stage_delay.h"
#include "core/synthetic_utilization.h"
#include "metrics/histogram.h"
#include "metrics/utilization_meter.h"
#include "sched/stage_server.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace frap {
namespace {


TEST(ContractDeathTest, SimulatorRejectsSchedulingInThePast) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  sim::Simulator sim;
  sim.at(5.0, [] {});
  sim.run();
  EXPECT_DEATH(sim.at(1.0, [] {}), "precondition");
}

TEST(ContractDeathTest, SimulatorRejectsNegativeDelay) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  sim::Simulator sim;
  EXPECT_DEATH(sim.after(-1.0, [] {}), "precondition");
}

TEST(ContractDeathTest, RngRejectsInvalidRanges) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  util::Rng rng(1);
  EXPECT_DEATH(rng.uniform(2.0, 1.0), "precondition");
  EXPECT_DEATH(rng.exponential(0.0), "precondition");
  EXPECT_DEATH(rng.bernoulli(1.5), "precondition");
  EXPECT_DEATH(rng.uniform_int(5, 4), "precondition");
}

TEST(ContractDeathTest, StageDelayRejectsNegativeUtilization) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(core::stage_delay_factor(-0.1), "precondition");
  EXPECT_DEATH(core::stage_delay_factor_inverse(-1.0), "precondition");
}

TEST(ContractDeathTest, RegionRejectsBadParameters) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(core::FeasibleRegion::with_alpha(2, 0.0), "precondition");
  EXPECT_DEATH(core::FeasibleRegion::with_alpha(2, 1.5), "precondition");
  EXPECT_DEATH(core::FeasibleRegion::with_blocking(
                   1.0, std::vector<double>{0.6, 0.6}),
               "precondition");  // beta sum >= 1: empty region
  EXPECT_DEATH(core::FeasibleRegion::deadline_monotonic(0), "precondition");
}

TEST(ContractDeathTest, RegionRejectsWrongDimension) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const auto region = core::FeasibleRegion::deadline_monotonic(2);
  EXPECT_DEATH((void)region.lhs(std::vector<double>{0.1}), "precondition");
}

TEST(ContractDeathTest, TrackerRejectsDuplicateTaskIds) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  sim::Simulator sim;
  core::SyntheticUtilizationTracker t(sim, 1);
  t.add(1, std::vector<double>{0.1}, 10.0);
  EXPECT_DEATH(t.add(1, std::vector<double>{0.1}, 10.0), "precondition");
}

TEST(ContractDeathTest, TrackerRejectsWrongWidthAndPastDeadline) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  sim::Simulator sim;
  core::SyntheticUtilizationTracker t(sim, 2);
  EXPECT_DEATH(t.add(1, std::vector<double>{0.1}, 10.0), "precondition");
  sim.at(5.0, [] {});
  sim.run();
  EXPECT_DEATH(t.add(2, std::vector<double>{0.1, 0.1}, 1.0),
               "precondition");
}

TEST(ContractDeathTest, TrackerRejectsInvalidReservation) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  sim::Simulator sim;
  core::SyntheticUtilizationTracker t(sim, 1);
  EXPECT_DEATH(t.set_reservation(0, 1.0), "precondition");
  EXPECT_DEATH(t.set_reservation(5, 0.1), "precondition");
}

TEST(ContractDeathTest, ServerRejectsDoubleSubmit) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  sim::Simulator sim;
  sched::StageServer server(sim);
  sched::Job job(1, 1.0, {sched::Segment{1.0, sched::kNoLock}});
  server.submit(job);
  EXPECT_DEATH(server.submit(job), "precondition");
}

TEST(ContractDeathTest, ServerRejectsEmptyJob) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  sim::Simulator sim;
  sched::StageServer server(sim);
  sched::Job job(1, 1.0, std::vector<sched::Segment>{});
  EXPECT_DEATH(server.submit(job), "precondition");
}

TEST(ContractDeathTest, MeterRejectsOutOfOrderTransitions) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  metrics::UtilizationMeter m;
  m.set_busy(1.0);
  EXPECT_DEATH(m.set_busy(2.0), "precondition");
  m.set_idle(2.0);
  EXPECT_DEATH(m.set_idle(3.0), "precondition");
}

TEST(ContractDeathTest, HistogramRejectsDegenerateRange) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(metrics::Histogram(1.0, 1.0, 4), "precondition");
  EXPECT_DEATH(metrics::Histogram(0.0, 1.0, 0), "precondition");
}

TEST(ContractDeathTest, AdmissionRejectsMismatchedTask) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  sim::Simulator sim;
  core::SyntheticUtilizationTracker t(sim, 2);
  core::AdmissionController c(sim, t,
                              core::FeasibleRegion::deadline_monotonic(2));
  core::TaskSpec wrong;
  wrong.id = 1;
  wrong.deadline = 1.0;
  wrong.stages.resize(3);  // pipeline is 2 stages
  for (auto& s : wrong.stages) s.compute = 0.1;
  EXPECT_DEATH((void)c.try_admit(wrong, sim.now()), "precondition");
}

TEST(ContractDeathTest, AdmissionRejectsInvalidSpec) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  sim::Simulator sim;
  core::SyntheticUtilizationTracker t(sim, 1);
  core::AdmissionController c(sim, t,
                              core::FeasibleRegion::deadline_monotonic(1));
  core::TaskSpec bad;  // no deadline, no stages
  EXPECT_DEATH((void)c.try_admit(bad, sim.now()), "precondition");
}

}  // namespace
}  // namespace frap
