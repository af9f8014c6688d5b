#include <gtest/gtest.h>

#include <vector>

#include "core/certification.h"

namespace frap::core {
namespace {

using Rule = ReservationPlanner::StageRule;

CatalogEntry entry(std::string name, std::vector<double> c) {
  CatalogEntry e;
  e.name = std::move(name);
  e.contributions = std::move(c);
  return e;
}

class CertificationTest : public ::testing::Test {
 protected:
  CertificationTest()
      : certifier_(FeasibleRegion::deadline_monotonic(3),
                   {Rule::kSum, Rule::kSum, Rule::kMax}) {
    // The TSCE critical catalog (Sec. 5).
    wd_ = certifier_.add(entry("WeaponDetection", {0.2, 0.13, 0.06}));
    wt_ = certifier_.add(entry("WeaponTargeting", {0.1, 0.1, 0.1}));
    uv_ = certifier_.add(entry("UavVideo", {0.1, 0.02, 0.1}));
  }

  ScenarioCertifier certifier_;
  std::size_t wd_ = 0, wt_ = 0, uv_ = 0;
};

TEST_F(CertificationTest, EmptyScenarioTriviallyCertified) {
  const auto v = certifier_.certify({});
  EXPECT_TRUE(v.certified);
  EXPECT_DOUBLE_EQ(v.lhs, 0.0);
}

TEST_F(CertificationTest, FullTsceScenarioCertifiesAt093) {
  const auto v = certifier_.certify({wd_, wt_, uv_});
  EXPECT_TRUE(v.certified);
  EXPECT_NEAR(v.lhs, 0.9306, 1e-3);
}

TEST_F(CertificationTest, AllSubsetsEnumerated) {
  const auto verdicts = certifier_.certify_all_subsets();
  EXPECT_EQ(verdicts.size(), 8u);  // 2^3
  for (const auto& v : verdicts) {
    EXPECT_TRUE(v.certified);  // the whole TSCE catalog is feasible
  }
}

TEST_F(CertificationTest, SubsetLhsIsMonotone) {
  const auto single = certifier_.certify({wd_});
  const auto pair = certifier_.certify({wd_, wt_});
  const auto full = certifier_.certify({wd_, wt_, uv_});
  EXPECT_LT(single.lhs, pair.lhs);
  EXPECT_LT(pair.lhs, full.lhs);
}

TEST_F(CertificationTest, DuplicatesModelConcurrentInstances) {
  // Two concurrent Weapon Detections: 0.4 on stage 1 from them alone.
  const auto v = certifier_.certify({wd_, wd_, wt_, uv_});
  EXPECT_GT(v.lhs, certifier_.certify({wd_, wt_, uv_}).lhs);
  // Still certified? stage1 = 0.6, f(0.6) = 1.05 > 1 alone: NOT certified.
  EXPECT_FALSE(v.certified);
}

TEST_F(CertificationTest, MaxRuleOnPartitionedStage) {
  // Stage 3 takes the max: adding UavVideo (0.1 on stage 3) to
  // WeaponTargeting (0.1 on stage 3) must not raise the stage-3 term.
  ScenarioCertifier c(FeasibleRegion::deadline_monotonic(1), {Rule::kMax});
  const auto a = c.add(entry("a", {0.3}));
  const auto b = c.add(entry("b", {0.2}));
  EXPECT_DOUBLE_EQ(c.certify({a, b}).lhs, c.certify({a}).lhs);
}

TEST_F(CertificationTest, InfeasibleCatalogDetected) {
  ScenarioCertifier c(FeasibleRegion::deadline_monotonic(2),
                      {Rule::kSum, Rule::kSum});
  c.add(entry("huge1", {0.3, 0.3}));
  c.add(entry("huge2", {0.3, 0.3}));
  const auto verdicts = c.certify_all_subsets();  // {}, {1}, {2}, {1, 2}
  ASSERT_EQ(verdicts.size(), 4u);
  // Either alone fits, not both.
  EXPECT_TRUE(verdicts[1].certified);
  EXPECT_TRUE(verdicts[2].certified);
  EXPECT_FALSE(verdicts[3].certified);
}

TEST_F(CertificationTest, AlphaScaledRegionShrinksCertification) {
  ScenarioCertifier strict(FeasibleRegion::with_alpha(3, 0.5),
                           {Rule::kSum, Rule::kSum, Rule::kMax});
  const auto wd = strict.add(entry("WeaponDetection", {0.2, 0.13, 0.06}));
  const auto wt = strict.add(entry("WeaponTargeting", {0.1, 0.1, 0.1}));
  const auto uv = strict.add(entry("UavVideo", {0.1, 0.02, 0.1}));
  // 0.93 > 0.5: the full set no longer certifies under alpha = 0.5.
  EXPECT_FALSE(strict.certify({wd, wt, uv}).certified);
}

}  // namespace
}  // namespace frap::core
