// Tests for the frap-lint analyzer itself, driven by the checked-in
// fixtures under tools/frap_lint/fixtures/. Fixtures are lexed, never
// compiled, so each one is linted under a pretend repo-relative path that
// puts it in the right rule scope (e.g. src/core/*.h for R4).
#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint.h"

namespace {

using frap::lint::Finding;
using frap::lint::active;
using frap::lint::apply_baseline;
using frap::lint::canonical_rule;
using frap::lint::lint_source;

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(FRAP_LINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Lints a fixture under `relpath` and returns the findings for one rule.
std::vector<Finding> findings_for(const std::string& fixture,
                                  const std::string& relpath,
                                  const std::string& rule) {
  auto all = lint_source(relpath, read_fixture(fixture));
  std::vector<Finding> out;
  for (auto& f : all)
    if (f.rule == rule) out.push_back(f);
  return out;
}

std::vector<int> lines_of(const std::vector<Finding>& fs) {
  std::vector<int> lines;
  for (const auto& f : fs) lines.push_back(f.line);
  std::sort(lines.begin(), lines.end());
  return lines;
}

TEST(FrapLintRules, R1FlagsDeadlineAndOneMinusUDenominators) {
  auto fs = findings_for("r1_flag.cpp", "src/workload/r1_flag.cpp",
                         "unsafe-division");
  EXPECT_EQ(lines_of(fs), (std::vector<int>{3, 7, 10}));
}

TEST(FrapLintRules, R1PassesSafeDivAndBenignDenominators) {
  auto all = lint_source("src/workload/r1_pass.cpp",
                         read_fixture("r1_pass.cpp"));
  EXPECT_TRUE(all.empty()) << all.size() << " unexpected finding(s), first: "
                           << (all.empty() ? "" : all.front().message);
}

TEST(FrapLintRules, R2FlagsLhsComparisonsOutsideFeasibleRegion) {
  auto fs = findings_for("r2_flag.cpp", "src/core/r2_flag.cpp",
                         "rederived-admission");
  EXPECT_EQ(lines_of(fs), (std::vector<int>{6, 9, 12}));
}

TEST(FrapLintRules, R2PassesAdmitsLhsCallsAndNonLhsComparisons) {
  auto all =
      lint_source("src/core/r2_pass.cpp", read_fixture("r2_pass.cpp"));
  EXPECT_TRUE(all.empty());
}

TEST(FrapLintRules, R2SanctionedInsideFeasibleRegionHeader) {
  // The same comparisons that flag elsewhere are sanctioned in the one
  // file allowed to hold the admission comparison.
  auto all = lint_source("src/core/feasible_region.h",
                         read_fixture("r2_flag.cpp"));
  for (const auto& f : all) EXPECT_NE(f.rule, "rederived-admission");
}

TEST(FrapLintRules, R3FlagsRawFloatEquality) {
  // Lines 3-12: literal comparisons. Lines 19-25: `.value` member-access
  // comparisons (the dispatch-key pattern of sched/priority.h) — exact
  // compares on them must carry the exact-tie-contract suppression.
  auto fs =
      findings_for("r3_flag.cpp", "src/util/r3_flag.cpp", "float-equality");
  EXPECT_EQ(lines_of(fs), (std::vector<int>{3, 6, 9, 12, 19, 22, 25}));
}

TEST(FrapLintRules, R3ValueMemberMessageCitesTheContract) {
  auto fs =
      findings_for("r3_flag.cpp", "src/util/r3_flag.cpp", "float-equality");
  bool saw_member_message = false;
  for (const auto& f : fs) {
    if (f.line >= 19 && f.message.find("exact-tie") != std::string::npos)
      saw_member_message = true;
  }
  EXPECT_TRUE(saw_member_message);
}

TEST(FrapLintRules, R3PassesAlmostEqualAndIntegerEquality) {
  auto all =
      lint_source("src/util/r3_pass.cpp", read_fixture("r3_pass.cpp"));
  EXPECT_TRUE(all.empty());
}

TEST(FrapLintRules, R4FlagsUnannotatedPublicDecisionApis) {
  auto fs = findings_for("r4_flag.h", "src/core/r4_flag.h",
                         "missing-nodiscard");
  EXPECT_EQ(lines_of(fs), (std::vector<int>{9, 10, 11, 17, 19}));
}

TEST(FrapLintRules, R4PassesAnnotatedPrivateAndNonDecisionApis) {
  auto all = lint_source("src/core/r4_pass.h", read_fixture("r4_pass.h"));
  EXPECT_TRUE(all.empty());
}

TEST(FrapLintRules, R4OnlyAppliesToCoreHeaders) {
  // The same declarations are out of scope in a .cpp or outside core/.
  EXPECT_TRUE(
      lint_source("src/core/r4_flag.cpp", read_fixture("r4_flag.h")).empty());
  EXPECT_TRUE(
      lint_source("src/sched/r4_flag.h", read_fixture("r4_flag.h")).empty());
}

TEST(FrapLintRules, R5FlagsEntropyClocksStdoutAndConcurrency) {
  auto fs = findings_for("r5_flag.cpp", "src/sched/r5_flag.cpp",
                         "nondeterminism");
  EXPECT_EQ(lines_of(fs), (std::vector<int>{5, 10, 12, 16, 20, 21, 23, 27}));
}

TEST(FrapLintRules, R5PassesSeededRngAndMemberTimeAccess) {
  auto all =
      lint_source("src/sched/r5_pass.cpp", read_fixture("r5_pass.cpp"));
  EXPECT_TRUE(all.empty());
}

TEST(FrapLintRules, R5ExemptsRngHelperAndNonLibraryCode) {
  // util/rng.* is the sanctioned entropy boundary; tests/ and bench/ are
  // outside library scope for this rule.
  EXPECT_TRUE(
      lint_source("src/util/rng.cpp", read_fixture("r5_flag.cpp")).empty());
  EXPECT_TRUE(
      lint_source("tests/r5_flag.cpp", read_fixture("r5_flag.cpp")).empty());
}

TEST(FrapLintRules, R5ServiceMayUseConcurrencyButNotClocksOrEntropy) {
  // src/service/ (and metrics/counters.h) may use threads and atomics, but
  // the entropy/wall-clock/stdout half of the rule still applies there.
  auto svc = findings_for("r5_flag.cpp", "src/service/r5_flag.cpp",
                          "nondeterminism");
  EXPECT_EQ(lines_of(svc), (std::vector<int>{5, 10, 12, 16, 27}));
  auto counters = findings_for("r5_flag.cpp", "src/metrics/counters.h",
                               "nondeterminism");
  EXPECT_EQ(lines_of(counters), (std::vector<int>{5, 10, 12, 16, 27}));
}

TEST(FrapLintRules, R5ObsMayUseConcurrencyButNotClocksOrEntropy) {
  // src/obs/ holds the lock-free trace ring, so the concurrency half of
  // the rule is exempt there — but entropy, wall clocks, and stdout are
  // still banned like everywhere else in src/.
  auto obs = findings_for("r5_flag.cpp", "src/obs/trace_ring.h",
                          "nondeterminism");
  EXPECT_EQ(lines_of(obs), (std::vector<int>{5, 10, 12, 16, 27}));
}

TEST(FrapLintRules, R5PassesTimerWheelIdioms) {
  // Timer code is saturated with temporal-looking identifiers
  // (Timer::time members, tick arithmetic, steady_state counters). They
  // must all lint clean under src/sim/ without any new carve-out: member
  // access and value uses never match the wall-clock patterns.
  auto all = lint_source("src/sim/event_queue.cpp",
                         read_fixture("r5_wheel_pass.cpp"));
  EXPECT_TRUE(all.empty()) << all.size() << " unexpected finding(s), first: "
                           << (all.empty() ? "" : all.front().message);
}

TEST(FrapLintRules, R5SimGetsNoCarveOut) {
  // Conversely src/sim/ earns no exemption: real entropy, wall clocks,
  // stdout, and concurrency primitives all still flag there, exactly as
  // in any other library directory.
  auto fs = findings_for("r5_flag.cpp", "src/sim/event_queue.cpp",
                         "nondeterminism");
  EXPECT_EQ(lines_of(fs), (std::vector<int>{5, 10, 12, 16, 20, 21, 23, 27}));
}

TEST(FrapLintRules, R5ClockSeamExemptsWallClockReadsOnly) {
  // src/obs/clock.cpp is the ONE file allowed to read a wall clock (the
  // monotonic_clock() behind the obs::Clock seam): time() and the chrono
  // clocks pass there, while entropy and stdout remain banned.
  auto seam = findings_for("r5_flag.cpp", "src/obs/clock.cpp",
                           "nondeterminism");
  EXPECT_EQ(lines_of(seam), (std::vector<int>{5, 10, 16}));
}

TEST(FrapLintRules, R5AtomicAdmissionIdiomsPassUnderService) {
  // The lock-free admission guard's idioms (std::atomic members, CAS retry
  // loops, fetch_add seqlock writes, mutex fallback) all belong to the
  // src/service/ concurrency carve-out and must lint clean there.
  auto all = lint_source("src/service/r5_atomic_pass.cpp",
                         read_fixture("r5_atomic_pass.cpp"));
  EXPECT_TRUE(all.empty()) << all.size() << " unexpected finding(s), first: "
                           << (all.empty() ? "" : all.front().message);
}

TEST(FrapLintRules, R5AtomicAdmissionIdiomsFlagOutsideExemptDirs) {
  // The same fixture under src/sched/ flags exactly the three primitive
  // declarations (two std::atomic members, one std::mutex). The member
  // accesses — load/compare_exchange_weak/fetch_add — never flag anywhere.
  auto fs = findings_for("r5_atomic_pass.cpp", "src/sched/r5_atomic_pass.cpp",
                         "nondeterminism");
  EXPECT_EQ(lines_of(fs), (std::vector<int>{7, 8, 9}));
}

TEST(FrapLintSuppression, DirectivesBindSuppressOrReport) {
  auto all = lint_source("src/workload/suppress.cpp",
                         read_fixture("suppress.cpp"));

  std::vector<int> suppressed, active_div, bad;
  for (const auto& f : all) {
    if (f.rule == "unsafe-division" && f.suppressed)
      suppressed.push_back(f.line);
    else if (f.rule == "unsafe-division" && active(f))
      active_div.push_back(f.line);
    else if (f.rule == "bad-suppression")
      bad.push_back(f.line);
  }
  std::sort(suppressed.begin(), suppressed.end());
  std::sort(active_div.begin(), active_div.end());
  std::sort(bad.begin(), bad.end());

  // Trailing directive (line 3) and standalone directive whose reason
  // continues across comment lines (binds to line 8) both suppress.
  EXPECT_EQ(suppressed, (std::vector<int>{3, 8}));
  // Reason-less (12), wrong-rule (16), and unknown-rule (20) cases stay
  // active.
  EXPECT_EQ(active_div, (std::vector<int>{12, 16, 20}));
  // The malformed directives themselves are reported and cannot be
  // silenced.
  EXPECT_EQ(bad, (std::vector<int>{11, 19}));
}

TEST(FrapLintSuppression, SuppressedFindingsAreNotActive) {
  auto all = lint_source("src/workload/suppress.cpp",
                         read_fixture("suppress.cpp"));
  for (const auto& f : all) {
    if (f.suppressed) {
      EXPECT_FALSE(active(f));
    }
  }
}

TEST(FrapLintRules, R2TemplateArgumentListsNeverReadAsComparisons) {
  // Every declaration in this fixture used to trip R2 via `uint64_t >
  // qlhs_`-style token runs; the scope pass marks template-argument
  // tokens and the whole file lints clean with no per-site carve-outs.
  auto all = lint_source("src/service/r2_template_pass.cpp",
                         read_fixture("r2_template_pass.cpp"));
  EXPECT_TRUE(all.empty()) << all.size() << " unexpected finding(s), first: "
                           << (all.empty() ? "" : all.front().message);
}

TEST(FrapLintRules, R6FlagsUnannotatedAndMisdirectedRounding) {
  // Lines 4/8: unannotated quantize_up and add_sat. Line 17: the seeded
  // soundness defect — quantize_down on an admit-side delta in a copy of
  // the guard's reservation path. Line 23: DOWN on a reject-side bound.
  auto fs = findings_for("r6_flag.cpp", "src/core/r6_flag.cpp",
                         "rounding-direction");
  EXPECT_EQ(lines_of(fs), (std::vector<int>{4, 8, 17, 23}));
}

TEST(FrapLintRules, R6PassesAnnotatedConservativeRounding) {
  auto all =
      lint_source("src/core/r6_pass.cpp", read_fixture("r6_pass.cpp"));
  EXPECT_TRUE(all.empty()) << all.size() << " unexpected finding(s), first: "
                           << (all.empty() ? "" : all.front().message);
}

TEST(FrapLintRules, R6OnlyAppliesUnderSrc) {
  // The same calls are out of scope outside src/ (bench drivers may
  // quantize freely) and inside the fixed-point home itself.
  EXPECT_TRUE(
      lint_source("bench/r6_flag.cpp", read_fixture("r6_flag.cpp")).empty());
  auto home = findings_for("r6_flag.cpp", "src/core/fixed_point.h",
                           "rounding-direction");
  EXPECT_TRUE(home.empty());
}

TEST(FrapLintRules, R7FlagsEachBrokenProtocolLeg) {
  // Writers: 13 no release publish, 21 empty write section, 28 missing
  // release fence. Readers: 35 relaxed first load, 46 unordered re-check,
  // 55 re-check that never compares.
  auto fs = findings_for("r7_flag.cpp", "src/obs/trace_ring.cpp",
                         "seqlock-protocol");
  EXPECT_EQ(lines_of(fs), (std::vector<int>{13, 21, 28, 35, 46, 55}));
}

TEST(FrapLintRules, R7PassesTextbookSeqlockFullyClean) {
  // The well-formed writer/reader pair also carries all its R8 order
  // contracts, so the file produces zero findings of any rule.
  auto all = lint_source("src/obs/trace_ring.cpp",
                         read_fixture("r7_pass.cpp"));
  EXPECT_TRUE(all.empty()) << all.size() << " unexpected finding(s), first: "
                           << (all.empty() ? "" : all.front().message);
}

TEST(FrapLintRules, R7OnlyAppliesToSeqlockHomes) {
  // The same broken protocol outside the seqlock homes is R8/R5 business,
  // not R7's.
  auto fs = findings_for("r7_flag.cpp", "src/service/sharded_admission.cpp",
                         "seqlock-protocol");
  EXPECT_TRUE(fs.empty());
}

TEST(FrapLintRules, R8RequiresContractsInsideCarveOut) {
  // Line 10 carries its order contract; 14 and 18 are bare.
  auto fs = findings_for("r8_flag.cpp", "src/service/r8_flag.cpp",
                         "memory-order-audit");
  EXPECT_EQ(lines_of(fs), (std::vector<int>{14, 18}));
}

TEST(FrapLintRules, R8BansRawOrderingsOutsideCarveOut) {
  // Outside the carve-out even the contracted line 10 flags: the contract
  // documents a choice the file is not allowed to make at all.
  auto fs = findings_for("r8_flag.cpp", "src/core/r8_flag.cpp",
                         "memory-order-audit");
  EXPECT_EQ(lines_of(fs), (std::vector<int>{10, 14, 18}));
}

TEST(FrapLintRules, R8PassesFullyContractedFile) {
  auto all = lint_source("src/service/r8_pass.cpp",
                         read_fixture("r8_pass.cpp"));
  EXPECT_TRUE(all.empty()) << all.size() << " unexpected finding(s), first: "
                           << (all.empty() ? "" : all.front().message);
}

TEST(FrapLintRules, R9FlagsAllocationLockThrowAndAllocatingCallee) {
  // Direct uses in hot_direct: 16 vector, 17 lock_guard, 18 make_unique,
  // 19 throw. Line 25: hot_indirect calls slow_helper, whose body news —
  // the one-level same-file summary propagation.
  auto fs = findings_for("r9_flag.cpp", "src/core/r9_flag.cpp",
                         "hotpath-alloc");
  EXPECT_EQ(lines_of(fs), (std::vector<int>{16, 17, 18, 19, 25}));
}

TEST(FrapLintRules, R9PassesSanctionedIdiomsAndNonHotpathCode) {
  auto all =
      lint_source("src/core/r9_pass.cpp", read_fixture("r9_pass.cpp"));
  EXPECT_TRUE(all.empty()) << all.size() << " unexpected finding(s), first: "
                           << (all.empty() ? "" : all.front().message);
}

TEST(FrapLintRules, R9DagFastPathIdiomsAreClean) {
  // The ISSUE 9 incremental admit path in miniature: profile dot products,
  // member scratch resize, sparse-commit push_back into reserved buffers —
  // the exact shapes LongPathEvaluator::path_value and try_admit_interned
  // use under their hotpath contracts.
  auto all = lint_source("src/core/r9_dag_pass.cpp",
                         read_fixture("r9_dag_pass.cpp"));
  EXPECT_TRUE(all.empty()) << all.size() << " unexpected finding(s), first: "
                           << (all.empty() ? "" : all.front().message);
}

TEST(FrapLintRules, R9DagRewalkRecipeIsFlagged) {
  // The pre-interning recipe the fast path replaced: snapshot vector (22),
  // std::function callback (24), and the same-file helper whose body news
  // the weight array, flagged at the call site (25).
  auto fs = findings_for("r9_dag_flag.cpp", "src/core/r9_dag_flag.cpp",
                         "hotpath-alloc");
  EXPECT_EQ(lines_of(fs), (std::vector<int>{22, 24, 25}));
}

TEST(FrapLintRules, R9IngestZeroCopyIdiomsAreClean) {
  // The ISSUE 10 wire-ingest hot path in miniature: memcpy unaligned loads
  // from a validated span, fixed-stride cursor advance, and scratch-spec
  // assembly that clears touched stages and push_backs into a reserved
  // touched list — the exact shapes ArrivalCursor::next and
  // IngestSession::assemble use under their hotpath contracts.
  auto all = lint_source("src/ingest/r9_ingest_pass.cpp",
                         read_fixture("r9_ingest_pass.cpp"));
  EXPECT_TRUE(all.empty()) << all.size() << " unexpected finding(s), first: "
                           << (all.empty() ? "" : all.front().message);
}

TEST(FrapLintRules, R9IngestCopyingDecodeRecipeIsFlagged) {
  // The per-record copying decode the zero-copy cursor replaced: owned
  // demand vector (20), std::function sink (21), and the same-file helper
  // whose body news the decode buffer, flagged at the call site (22).
  auto fs = findings_for("r9_ingest_flag.cpp", "src/ingest/r9_ingest_flag.cpp",
                         "hotpath-alloc");
  EXPECT_EQ(lines_of(fs), (std::vector<int>{20, 21, 22}));
}

TEST(FrapLintContracts, MalformedContractsAreUnsuppressibleFindings) {
  auto all =
      lint_source("src/core/contract.cpp", read_fixture("contract.cpp"));
  std::vector<int> bad;
  for (const auto& f : all)
    if (f.rule == "bad-contract") {
      bad.push_back(f.line);
      EXPECT_FALSE(f.suppressed);
      EXPECT_TRUE(active(f));
    }
  std::sort(bad.begin(), bad.end());
  // Unknown role (6), empty order rationale (11), unknown kind (16).
  EXPECT_EQ(bad, (std::vector<int>{6, 11, 16}));
}

TEST(FrapLintContracts, ContractCoversWholeMultiLineStatement) {
  // The rounds contract in spanning() binds to the statement's first line
  // but the quantize_up call sits on a continuation line — no R6 finding.
  auto fs = findings_for("contract.cpp", "src/core/contract.cpp",
                         "rounding-direction");
  EXPECT_TRUE(fs.empty());
}

TEST(FrapLintSuppression, DirectiveCoversWholeMultiLineStatement) {
  auto all = lint_source("src/workload/span_suppress.cpp",
                         read_fixture("span_suppress.cpp"));
  std::vector<int> suppressed, active_div;
  for (const auto& f : all) {
    if (f.rule != "unsafe-division") continue;
    (f.suppressed ? suppressed : active_div).push_back(f.line);
  }
  // The directive binds to the statement's first line (6) yet suppresses
  // the division flagged on the continuation line (7); the identical
  // statement in the next function stays active.
  EXPECT_EQ(suppressed, (std::vector<int>{7}));
  EXPECT_EQ(active_div, (std::vector<int>{15}));
}

TEST(FrapLintApi, CanonicalRuleMapsAliases) {
  EXPECT_EQ(canonical_rule("r1"), "unsafe-division");
  EXPECT_EQ(canonical_rule("r2"), "rederived-admission");
  EXPECT_EQ(canonical_rule("r3"), "float-equality");
  EXPECT_EQ(canonical_rule("r4"), "missing-nodiscard");
  EXPECT_EQ(canonical_rule("r5"), "nondeterminism");
  EXPECT_EQ(canonical_rule("r6"), "rounding-direction");
  EXPECT_EQ(canonical_rule("r7"), "seqlock-protocol");
  EXPECT_EQ(canonical_rule("r8"), "memory-order-audit");
  EXPECT_EQ(canonical_rule("r9"), "hotpath-alloc");
  EXPECT_EQ(canonical_rule("float-equality"), "float-equality");
  EXPECT_EQ(canonical_rule("hotpath-alloc"), "hotpath-alloc");
  EXPECT_EQ(canonical_rule("no-such-rule"), "");
}

TEST(FrapLintApi, BaselineMarksMatchingFindings) {
  auto all = lint_source("src/util/r3_flag.cpp", read_fixture("r3_flag.cpp"));
  ASSERT_FALSE(all.empty());

  std::set<std::string> baseline{"src/util/r3_flag.cpp:float-equality"};
  apply_baseline(all, baseline);
  for (const auto& f : all) {
    EXPECT_TRUE(f.baselined) << f.file << ":" << f.line;
    EXPECT_FALSE(active(f));
  }

  // A baseline for a different file leaves findings active.
  auto again =
      lint_source("src/util/r3_flag.cpp", read_fixture("r3_flag.cpp"));
  std::set<std::string> other{"src/util/other.cpp:float-equality"};
  apply_baseline(again, other);
  for (const auto& f : again) EXPECT_TRUE(active(f));
}

}  // namespace
