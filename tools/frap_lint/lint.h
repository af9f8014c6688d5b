// frap-lint — repo-specific static analysis for the frap tree.
//
// The admission predicate Σ_j f(U_j) <= α(1 − Σ_j β_j) has sharp threshold
// behavior: a NaN from inf − inf, a saturated 1/(1 − U), or a re-derived
// `lhs <= bound` comparison that drifts from FeasibleRegion::admits() can
// silently admit infeasible tasks. Generic linters cannot express these
// invariants; this one can. Rules (docs/static_analysis.md has the full
// rationale and the PR-1 bug each rule guards against):
//
//   R1 unsafe-division     division whose denominator is a deadline or has
//                          the (1 − U) shape, outside the sanctioned
//                          saturation-safe helpers (feasible_region.*,
//                          util/math.h).
//   R2 rederived-admission relational comparison involving an `lhs`-named
//                          operand outside FeasibleRegion (feasible_region.h)
//                          — every admission decision must funnel through
//                          FeasibleRegion::admits()/admits_lhs().
//   R3 float-equality      raw ==/!= against a floating-point literal; use
//                          util::almost_equal / util::time_close.
//   R4 missing-nodiscard   public API in src/core/*.h returning a decision
//                          type (bool, AdmissionDecision, AdaptiveDecision)
//                          without [[nodiscard]].
//   R5 nondeterminism      rand()/random_device/time()/wall clocks or
//                          stdout writes in library code (src/) outside
//                          util/rng.* and the obs::Clock seam
//                          (src/obs/clock.cpp holds the one sanctioned
//                          wall-clock read); experiments must be replayable
//                          bit-for-bit from an explicit seed.
//
// v2 adds a scope/declaration pass (scope.h: template-argument marking,
// statement spans, function boundaries, `// frap:contract(...)`
// annotations) and four contract-aware rules over the concurrency and
// fixed-point soundness surface:
//
//   R6 rounding-direction  every quantize_up/quantize_down/add_sat call
//                          site in src/ must carry a
//                          `frap:contract(rounds: conservative-for=
//                          <admit|reject>)` annotation, and the rounding
//                          direction must be conservative for the declared
//                          role: LHS-side values round UP for admit / DOWN
//                          for reject, bound-side values the mirror image
//                          (docs/static_analysis.md derives why).
//   R7 seqlock-protocol    in obs/trace_ring.*, seqlock writers must mark
//                          the sequence odd before the payload stores (with a
//                          release fence in between) and republish an even
//                          value with release ordering; readers must start
//                          from an acquire load and re-check the sequence
//                          after an acquire fence, discarding torn reads.
//   R8 memory-order-audit  raw std::memory_order_* is banned in src/
//                          outside the R5 concurrency carve-out
//                          (src/service/, src/obs/, metrics/counters.h);
//                          inside it, every ordering decision must carry a
//                          `frap:contract(order: <rationale>)` annotation —
//                          machine-checked pairing documentation.
//   R9 hotpath-alloc       functions annotated `frap:contract(hotpath)`
//                          (and every same-file function they call, one
//                          level of summary propagation) may not allocate
//                          (new/make_*/malloc/allocating containers/
//                          std::function), throw, or acquire a mutex — the
//                          static twin of the operator-new hook in
//                          tests/alloc_steady_state_test.cpp.
//
// Suppression: `// frap-lint: allow(<rule>[,<rule>...]) -- <reason>` on the
// offending line (trailing) or on its own line immediately above. A
// directive bound to any line of a multi-line statement covers findings on
// every line of that statement. The reason is mandatory; a directive
// without one is itself reported (bad-suppression) and cannot be silenced.
// Malformed `frap:contract(...)` comments are likewise reported as
// bad-contract and cannot be silenced.
//
// Baseline: a checked-in file of `<path>:<rule>` lines grandfathers known
// findings without editing the offending files; see load_baseline().
#pragma once

#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace frap::lint {

struct Finding {
  std::string file;  // repo-relative path, as handed to lint_source()
  int line = 0;
  std::string rule;
  std::string message;
  bool suppressed = false;  // matched an inline allow() directive
  bool baselined = false;   // matched a baseline entry
};

// A finding still requiring action (neither suppressed nor baselined).
inline bool active(const Finding& f) { return !f.suppressed && !f.baselined; }

// Canonical rule names, R1..R5 order, plus the directive-syntax rule.
const std::vector<std::string>& all_rules();

// Maps "r1".."r5" aliases and canonical names to canonical names; returns
// empty string for unknown rules.
std::string canonical_rule(std::string_view name);

// Runs every rule over one file. `relpath` must be repo-relative with '/'
// separators (e.g. "src/core/admission.cpp"); rule scoping and sanctioned-
// file decisions key off it. Inline suppressions are already applied to the
// returned findings; baselines are not (see apply_baseline).
std::vector<Finding> lint_source(const std::string& relpath,
                                 std::string_view src);

// Baseline file: one `<path>:<rule>` entry per line, `#` comments and blank
// lines ignored. Returns the entry set; on I/O failure sets *error.
std::set<std::string> load_baseline(const std::string& path,
                                    std::string* error);

// Marks findings whose `<file>:<rule>` key is in the baseline.
void apply_baseline(std::vector<Finding>& findings,
                    const std::set<std::string>& baseline);

}  // namespace frap::lint
