#include "lint.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <map>

#include "lexer.h"
#include "scope.h"

namespace frap::lint {
namespace {

// ---------------------------------------------------------------------------
// Rule names and file scoping.

constexpr const char* kUnsafeDivision = "unsafe-division";       // R1
constexpr const char* kRederivedAdmission = "rederived-admission";  // R2
constexpr const char* kFloatEquality = "float-equality";         // R3
constexpr const char* kMissingNodiscard = "missing-nodiscard";   // R4
constexpr const char* kNondeterminism = "nondeterminism";        // R5
constexpr const char* kRoundingDirection = "rounding-direction";  // R6
constexpr const char* kSeqlockProtocol = "seqlock-protocol";     // R7
constexpr const char* kMemoryOrderAudit = "memory-order-audit";  // R8
constexpr const char* kHotpathAlloc = "hotpath-alloc";           // R9
constexpr const char* kBadSuppression = "bad-suppression";
constexpr const char* kBadContract = "bad-contract";

bool starts_with(std::string_view s, std::string_view p) {
  return s.substr(0, p.size()) == p;
}
bool ends_with(std::string_view s, std::string_view p) {
  return s.size() >= p.size() && s.substr(s.size() - p.size()) == p;
}

std::string lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

bool contains_ci(std::string_view haystack, std::string_view needle) {
  return lower(haystack).find(lower(needle)) != std::string::npos;
}

// R1: files allowed to spell the guarded divisions out directly.
bool r1_sanctioned(std::string_view f) {
  return f == "src/core/feasible_region.h" ||
         f == "src/core/feasible_region.cpp" || f == "src/util/math.h";
}

// R2: the single home of the admission comparison.
bool r2_sanctioned(std::string_view f) {
  return f == "src/core/feasible_region.h";
}

// R4 only audits the core public headers.
bool r4_in_scope(std::string_view f) {
  return starts_with(f, "src/core/") && ends_with(f, ".h");
}

// R5 only audits library code; executables (bench/examples/tests) may print
// and measure wall time freely. util/rng.* is the sanctioned RNG home.
bool r5_in_scope(std::string_view f) {
  return starts_with(f, "src/") && !starts_with(f, "src/util/rng.");
}

// The concurrency half of R5 additionally exempts the sharded admission
// service (threads are its whole point), the atomic counters it exports,
// and the observability layer (the lock-free trace ring is atomics by
// design); all still answer to the entropy/wall-clock/stdout checks, so
// even concurrent code stays replayable and silent.
bool r5_concurrency_exempt(std::string_view f) {
  return starts_with(f, "src/service/") || starts_with(f, "src/obs/") ||
         f == "src/metrics/counters.h";
}

// The wall-clock half of R5 exempts exactly one file: the obs::Clock seam's
// monotonic_clock() implementation. Every other line of src/ receives time
// through that seam (or sim::Simulator), which is what keeps traced runs
// replayable — see docs/static_analysis.md.
bool r5_clock_exempt(std::string_view f) {
  return f == "src/obs/clock.cpp";
}

// R6 audits every consumer of the fixed-point quantizers; their home,
// core/fixed_point.h, is exempt. No quantizer, and so no R6 call site, is
// left in src/ (docs/static_analysis.md); the rule waits for the next one.
bool r6_in_scope(std::string_view f) {
  return starts_with(f, "src/") && f != "src/core/fixed_point.h";
}

// R7 audits exactly the seqlock home.
bool r7_in_scope(std::string_view f) {
  return f == "src/obs/trace_ring.h" || f == "src/obs/trace_ring.cpp";
}

// R8 reuses the R5 concurrency carve-out: inside it orderings need a
// rationale contract, outside it they are banned outright.
bool r8_in_scope(std::string_view f) { return starts_with(f, "src/"); }

// ---------------------------------------------------------------------------
// Token helpers. All rules run over `sig`, the comment-free token view
// (`Tokens` comes from scope.h).

bool is_punct(const Token& t, std::string_view p) {
  return t.kind == TokKind::kPunct && t.text == p;
}
bool is_ident(const Token& t) { return t.kind == TokKind::kIdentifier; }
bool is_ident(const Token& t, std::string_view s) {
  return t.kind == TokKind::kIdentifier && t.text == s;
}

// Skips a balanced (...) / [...] / {...} group; `i` indexes the opener.
// Returns the index one past the closer (or toks.size() when unbalanced).
std::size_t skip_balanced(const Tokens& toks, std::size_t i) {
  const std::string& open = toks[i].text;
  const std::string close = open == "(" ? ")" : open == "[" ? "]" : "}";
  int depth = 0;
  for (; i < toks.size(); ++i) {
    if (is_punct(toks[i], open)) ++depth;
    if (is_punct(toks[i], close) && --depth == 0) return i + 1;
  }
  return toks.size();
}

// Is the numeric literal exactly one? (1, 1., 1.0, 1.00, 1e0, ...)
bool is_one(const Token& t) {
  if (t.kind != TokKind::kNumber) return false;
  // frap-lint: allow(float-equality) -- classifying the literal token
  // itself: strtod of "1"/"1.0"/"1e0" is exactly 1.0 by construction.
  return std::strtod(t.text.c_str(), nullptr) == 1.0;
}

// ---------------------------------------------------------------------------
// R1 — unsafe-division.
//
// Flags `/` whose denominator is (a) a parenthesized expression of the
// shape (1 - ...), i.e. the 1/(1−U) family that saturates as U -> 1, or
// (b) a primary expression naming a deadline (any identifier containing
// "deadline", case-insensitive) — divisions that must instead route through
// the saturation-safe helpers (util::safe_div / safe_inv, stage_delay_factor,
// FeasibleRegion) so a zero/negative denominator degrades to +inf instead
// of UB-adjacent garbage that an admission test then trusts.
void rule_unsafe_division(const std::string& file, const Tokens& sig,
                          std::vector<Finding>& out) {
  if (r1_sanctioned(file)) return;
  for (std::size_t i = 0; i < sig.size(); ++i) {
    if (!is_punct(sig[i], "/") && !is_punct(sig[i], "/=")) continue;
    std::size_t j = i + 1;
    if (j >= sig.size()) break;
    if (is_punct(sig[j], "(")) {
      const std::size_t end = skip_balanced(sig, j);
      // Shape test: the group starts `(1 -`.
      if (j + 2 < end && is_one(sig[j + 1]) && is_punct(sig[j + 2], "-")) {
        out.push_back({file, sig[i].line, kUnsafeDivision,
                       "division by a (1 - ...) denominator; use the "
                       "saturation-safe helpers (stage_delay_factor, "
                       "FeasibleRegion, util::safe_div) or suppress with a "
                       "reason"});
      }
      for (std::size_t k = j + 1; k + 1 < end; ++k) {
        if (is_ident(sig[k]) && contains_ci(sig[k].text, "deadline")) {
          out.push_back({file, sig[i].line, kUnsafeDivision,
                         "division by deadline '" + sig[k].text +
                             "'; route through util::safe_div/safe_inv so a "
                             "non-positive deadline rejects instead of "
                             "corrupting the admission arithmetic"});
          break;
        }
      }
      i = end - 1;
      continue;
    }
    // Unparenthesized primary: identifier chain with optional call suffix.
    bool flagged = false;
    while (j < sig.size()) {
      if (is_ident(sig[j])) {
        if (!flagged && contains_ci(sig[j].text, "deadline")) {
          out.push_back({file, sig[j].line, kUnsafeDivision,
                         "division by deadline '" + sig[j].text +
                             "'; route through util::safe_div/safe_inv so a "
                             "non-positive deadline rejects instead of "
                             "corrupting the admission arithmetic"});
          flagged = true;
        }
        ++j;
      } else if (is_punct(sig[j], "::") || is_punct(sig[j], ".") ||
                 is_punct(sig[j], "->")) {
        ++j;
      } else if (is_punct(sig[j], "(") || is_punct(sig[j], "[")) {
        j = skip_balanced(sig, j);
      } else {
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// R2 — rederived-admission.
//
// Flags relational comparisons (<=, <, >=, >) where either primary operand
// names an LHS (identifier containing "lhs", case-insensitive). PR 1's bug
// class: three code paths each spelling `lhs <= bound` drifted on boundary
// ties; FeasibleRegion::admits()/admits_lhs() is now the single predicate.
// The scope pass marks template argument lists so `std::atomic<...> qlhs_`
// is never misread as a comparison against an lhs-named operand.
void rule_rederived_admission(const std::string& file, const Tokens& sig,
                              const ScopeInfo& scope,
                              std::vector<Finding>& out) {
  if (r2_sanctioned(file)) return;
  for (std::size_t i = 0; i < sig.size(); ++i) {
    const Token& t = sig[i];
    if (!(is_punct(t, "<=") || is_punct(t, ">=") || is_punct(t, "<") ||
          is_punct(t, ">")))
      continue;
    if (scope.in_template_args[i]) continue;  // type syntax, not a compare
    bool lhs_named = false;
    // Left operand: walk back over a call/index suffix and the id-chain.
    if (i > 0) {
      std::size_t k = i - 1;
      // Balance back over trailing (...) / [...] groups.
      while (is_punct(sig[k], ")") || is_punct(sig[k], "]")) {
        const std::string close = sig[k].text;
        const std::string open = close == ")" ? "(" : "[";
        int depth = 0;
        while (true) {
          if (is_punct(sig[k], close)) ++depth;
          if (is_punct(sig[k], open) && --depth == 0) break;
          if (k == 0) break;
          --k;
        }
        if (k == 0) break;
        --k;
      }
      while (true) {
        if (is_ident(sig[k]) && contains_ci(sig[k].text, "lhs"))
          lhs_named = true;
        if (k == 0) break;
        const Token& p = sig[k - 1];
        if (is_ident(sig[k]) &&
            (is_punct(p, "::") || is_punct(p, ".") || is_punct(p, "->"))) {
          if (k < 2) break;
          k -= 2;
        } else {
          break;
        }
      }
    }
    // Right operand: first primary expression.
    std::size_t j = i + 1;
    while (j < sig.size() &&
           (is_punct(sig[j], "-") || is_punct(sig[j], "+") ||
            is_punct(sig[j], "!")))
      ++j;
    while (j < sig.size()) {
      if (is_ident(sig[j])) {
        if (contains_ci(sig[j].text, "lhs")) lhs_named = true;
        ++j;
      } else if (is_punct(sig[j], "::") || is_punct(sig[j], ".") ||
                 is_punct(sig[j], "->")) {
        ++j;
      } else if (is_punct(sig[j], "(") || is_punct(sig[j], "[")) {
        j = skip_balanced(sig, j);
      } else {
        break;
      }
    }
    if (lhs_named) {
      out.push_back({file, t.line, kRederivedAdmission,
                     "re-derived admission comparison on an lhs value; call "
                     "FeasibleRegion::admits()/admits_lhs() so every "
                     "decision path agrees on boundary ties"});
    }
  }
}

// ---------------------------------------------------------------------------
// R3 — float-equality.
//
// Flags ==/!= with a floating-point literal operand (either side, allowing
// a unary sign). Exact comparison against a computed double is the sharp-
// threshold failure mode; util::almost_equal / util::time_close are the
// sanctioned comparators.
//
// Also flags ==/!= where an operand is a `.value` member access: the tree's
// known float-typed `.value` is the dispatch key (sched/priority.h), whose
// comparators are exactly the place a well-meaning epsilon would corrupt the
// deterministic total order. Comparing such a member exactly is legal ONLY
// under a documented copied-bits contract, so the comparison must carry a
// suppression stating that contract — the rule exists to make the contract
// visible, not to ban the compare. A `value` followed by `(` is a call
// (e.g. optional::value()), not a member read, and plain identifiers named
// `value` (CLI string parsing and the like) are out of scope.
void rule_float_equality(const std::string& file, const Tokens& sig,
                         std::vector<Finding>& out) {
  // True when the token chain starting at `j` (a primary expression:
  // identifiers, scope/member punctuation, balanced groups) reads a member
  // named `value`.
  auto chain_reads_value_member = [&](std::size_t j) {
    bool reads = false;
    while (j < sig.size()) {
      if (is_punct(sig[j], ".") || is_punct(sig[j], "->")) {
        if (j + 1 < sig.size() && is_ident(sig[j + 1], "value") &&
            (j + 2 >= sig.size() || !is_punct(sig[j + 2], "("))) {
          reads = true;
        }
        ++j;
      } else if (is_ident(sig[j]) || is_punct(sig[j], "::")) {
        ++j;
      } else if (is_punct(sig[j], "(") || is_punct(sig[j], "[")) {
        j = skip_balanced(sig, j);
      } else {
        break;
      }
    }
    return reads;
  };

  for (std::size_t i = 0; i < sig.size(); ++i) {
    if (!is_punct(sig[i], "==") && !is_punct(sig[i], "!=")) continue;
    bool flt = false;
    if (i > 0 && sig[i - 1].kind == TokKind::kNumber && sig[i - 1].is_float)
      flt = true;
    std::size_t j = i + 1;
    while (j < sig.size() &&
           (is_punct(sig[j], "-") || is_punct(sig[j], "+")))
      ++j;
    if (j < sig.size() && sig[j].kind == TokKind::kNumber &&
        sig[j].is_float)
      flt = true;
    if (flt) {
      out.push_back({file, sig[i].line, kFloatEquality,
                     "raw floating-point " + sig[i].text +
                         " against a literal; use util::almost_equal / "
                         "util::time_close (or suppress with the reason the "
                         "exact compare is sound)"});
      continue;
    }

    // `.value` member-access operand: left side is `... . value ==`, right
    // side is a primary-expression chain ending in `. value`.
    bool value_member = false;
    if (i >= 2 && is_ident(sig[i - 1], "value") &&
        (is_punct(sig[i - 2], ".") || is_punct(sig[i - 2], "->"))) {
      value_member = true;
    }
    if (!value_member && chain_reads_value_member(j)) value_member = true;
    if (value_member) {
      out.push_back({file, sig[i].line, kFloatEquality,
                     "exact " + sig[i].text +
                         " on a `.value` member (dispatch keys are float-"
                         "typed); either compare via util::almost_equal / "
                         "util::time_close, or suppress citing the exact-tie "
                         "contract that makes bitwise comparison sound"});
    }
  }
}

// ---------------------------------------------------------------------------
// R4 — missing-nodiscard.
//
// In src/core/*.h, a public function (namespace scope, or public class
// scope) whose return type is a decision type must carry [[nodiscard]]:
// dropping an admission decision on the floor is how infeasible tasks walk
// in. Heuristic single-token return types only; compound returns (e.g.
// const std::vector<AdmissionDecision>&) are annotated by hand and kept
// honest by review, not by this rule.
bool is_decision_type(const Token& t) {
  return is_ident(t, "bool") || is_ident(t, "AdmissionDecision") ||
         is_ident(t, "AdaptiveDecision");
}

void rule_missing_nodiscard(const std::string& file, const Tokens& sig,
                            std::vector<Finding>& out) {
  if (!r4_in_scope(file)) return;

  enum class Scope { kNamespace, kPublic, kPrivate, kOpaque };
  std::vector<Scope> scopes;  // empty = file scope (public)
  Scope pending = Scope::kOpaque;
  bool pending_set = false;

  auto current = [&] {
    return scopes.empty() ? Scope::kNamespace : scopes.back();
  };
  auto decl_position = [&] {
    const Scope s = current();
    return s == Scope::kNamespace || s == Scope::kPublic;
  };

  bool at_decl_start = true;  // after { } ; or an access-specifier colon
  for (std::size_t i = 0; i < sig.size(); ++i) {
    const Token& t = sig[i];

    if (is_ident(t, "namespace")) {
      pending = Scope::kNamespace;
      pending_set = true;
      continue;
    }
    if (is_ident(t, "class") || is_ident(t, "struct")) {
      // `enum class` was already claimed by the enum branch below.
      pending = is_ident(t, "struct") ? Scope::kPublic : Scope::kPrivate;
      pending_set = true;
      continue;
    }
    if (is_ident(t, "enum")) {
      pending = Scope::kOpaque;
      pending_set = true;
      if (i + 1 < sig.size() && (is_ident(sig[i + 1], "class") ||
                                 is_ident(sig[i + 1], "struct")))
        ++i;
      continue;
    }
    if (is_punct(t, ";")) {
      pending_set = false;  // forward declaration or plain statement
      at_decl_start = true;
      continue;
    }
    if (is_punct(t, "{")) {
      scopes.push_back(pending_set ? pending : Scope::kOpaque);
      pending_set = false;
      at_decl_start = true;
      continue;
    }
    if (is_punct(t, "}")) {
      if (!scopes.empty()) scopes.pop_back();
      at_decl_start = true;
      continue;
    }
    if ((is_ident(t, "public") || is_ident(t, "private") ||
         is_ident(t, "protected")) &&
        i + 1 < sig.size() && is_punct(sig[i + 1], ":")) {
      if (!scopes.empty())
        scopes.back() =
            is_ident(t, "public") ? Scope::kPublic : Scope::kPrivate;
      ++i;
      at_decl_start = true;
      continue;
    }

    if (!at_decl_start) continue;
    if (!decl_position()) {
      at_decl_start = false;
      continue;
    }

    // Parse one would-be declaration: attributes + specifiers + return type
    // + name + '('.
    std::size_t j = i;
    bool has_nodiscard = false;
    bool is_friend = false;
    while (j < sig.size()) {
      if (is_punct(sig[j], "[[")) {
        std::size_t k = j;
        while (k < sig.size() && !is_punct(sig[k], "]]")) {
          if (is_ident(sig[k], "nodiscard")) has_nodiscard = true;
          ++k;
        }
        j = k + 1;
        continue;
      }
      if (is_ident(sig[j], "static") || is_ident(sig[j], "inline") ||
          is_ident(sig[j], "constexpr") || is_ident(sig[j], "consteval") ||
          is_ident(sig[j], "virtual") || is_ident(sig[j], "explicit") ||
          is_ident(sig[j], "extern") || is_ident(sig[j], "friend")) {
        if (is_ident(sig[j], "friend")) is_friend = true;
        ++j;
        continue;
      }
      break;
    }
    if (!is_friend && j + 2 < sig.size() && is_decision_type(sig[j]) &&
        is_ident(sig[j + 1]) && !is_ident(sig[j + 1], "operator") &&
        is_punct(sig[j + 2], "(") && !has_nodiscard) {
      out.push_back({file, sig[j + 1].line, kMissingNodiscard,
                     "public decision-returning API '" + sig[j + 1].text +
                         "' lacks [[nodiscard]]; a dropped decision admits "
                         "by accident"});
    }
    at_decl_start = false;
  }
}

// ---------------------------------------------------------------------------
// R5 — nondeterminism.
//
// Library code must be replayable bit-for-bit from an explicit seed and must
// not write to stdout (sinks take an ostream&). Flags ambient entropy
// (rand/srand/drand48/random_device), wall clocks (time(), clock(),
// chrono::*_clock — except src/obs/clock.cpp, the one sanctioned read
// behind the obs::Clock seam), stdout writes (cout/printf/puts/putchar),
// and — outside src/service/, src/obs/ and metrics/counters.h —
// concurrency primitives (thread, atomic, mutex, condition_variable, ...).
void rule_nondeterminism(const std::string& file, const Tokens& sig,
                         std::vector<Finding>& out) {
  if (!r5_in_scope(file)) return;
  for (std::size_t i = 0; i < sig.size(); ++i) {
    const Token& t = sig[i];
    if (!is_ident(t)) continue;
    const bool member_access =
        i > 0 && (is_punct(sig[i - 1], ".") || is_punct(sig[i - 1], "->"));

    if (t.text == "rand" || t.text == "srand" || t.text == "drand48" ||
        t.text == "random_device") {
      if (!member_access)
        out.push_back({file, t.line, kNondeterminism,
                       "'" + t.text +
                           "' in library code; all randomness must flow "
                           "through an explicitly seeded util::Rng"});
      continue;
    }
    if ((t.text == "time" || t.text == "clock") && !member_access &&
        !r5_clock_exempt(file) && i + 1 < sig.size() &&
        is_punct(sig[i + 1], "(")) {
      out.push_back({file, t.line, kNondeterminism,
                     "wall-clock '" + t.text +
                         "()' in library code; simulated time comes from "
                         "sim::Simulator::now()"});
      continue;
    }
    if ((t.text == "system_clock" || t.text == "steady_clock" ||
         t.text == "high_resolution_clock") &&
        !r5_clock_exempt(file)) {
      out.push_back({file, t.line, kNondeterminism,
                     "chrono wall clock '" + t.text +
                         "' in library code; timing belongs in bench/, "
                         "simulated time in sim::Simulator"});
      continue;
    }
    if (t.text == "cout" || t.text == "printf" || t.text == "puts" ||
        t.text == "putchar") {
      if (!member_access)
        out.push_back({file, t.line, kNondeterminism,
                       "stdout write ('" + t.text +
                           "') in library code; report through an ostream& "
                           "parameter or metrics counters"});
      continue;
    }
    if (t.text == "thread" || t.text == "jthread" || t.text == "async" ||
        t.text == "atomic" || t.text == "atomic_flag" || t.text == "mutex" ||
        t.text == "shared_mutex" || t.text == "recursive_mutex" ||
        t.text == "timed_mutex" || t.text == "condition_variable" ||
        t.text == "condition_variable_any") {
      if (!member_access && !r5_concurrency_exempt(file))
        out.push_back({file, t.line, kNondeterminism,
                       "concurrency primitive '" + t.text +
                           "' in library code; threads live in "
                           "src/service/ (metrics/counters.h holds the "
                           "sanctioned atomics)"});
      continue;
    }
  }
}

// ---------------------------------------------------------------------------
// R6 — rounding-direction.
//
// Every quantize_up/quantize_down/add_sat call site must carry a
// `frap:contract(rounds: conservative-for=<admit|reject>)` annotation, and
// the direction must be conservative for the declared role. The invariant
// (docs/static_analysis.md): values on the LHS of the
// admission inequality round UP when the decision admits (overestimating
// load can only reject) and DOWN when it rejects conservatively
// reconstructs a floor; bound-side values are the mirror image. A
// misdirected rounding silently admits infeasible load — the sharp-
// threshold failure mode.
//
// Side detection is lexical: a call is "bound-side" when an identifier
// containing "bound" appears among its arguments or as the assignment
// target of the enclosing statement; otherwise it is "lhs-side" (loads,
// deltas, floors of committed LHS). add_sat saturates toward kSaturated —
// an over-estimate on either side — so it is direction-neutral and only
// the annotation is required.
void rule_rounding_direction(const std::string& file, const Tokens& sig,
                             const ScopeInfo& scope,
                             std::vector<Finding>& out) {
  if (!r6_in_scope(file)) return;
  for (std::size_t i = 0; i + 1 < sig.size(); ++i) {
    const Token& t = sig[i];
    if (!is_ident(t)) continue;
    const bool up = t.text == "quantize_up";
    const bool down = t.text == "quantize_down";
    const bool sat = t.text == "add_sat";
    if (!up && !down && !sat) continue;
    if (!is_punct(sig[i + 1], "(")) continue;  // mention, not a call

    const Contract* c =
        scope.find_contract(ContractKind::kRounds, t.line, i);
    if (c == nullptr) {
      out.push_back({file, t.line, kRoundingDirection,
                     "unannotated fixed-point rounding '" + t.text +
                         "'; declare its role with `// frap:contract(rounds: "
                         "conservative-for=<admit|reject>)` so the direction "
                         "is machine-checked (docs/static_analysis.md#r6)"});
      continue;
    }
    if (sat) continue;  // saturation over-estimates either side: neutral

    // Bound-side iff "bound" names an argument or the assignment target.
    bool bound_side = false;
    const std::size_t end = skip_balanced(sig, i + 1);
    for (std::size_t k = i + 2; k + 1 < end; ++k)
      if (is_ident(sig[k]) && contains_ci(sig[k].text, "bound"))
        bound_side = true;
    const std::size_t stmt = scope.statement_of[i];
    std::size_t eq = sig.size();
    for (std::size_t k = i; k > 0 && scope.statement_of[k - 1] == stmt; --k)
      if (is_punct(sig[k - 1], "=")) eq = k - 1;
    if (eq != sig.size())
      for (std::size_t k = eq; k > 0 && scope.statement_of[k - 1] == stmt;
           --k)
        if (is_ident(sig[k - 1]) && contains_ci(sig[k - 1].text, "bound"))
          bound_side = true;

    // conservative-for=admit: lhs UP, bound DOWN. reject: the mirror.
    const bool admit = c->payload == "admit";
    const bool want_up = bound_side != admit;  // lhs+admit or bound+reject
    if (up != want_up) {
      out.push_back(
          {file, t.line, kRoundingDirection,
           "'" + t.text + "' on a " +
               (bound_side ? std::string("bound-side")
                           : std::string("lhs-side")) +
               " value declared conservative-for=" + c->payload +
               " rounds the wrong way: " +
               (bound_side ? "bounds round DOWN for admit / UP for reject"
                           : "lhs values round UP for admit / DOWN for "
                             "reject") +
               ", else quantization error admits infeasible load"});
    }
  }
}

// ---------------------------------------------------------------------------
// R7 — seqlock-protocol.
//
// In the seqlock home (obs/trace_ring.*) the publish/read protocol is
// checked structurally, per function. A "seq op" is an atomic member call
// (.store/.load/.fetch_add/.compare_exchange_*) whose object chain names a
// sequence word (identifier containing "seq").
//
// Writer (a function whose first seq write marks the word odd — a store/CAS
// with `| 1` in its arguments, or the first of two fetch_adds):
//   W1  a later seq write must republish with release (or acq_rel) ordering;
//   W2  at least one payload store must sit between the odd mark and that
//       even publish (an empty write section means the payload is published
//       unprotected elsewhere);
//   W3  a release fence (or a seq_cst odd mark) must separate the odd mark
//       from the first payload store, else the payload can sink above it.
// Reader (two+ seq loads with payload loads in between):
//   V1  the first seq load must be acquire — it pairs with the even publish;
//   V2  an acquire fence (or an acquire re-check load) must separate the
//       payload loads from the re-check;
//   V3  the re-check statement must actually compare (== / !=) so torn
//       reads are discarded, not just observed.
struct AtomicOp {
  std::size_t idx = 0;        // sig index of the member name
  int line = 0;
  std::string member;         // store / load / fetch_add / ...
  bool on_seq = false;        // object chain names a sequence word
  bool has_or_one = false;    // `| 1` among the arguments
  bool release = false;       // memory_order_release / acq_rel / seq_cst
  bool acquire = false;       // memory_order_acquire / acq_rel / seq_cst
  bool is_fence = false;      // atomic_thread_fence(...)
};

bool atomic_member(const std::string& s) {
  return s == "store" || s == "load" || s == "exchange" ||
         s == "fetch_add" || s == "fetch_sub" || s == "fetch_or" ||
         s == "compare_exchange_weak" || s == "compare_exchange_strong";
}

void scan_atomic_args(const Tokens& sig, std::size_t open, std::size_t end,
                      AtomicOp& op) {
  for (std::size_t k = open + 1; k + 1 < end; ++k) {
    if (is_punct(sig[k], "|") && k + 1 < end &&
        sig[k + 1].kind == TokKind::kNumber && sig[k + 1].text == "1")
      op.has_or_one = true;
    if (!is_ident(sig[k])) continue;
    const std::string& s = sig[k].text;
    if (s == "memory_order_release" || s == "memory_order_acq_rel" ||
        s == "memory_order_seq_cst")
      op.release = true;
    if (s == "memory_order_acquire" || s == "memory_order_acq_rel" ||
        s == "memory_order_seq_cst")
      op.acquire = true;
  }
}

std::vector<AtomicOp> collect_atomic_ops(const Tokens& sig,
                                         std::size_t begin,
                                         std::size_t end) {
  std::vector<AtomicOp> ops;
  for (std::size_t i = begin; i < end; ++i) {
    if (!is_ident(sig[i])) continue;
    if (is_ident(sig[i], "atomic_thread_fence") && i + 1 < end &&
        is_punct(sig[i + 1], "(")) {
      AtomicOp op;
      op.idx = i;
      op.line = sig[i].line;
      op.is_fence = true;
      scan_atomic_args(sig, i + 1, skip_balanced(sig, i + 1), op);
      ops.push_back(op);
      continue;
    }
    if (!atomic_member(sig[i].text)) continue;
    if (i == 0 || (!is_punct(sig[i - 1], ".") && !is_punct(sig[i - 1], "->")))
      continue;
    if (i + 1 >= end || !is_punct(sig[i + 1], "(")) continue;
    AtomicOp op;
    op.idx = i;
    op.line = sig[i].line;
    op.member = sig[i].text;
    // Walk the object chain backwards: ident (. | -> | ::) ident ...
    std::size_t k = i - 1;
    while (true) {
      if (k == 0) break;
      --k;
      if (is_ident(sig[k])) {
        if (contains_ci(sig[k].text, "seq")) op.on_seq = true;
      } else if (!is_punct(sig[k], ".") && !is_punct(sig[k], "->") &&
                 !is_punct(sig[k], "::") && !is_punct(sig[k], ")") &&
                 !is_punct(sig[k], "]")) {
        break;
      }
      if (is_punct(sig[k], ")") || is_punct(sig[k], "]")) break;
    }
    scan_atomic_args(sig, i + 1, skip_balanced(sig, i + 1), op);
    ops.push_back(op);
  }
  return ops;
}

void rule_seqlock_protocol(const std::string& file, const Tokens& sig,
                           const ScopeInfo& scope,
                           std::vector<Finding>& out) {
  if (!r7_in_scope(file)) return;
  for (const FunctionInfo& fn : scope.functions) {
    const auto ops = collect_atomic_ops(sig, fn.body_begin, fn.body_end);

    // --- Writer checks.
    std::size_t mark = ops.size();  // index into ops of the odd mark
    std::size_t seq_writes = 0;
    for (std::size_t o = 0; o < ops.size(); ++o)
      if (ops[o].on_seq && ops[o].member != "load") ++seq_writes;
    for (std::size_t o = 0; o < ops.size(); ++o) {
      const AtomicOp& op = ops[o];
      if (!op.on_seq || op.member == "load") continue;
      if (op.has_or_one || (op.member == "fetch_add" && seq_writes >= 2)) {
        mark = o;
        break;
      }
    }
    if (mark != ops.size()) {
      std::size_t publish = ops.size();
      for (std::size_t o = mark + 1; o < ops.size(); ++o)
        if (ops[o].on_seq && ops[o].member != "load" && ops[o].release) {
          publish = o;
          break;
        }
      if (publish == ops.size()) {
        out.push_back({file, ops[mark].line, kSeqlockProtocol,
                       "seqlock writer in '" + fn.name +
                           "' marks the sequence odd but never republishes "
                           "an even value with release ordering; readers "
                           "will spin or accept torn payloads"});
      } else {
        bool payload_store = false;
        bool fence_before_payload = ops[mark].release;  // seq_cst/release mark
        for (std::size_t o = mark + 1; o < publish; ++o) {
          if (ops[o].is_fence && ops[o].release && !payload_store)
            fence_before_payload = true;
          if (!ops[o].on_seq && ops[o].member == "store")
            payload_store = true;
        }
        if (!payload_store) {
          out.push_back({file, ops[mark].line, kSeqlockProtocol,
                         "seqlock write section in '" + fn.name +
                             "' publishes no payload stores between the odd "
                             "mark and the even publish; the guarded data "
                             "is being written outside the protocol"});
        } else if (!fence_before_payload) {
          out.push_back({file, ops[mark].line, kSeqlockProtocol,
                         "seqlock writer in '" + fn.name +
                             "' stores payload without a release fence "
                             "after the odd mark; the payload stores can "
                             "sink above it and race the readers"});
        }
      }
    }

    // --- Reader checks.
    std::vector<std::size_t> seq_loads;
    for (std::size_t o = 0; o < ops.size(); ++o)
      if (ops[o].on_seq && ops[o].member == "load") seq_loads.push_back(o);
    if (seq_loads.size() >= 2) {
      const std::size_t first = seq_loads.front();
      const std::size_t last = seq_loads.back();
      bool payload_between = false;
      for (std::size_t o = first + 1; o < last; ++o)
        if (!ops[o].on_seq && ops[o].member == "load") payload_between = true;
      if (payload_between) {
        if (!ops[first].acquire) {
          out.push_back({file, ops[first].line, kSeqlockProtocol,
                         "seqlock reader in '" + fn.name +
                             "' starts from a non-acquire sequence load; it "
                             "must pair with the writer's release publish "
                             "or the payload reads can float above it"});
        }
        bool fence_before_recheck = ops[last].acquire;
        for (std::size_t o = first + 1; o < last; ++o)
          if (ops[o].is_fence && ops[o].acquire) fence_before_recheck = true;
        if (!fence_before_recheck) {
          out.push_back({file, ops[last].line, kSeqlockProtocol,
                         "seqlock re-check in '" + fn.name +
                             "' is not ordered after the payload reads; add "
                             "an acquire fence before it (or make the "
                             "re-check load acquire)"});
        }
        // V3: the re-check statement must compare the two observations.
        const std::size_t stmt = scope.statement_of[ops[last].idx];
        bool compares = false;
        for (std::size_t k = ops[last].idx;
             k > 0 && scope.statement_of[k - 1] == stmt; --k)
          if (is_punct(sig[k - 1], "==") || is_punct(sig[k - 1], "!="))
            compares = true;
        for (std::size_t k = ops[last].idx + 1;
             k < sig.size() && scope.statement_of[k] == stmt; ++k)
          if (is_punct(sig[k], "==") || is_punct(sig[k], "!="))
            compares = true;
        if (!compares) {
          out.push_back({file, ops[last].line, kSeqlockProtocol,
                         "seqlock reader in '" + fn.name +
                             "' re-loads the sequence but never compares it "
                             "against the first observation; torn reads are "
                             "observed but not discarded"});
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// R8 — memory-order-audit.
//
// Raw std::memory_order_* is banned in src/ outside the R5 concurrency
// carve-out (src/service/, src/obs/, metrics/counters.h). Inside the
// carve-out, every ordering decision must carry a
// `frap:contract(order: <rationale>)` annotation on its statement — the
// ~64 relaxed/acquire/release choices become machine-checked pairing
// documentation instead of folklore.
bool is_memory_order_ident(const Token& t) {
  if (!is_ident(t)) return false;
  const std::string& s = t.text;
  return s == "memory_order_relaxed" || s == "memory_order_acquire" ||
         s == "memory_order_release" || s == "memory_order_acq_rel" ||
         s == "memory_order_seq_cst" || s == "memory_order_consume";
}

void rule_memory_order_audit(const std::string& file, const Tokens& sig,
                             const ScopeInfo& scope,
                             std::vector<Finding>& out) {
  if (!r8_in_scope(file)) return;
  const bool carved = r5_concurrency_exempt(file);
  int last_flagged_line = 0;  // one finding per line, not per token
  for (std::size_t i = 0; i < sig.size(); ++i) {
    const Token& t = sig[i];
    if (!is_memory_order_ident(t)) continue;
    if (t.line == last_flagged_line) continue;
    if (!carved) {
      out.push_back({file, t.line, kMemoryOrderAudit,
                     "raw '" + t.text +
                         "' outside the concurrency carve-out "
                         "(src/service/, src/obs/, metrics/counters.h); "
                         "single-threaded library code must not hand-roll "
                         "atomics"});
      last_flagged_line = t.line;
      continue;
    }
    if (!scope.has_contract(ContractKind::kOrder, t.line, i)) {
      out.push_back({file, t.line, kMemoryOrderAudit,
                     "'" + t.text +
                         "' without a `// frap:contract(order: ...)` "
                         "rationale; every ordering decision on the "
                         "concurrency surface must say what it pairs with "
                         "(docs/static_analysis.md#r8)"});
      last_flagged_line = t.line;
    }
  }
}

// ---------------------------------------------------------------------------
// R9 — hotpath-alloc.
//
// Functions annotated `frap:contract(hotpath)` may not allocate, throw, or
// take a mutex — the static twin of the operator-new hook in
// tests/alloc_steady_state_test.cpp. One level of same-file summary
// propagation: a hotpath function calling a same-file function whose body
// contains a banned construct is flagged at the call site. push_back /
// reserve / resize are deliberately NOT banned: the sanctioned PR-5
// pattern reserves to capacity up front, so steady-state push_back never
// allocates (the runtime hook keeps that honest).
struct BannedUse {
  int line = 0;
  std::string what;  // human description used in both direct and call flags
};

bool allocating_container(const std::string& s) {
  return s == "vector" || s == "string" || s == "basic_string" ||
         s == "deque" || s == "list" || s == "forward_list" || s == "map" ||
         s == "multimap" || s == "unordered_map" || s == "unordered_set" ||
         s == "multiset" || s == "unordered_multimap" ||
         s == "unordered_multiset" || s == "priority_queue" ||
         s == "stringstream" || s == "ostringstream";
}

std::vector<BannedUse> scan_banned(const Tokens& sig, std::size_t begin,
                                   std::size_t end) {
  std::vector<BannedUse> uses;
  for (std::size_t i = begin; i < end; ++i) {
    const Token& t = sig[i];
    if (!is_ident(t)) continue;
    const bool member_access =
        i > 0 && (is_punct(sig[i - 1], ".") || is_punct(sig[i - 1], "->"));
    const bool std_qualified = i >= 2 && is_ident(sig[i - 2], "std") &&
                               is_punct(sig[i - 1], "::");
    const std::string& s = t.text;

    if (s == "new" && !(i > 0 && is_ident(sig[i - 1], "operator"))) {
      uses.push_back({t.line, "allocates with 'new'"});
    } else if (s == "make_unique" || s == "make_shared" || s == "malloc" ||
               s == "calloc" || s == "realloc" || s == "aligned_alloc" ||
               s == "strdup") {
      if (!member_access)
        uses.push_back({t.line, "heap-allocates via '" + s + "'"});
    } else if (allocating_container(s)) {
      if (!member_access &&
          (std_qualified || (i + 1 < end && is_punct(sig[i + 1], "<"))))
        uses.push_back(
            {t.line, "constructs allocating container '" + s + "'"});
    } else if (s == "function" && std_qualified) {
      uses.push_back(
          {t.line, "constructs a std::function (type-erased allocation)"});
    } else if (s == "throw") {
      uses.push_back({t.line, "has a throwing path"});
    } else if (s == "lock_guard" || s == "scoped_lock" ||
               s == "unique_lock" || s == "shared_lock") {
      if (!member_access)
        uses.push_back({t.line, "acquires a mutex via '" + s + "'"});
    } else if (s == "lock" && member_access && i + 1 < end &&
               is_punct(sig[i + 1], "(")) {
      uses.push_back({t.line, "acquires a mutex via '.lock()'"});
    }
  }
  return uses;
}

void rule_hotpath_alloc(const std::string& file, const Tokens& sig,
                        const ScopeInfo& scope, std::vector<Finding>& out) {
  if (!starts_with(file, "src/")) return;
  if (scope.hotpath_functions.empty()) return;

  // Per-function summaries for one level of same-file call propagation.
  std::map<std::string, const FunctionInfo*> by_name;
  std::map<std::string, std::vector<BannedUse>> summary;
  for (const FunctionInfo& fn : scope.functions) {
    by_name.emplace(fn.name, &fn);  // first definition wins on overloads
    auto uses = scan_banned(sig, fn.body_begin, fn.body_end);
    if (!uses.empty()) summary.emplace(fn.name, std::move(uses));
  }

  for (std::size_t fi : scope.hotpath_functions) {
    const FunctionInfo& fn = scope.functions[fi];
    for (const BannedUse& u : scan_banned(sig, fn.body_begin, fn.body_end)) {
      out.push_back({file, u.line, kHotpathAlloc,
                     "hotpath function '" + fn.name + "' " + u.what +
                         "; the admit->expire steady state must stay "
                         "allocation- and lock-free "
                         "(tests/alloc_steady_state_test.cpp)"});
    }
    // Call sites: plain same-file calls only (member access on another
    // object cannot be resolved lexically and is out of scope for the
    // one-level summary).
    for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
      if (!is_ident(sig[i]) || i + 1 >= fn.body_end ||
          !is_punct(sig[i + 1], "(") || scope.in_template_args[i])
        continue;
      if (i > 0 && (is_punct(sig[i - 1], ".") || is_punct(sig[i - 1], "->")))
        continue;
      if (sig[i].text == fn.name) continue;  // recursion: already scanned
      const auto cs = summary.find(sig[i].text);
      if (cs == summary.end()) continue;
      const FunctionInfo* callee = by_name[sig[i].text];
      if (callee->body_begin >= fn.body_begin &&
          callee->body_end <= fn.body_end)
        continue;  // a local lambda-ish nested definition, already scanned
      out.push_back({file, sig[i].line, kHotpathAlloc,
                     "hotpath function '" + fn.name + "' calls '" +
                         sig[i].text + "', which " + cs->second.front().what +
                         " (line " + std::to_string(cs->second.front().line) +
                         "); hot paths may only call allocation-free code"});
    }
  }
}

// ---------------------------------------------------------------------------
// Suppressions.

struct LineSuppression {
  std::set<std::string> rules;  // canonical names allowed on that line
};

// Directives must be anchored: the comment's content (after `//` and
// leading whitespace) starts with the tag. Prose that merely mentions the
// directive grammar — docs, messages, a quoted `// frap-lint: ...` example
// — is not a directive. Returns the index after the tag, or npos.
std::size_t anchored_tag(std::string_view text, std::string_view tag) {
  std::size_t p = 0;
  if (text.size() >= 2 && text[0] == '/' && (text[1] == '/' || text[1] == '*'))
    p = 2;
  while (p < text.size() && (text[p] == ' ' || text[p] == '\t')) ++p;
  if (text.compare(p, tag.size(), tag) != 0) return std::string_view::npos;
  return p + tag.size();
}

// Parses every `// frap-lint:` comment. Trailing comments attach to their
// own line; standalone comments (no code token on the line) attach to the
// next line. Malformed directives become bad-suppression findings.
std::map<int, LineSuppression> collect_suppressions(
    const std::string& file, const Tokens& all, const Tokens& sig,
    std::vector<Finding>& out) {
  std::set<int> code_lines;
  for (const Token& t : sig) code_lines.insert(t.line);

  std::map<int, LineSuppression> by_line;
  for (const Token& t : all) {
    if (t.kind != TokKind::kComment) continue;
    const std::size_t tag = anchored_tag(t.text, "frap-lint:");
    if (tag == std::string_view::npos) continue;
    std::string_view rest = std::string_view(t.text).substr(tag);
    while (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);

    const bool is_allow = starts_with(rest, "allow(");
    const std::size_t close = rest.find(')');
    const std::size_t dashes = rest.find(" -- ");
    std::set<std::string> rules;
    bool ok = is_allow && close != std::string::npos && dashes != std::string::npos &&
              dashes > close && dashes + 4 < rest.size();
    if (ok) {
      std::string_view list = rest.substr(6, close - 6);
      while (!list.empty()) {
        const std::size_t comma = list.find(',');
        std::string_view one = list.substr(0, comma);
        while (!one.empty() && one.front() == ' ') one.remove_prefix(1);
        while (!one.empty() && one.back() == ' ') one.remove_suffix(1);
        const std::string canon = canonical_rule(one);
        if (canon.empty()) {
          ok = false;
          break;
        }
        rules.insert(canon);
        list = comma == std::string_view::npos ? std::string_view{}
                                               : list.substr(comma + 1);
      }
      if (rules.empty()) ok = false;
    }
    if (!ok) {
      out.push_back(
          {file, t.line, kBadSuppression,
           "malformed frap-lint directive; expected `// frap-lint: "
           "allow(<rule>[,<rule>]) -- <reason>` with a non-empty reason"});
      continue;
    }
    // Trailing directives bind to their own line; standalone directives
    // bind to the next code line (comment continuation lines in between
    // are skipped, so a directive may open a multi-line explanation).
    if (code_lines.count(t.line)) {
      by_line[t.line].rules.insert(rules.begin(), rules.end());
    } else {
      const auto next = code_lines.upper_bound(t.line);
      if (next != code_lines.end())
        by_line[*next].rules.insert(rules.begin(), rules.end());
    }
  }
  return by_line;
}

}  // namespace

const std::vector<std::string>& all_rules() {
  static const std::vector<std::string> kRules = {
      kUnsafeDivision,    kRederivedAdmission, kFloatEquality,
      kMissingNodiscard,  kNondeterminism,     kRoundingDirection,
      kSeqlockProtocol,   kMemoryOrderAudit,   kHotpathAlloc,
      kBadSuppression,    kBadContract};
  return kRules;
}

std::string canonical_rule(std::string_view name) {
  const std::string n = lower(name);
  if (n == "r1" || n == kUnsafeDivision) return kUnsafeDivision;
  if (n == "r2" || n == kRederivedAdmission) return kRederivedAdmission;
  if (n == "r3" || n == kFloatEquality) return kFloatEquality;
  if (n == "r4" || n == kMissingNodiscard) return kMissingNodiscard;
  if (n == "r5" || n == kNondeterminism) return kNondeterminism;
  if (n == "r6" || n == kRoundingDirection) return kRoundingDirection;
  if (n == "r7" || n == kSeqlockProtocol) return kSeqlockProtocol;
  if (n == "r8" || n == kMemoryOrderAudit) return kMemoryOrderAudit;
  if (n == "r9" || n == kHotpathAlloc) return kHotpathAlloc;
  return "";
}

std::vector<Finding> lint_source(const std::string& relpath,
                                 std::string_view src) {
  const Tokens all = tokenize(src);
  Tokens sig;
  sig.reserve(all.size());
  for (const Token& t : all)
    if (t.kind != TokKind::kComment) sig.push_back(t);

  std::vector<Finding> out;
  const ScopeInfo scope = analyze_scopes(relpath, all, sig, out);
  rule_unsafe_division(relpath, sig, out);
  rule_rederived_admission(relpath, sig, scope, out);
  rule_float_equality(relpath, sig, out);
  rule_missing_nodiscard(relpath, sig, out);
  rule_nondeterminism(relpath, sig, out);
  rule_rounding_direction(relpath, sig, scope, out);
  rule_seqlock_protocol(relpath, sig, scope, out);
  rule_memory_order_audit(relpath, sig, scope, out);
  rule_hotpath_alloc(relpath, sig, scope, out);

  // A directive bound to any line of a multi-line statement covers findings
  // on every line of that statement (a CAS whose orderings sit on the
  // continuation line is one decision, not two).
  std::map<int, ScopeInfo::LineSpan> span_of_line;
  for (const ScopeInfo::LineSpan& s : scope.statement_lines)
    for (int l = s.first; l <= s.last; ++l) {
      auto [it, fresh] = span_of_line.emplace(l, s);
      if (!fresh) {
        it->second.first = std::min(it->second.first, s.first);
        it->second.last = std::max(it->second.last, s.last);
      }
    }
  const auto suppressions = collect_suppressions(relpath, all, sig, out);
  for (Finding& f : out) {
    if (f.rule == kBadSuppression || f.rule == kBadContract)
      continue;  // never suppressible
    ScopeInfo::LineSpan span{f.line, f.line};
    const auto sp = span_of_line.find(f.line);
    if (sp != span_of_line.end()) span = sp->second;
    for (auto it = suppressions.lower_bound(span.first);
         it != suppressions.end() && it->first <= span.last; ++it) {
      if (it->second.rules.count(f.rule)) {
        f.suppressed = true;
        break;
      }
    }
  }
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    return a.line != b.line ? a.line < b.line : a.rule < b.rule;
  });
  return out;
}

std::set<std::string> load_baseline(const std::string& path,
                                    std::string* error) {
  std::set<std::string> entries;
  std::ifstream in(path);
  if (!in) {
    if (error) *error = "cannot open baseline file: " + path;
    return entries;
  }
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    while (!line.empty() && (line.back() == ' ' || line.back() == '\r' ||
                             line.back() == '\t'))
      line.pop_back();
    std::size_t start = 0;
    while (start < line.size() && (line[start] == ' ' || line[start] == '\t'))
      ++start;
    if (start < line.size()) entries.insert(line.substr(start));
  }
  return entries;
}

void apply_baseline(std::vector<Finding>& findings,
                    const std::set<std::string>& baseline) {
  for (Finding& f : findings) {
    if (f.suppressed) continue;
    if (baseline.count(f.file + ":" + f.rule)) f.baselined = true;
  }
}

}  // namespace frap::lint
