// Test-support references for the interned shape's derived structures.
//
// The three references are implementations the library used before the
// quotient DP, the flat profile enumerator and the dense profile matrix,
// preserved with the same outputs and reading only the shape's public
// canonical layout:
//   * reference_longest_path_weight is the push DP over the canonical CSR.
//     The quotient DP (TaskGraphShape::longest_path_weight) must return the
//     same bits for every weight vector.
//   * reference_profiles is the enumerator that kept one std::vector per
//     profile. The flat enumerator must produce the same profiles (same
//     order), envelope and its visit total, max path nodes and
//     completeness flag.
//   * reference_kept_max is the sparse per-profile walk the evaluator ran
//     before the dense profile matrix. core::kept_profile_max must return
//     the same bits for every nonnegative weight vector.
// tests/dag_quotient_differential_test.cpp and
// tests/dag_profile_kernel_test.cpp compare them. Nothing in src/ depends
// on this file.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/task_graph_shape.h"

namespace frap::testing {

// Longest path with node weight weight_by_resource[resource(node)], pushed
// along the canonical successor CSR in canonical (topological) order.
[[nodiscard]] double reference_longest_path_weight(
    const core::TaskGraphShape& shape,
    std::span<const double> weight_by_resource);

struct ReferenceProfiles {
  struct Entry {
    std::uint32_t local = 0;  // index into the shape's touched_resources()
    std::uint32_t mult = 0;   // nonzero
  };
  std::vector<std::vector<Entry>> profiles;  // sparse, kept order
  std::vector<Entry> envelope;               // empty when complete
  std::uint32_t envelope_total = 0;          // 0 when complete
  std::uint32_t max_path_nodes = 0;
  bool complete = true;
};

// Dominant path profiles of `shape` with the registry's caps.
[[nodiscard]] ReferenceProfiles reference_profiles(
    const core::TaskGraphShape& shape);

// How many lanes of the shape's profile matrix hold a kept profile: the
// lanes with a nonzero entry, since every kept profile is a path of at
// least one node and the padding lanes are all zero.
[[nodiscard]] std::size_t kept_lanes(const core::TaskGraphShape& shape);

// max over `profiles.profiles` of the sum of mult * w_local[local] over the
// profile's entries in ascending `local` (0 with no profile).
[[nodiscard]] double reference_kept_max(const ReferenceProfiles& profiles,
                                        std::span<const double> w_local);

}  // namespace frap::testing
