// Test-support references for the interned shape's derived structures.
//
// Both functions are the implementations core::TaskGraphShape used before
// the quotient DP and the flat profile enumerator, preserved with the same
// outputs and reading only the shape's public canonical layout:
//   * reference_longest_path_weight is the push DP over the canonical CSR.
//     The quotient DP (TaskGraphShape::longest_path_weight) must return the
//     same bits for every weight vector.
//   * reference_profiles is the enumerator that kept one std::vector per
//     profile. The flat enumerator must produce the same profiles (same
//     order), envelope and its visit total, max path nodes and
//     completeness flag.
// tests/dag_quotient_differential_test.cpp compares them. Nothing in src/
// depends on this file.
#pragma once

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
  using Entry = core::TaskGraphShape::ProfileEntry;
  std::vector<std::vector<Entry>> profiles;  // sparse, kept order
  std::vector<Entry> envelope;               // empty when complete
  std::uint32_t envelope_total = 0;          // 0 when complete
  std::uint32_t max_path_nodes = 0;
  bool complete = true;
};

// Dominant path profiles of `shape` with the registry's caps.
[[nodiscard]] ReferenceProfiles reference_profiles(
    const core::TaskGraphShape& shape);

}  // namespace frap::testing
