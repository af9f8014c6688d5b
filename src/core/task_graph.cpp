#include "core/task_graph.h"

#include "core/task_graph_shape.h"
#include "util/check.h"
#include "util/math.h"

namespace frap::core {

void expect_canonical(const GraphTaskSpec& spec) {
  FRAP_EXPECTS(spec.shape != nullptr);
  FRAP_EXPECTS(spec.nodes.empty() && spec.edges.empty());
  FRAP_EXPECTS(spec.demands != nullptr);
}

std::size_t GraphTaskSpec::num_nodes() const {
  return shape != nullptr ? shape->num_nodes() : nodes.size();
}

bool GraphTaskSpec::valid(std::size_t num_resources) const {
  return shape != nullptr && demands != nullptr && nodes.empty() &&
         edges.empty() && deadline > 0 && shape->num_nodes() > 0 &&
         shape->touched_resources().back() < num_resources;
}

std::vector<double> GraphTaskSpec::resource_contributions(
    std::size_t num_resources) const {
  expect_canonical(*this);
  FRAP_EXPECTS(deadline > 0);
  std::vector<double> c(num_resources, 0);
  const auto touched = shape->touched_resources();
  for (std::size_t t = 0; t < touched.size(); ++t) {
    FRAP_EXPECTS(touched[t] < num_resources);
    c[touched[t]] = util::safe_div(demands->resource_compute[t], deadline);
  }
  return c;
}

}  // namespace frap::core
