// Prometheus text exposition (version 0.0.4) and JSONL trace rendering.
//
// render_prometheus() turns an Observer MetricsSnapshot into a scrape page:
// every metric carries the `frap_` prefix, histograms follow Prometheus
// semantics (cumulative `_bucket{le=...}` ending in le="+Inf", plus `_sum`
// over finite samples and `_count`), and label values are escaped per the
// exposition format (backslash, double quote, newline). render_jsonl()
// writes the merged decision trace one JSON object per line, suitable for
// jq / pandas ingestion. Both write to an ostream& (frap-lint R5: no stdout
// from library code); the CLI connects them to files or std::cout at the
// edge.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "obs/observer.h"

namespace frap::obs {

// Escapes a label value for the text exposition format: backslash, double
// quote and newline become \\, \" and \n.
std::string escape_label_value(const std::string& v);

// Prometheus sample-value formatting: shortest round-trippable decimal for
// finite doubles, "+Inf" / "-Inf" / "NaN" otherwise.
std::string format_sample_value(double v);

void render_prometheus(const MetricsSnapshot& snap, std::ostream& os);

// One JSON object per DecisionEvent, newline-delimited, in the order given.
// Non-finite doubles (stage-saturated rejects carry lhs_with_task = +inf)
// are emitted as JSON strings ("+Inf") since bare JSON has no Inf literal.
void render_jsonl(const std::vector<DecisionEvent>& events, std::ostream& os);

}  // namespace frap::obs
