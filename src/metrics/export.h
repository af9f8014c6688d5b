// Machine-readable export of result tables (CSV with RFC-4180 quoting).
//
// Bench binaries print human tables; pipelines that post-process results
// (plotting the reproduced figures, regression-tracking utilizations) use
// this writer instead.
#pragma once

#include <ostream>
#include <string>

#include "util/table.h"

namespace frap::metrics {

// Quotes a single CSV field per RFC 4180 (wraps in quotes when the value
// contains a comma, quote, or newline; doubles embedded quotes).
std::string csv_escape(const std::string& field);

// Writes a util::Table as CSV: header row then data rows.
void write_csv(const util::Table& table, std::ostream& os);

}  // namespace frap::metrics
