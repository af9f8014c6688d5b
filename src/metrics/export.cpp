#include "metrics/export.h"

namespace frap::metrics {

std::string csv_escape(const std::string& field) {
  const bool needs_quotes =
      field.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

void write_csv(const util::Table& table, std::ostream& os) {
  auto emit_row = [&os](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c > 0) os << ',';
      os << csv_escape(row[c]);
    }
    os << '\n';
  };
  emit_row(table.header());
  for (std::size_t r = 0; r < table.rows(); ++r) emit_row(table.row(r));
}

}  // namespace frap::metrics
