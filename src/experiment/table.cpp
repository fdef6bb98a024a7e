#include "experiment/table.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "common/require.hpp"

namespace gossip::experiment {

namespace {

/// Stable non-finite cell tokens for every table/CSV surface: stream
/// formatting of inf/NaN is implementation- and sign-dependent ("-nan",
/// "1.#INF", locale variants), and a golden CSV must never depend on it.
const char* non_finite_token(double value) {
  if (std::isnan(value)) return "nan";
  return value > 0 ? "inf" : "-inf";
}

}  // namespace

std::string fmt(double value, int precision) {
  if (!std::isfinite(value)) return non_finite_token(value);
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return os.str();
}

std::string fmt_sci(double value, int precision) {
  if (!std::isfinite(value)) return non_finite_token(value);
  std::ostringstream os;
  os << std::scientific << std::setprecision(precision) << value;
  return os.str();
}

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  GOSSIP_REQUIRE(!headers_.empty(), "a table needs at least one column");
}

void Table::add_row(std::vector<std::string> cells) {
  GOSSIP_REQUIRE(cells.size() == headers_.size(),
                 "row width does not match header");
  rows_.push_back(std::move(cells));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  const auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << "  " << std::setw(static_cast<int>(widths[c])) << row[c];
    }
    os << '\n';
  };
  print_row(headers_);
  std::size_t total = 2;
  for (std::size_t w : widths) total += w + 2;
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) print_row(row);
}

void Table::write_csv(std::ostream& os) const {
  const auto write_row = [&os](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c != 0) os << ',';
      os << row[c];
    }
    os << '\n';
  };
  write_row(headers_);
  for (const auto& row : rows_) write_row(row);
}

void print_banner(std::ostream& os, const std::string& figure,
                  const std::string& description,
                  const std::vector<std::string>& notes) {
  os << "== " << figure << " — " << description << '\n';
  for (const std::string& note : notes) os << "   " << note << '\n';
  os << '\n';
}

}  // namespace gossip::experiment
