// Aligned-column output for the benchmark harness: every scenario
// prints the series the paper plots as one table, or as CSV
// (`gossip_run --format csv`) for external plotting.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace gossip::experiment {

/// Fixed-precision / scientific double formatting helpers.
std::string fmt(double value, int precision = 4);
std::string fmt_sci(double value, int precision = 3);

class Table {
public:
  explicit Table(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);

  [[nodiscard]] std::size_t rows() const { return rows_.size(); }
  [[nodiscard]] const std::vector<std::string>& headers() const {
    return headers_;
  }
  [[nodiscard]] const std::vector<std::vector<std::string>>& cells() const {
    return rows_;
  }

  /// Prints with aligned columns.
  void print(std::ostream& os) const;

  /// Writes RFC-4180-ish CSV (no quoting needed for our cells).
  void write_csv(std::ostream& os) const;

private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Standard bench banner: figure id and description, then one indented
/// line per note (the scale, and for registered scenarios the `--set`
/// keys that change it).
void print_banner(std::ostream& os, const std::string& figure,
                  const std::string& description,
                  const std::vector<std::string>& notes);

}  // namespace gossip::experiment
