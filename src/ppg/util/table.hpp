// Minimal text-table writer used by the bench harness to print
// paper-style result tables (measured vs. predicted rows).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace ppg {

/// Accumulates rows of string cells and renders an aligned ASCII table.
/// All formatting is done at render time; cells are stored verbatim.
class text_table {
 public:
  explicit text_table(std::vector<std::string> headers);

  /// Appends one row; must have exactly as many cells as there are headers.
  void add_row(std::vector<std::string> cells);

  /// Number of data rows added so far.
  [[nodiscard]] std::size_t row_count() const { return rows_.size(); }

  /// Renders with column alignment and a header underline.
  void print(std::ostream& out) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with the given precision (fixed notation).
[[nodiscard]] std::string fmt(double value, int precision = 4);

/// Formats a double in scientific notation with the given precision.
[[nodiscard]] std::string fmt_sci(double value, int precision = 3);

/// Formats an integral count with thousands separators (e.g. 1_250_000).
[[nodiscard]] std::string fmt_count(std::uint64_t value);

}  // namespace ppg
