#include "ppg/util/table.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "ppg/util/error.hpp"

namespace ppg {

text_table::text_table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  PPG_CHECK(!headers_.empty(), "a table needs at least one column");
}

void text_table::add_row(std::vector<std::string> cells) {
  PPG_CHECK(cells.size() == headers_.size(),
            "row width must match header width");
  rows_.push_back(std::move(cells));
}

void text_table::print(std::ostream& out) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << (c == 0 ? "" : "  ") << std::setw(static_cast<int>(widths[c]))
          << row[c];
    }
    out << '\n';
  };
  print_row(headers_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < widths.size(); ++c) {
    total += widths[c] + (c == 0 ? 0 : 2);
  }
  out << std::string(total, '-') << '\n';
  for (const auto& row : rows_) {
    print_row(row);
  }
}

std::string fmt(double value, int precision) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(precision) << value;
  return out.str();
}

std::string fmt_sci(double value, int precision) {
  std::ostringstream out;
  out << std::scientific << std::setprecision(precision) << value;
  return out.str();
}

std::string fmt_count(std::uint64_t value) {
  std::string digits = std::to_string(value);
  std::string grouped;
  grouped.reserve(digits.size() + digits.size() / 3);
  const std::size_t lead = digits.size() % 3 == 0 ? 3 : digits.size() % 3;
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (i != 0 && (i - lead) % 3 == 0 && i >= lead) {
      grouped.push_back('_');
    }
    grouped.push_back(digits[i]);
  }
  return grouped;
}

}  // namespace ppg
