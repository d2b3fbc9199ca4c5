// ASCII table rendering used by the bench harnesses to print the same
// rows and series the paper's tables and figures report.
#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

namespace aegis::util {

/// Column-aligned ASCII table with a header row. Cells are plain strings;
/// use format helpers below for numbers.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Appends one row; must have the same arity as the header.
  void add_row(std::vector<std::string> row);

  /// Renders with a separator line under the header.
  void print(std::ostream& os) const;

  std::size_t rows() const noexcept { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Fixed-precision float formatting ("3.142" for fmt_f(x, 3)).
std::string fmt_f(double x, int precision);

/// Percent formatting ("12.34%").
std::string fmt_pct(double fraction, int precision = 2);

/// Integer with thousands separators ("11,464,996").
std::string fmt_group(long long v);

}  // namespace aegis::util
