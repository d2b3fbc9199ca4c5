#include "util/table.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <stdexcept>

namespace aegis::util {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::add_row(std::vector<std::string> row) {
  if (row.size() != header_.size()) {
    throw std::invalid_argument("Table::add_row: arity mismatch");
  }
  rows_.push_back(std::move(row));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& r : rows_) {
    for (std::size_t c = 0; c < r.size(); ++c) width[c] = std::max(width[c], r[c].size());
  }
  auto print_row = [&](const std::vector<std::string>& r) {
    for (std::size_t c = 0; c < r.size(); ++c) {
      os << (c == 0 ? "| " : " | ");
      os << r[c];
      os << std::string(width[c] - r[c].size(), ' ');
    }
    os << " |\n";
  };
  print_row(header_);
  os << '|';
  for (std::size_t c = 0; c < header_.size(); ++c) {
    os << std::string(width[c] + 2, '-') << '|';
  }
  os << '\n';
  for (const auto& r : rows_) print_row(r);
}

std::string fmt_f(double x, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, x);
  return buf;
}

std::string fmt_pct(double fraction, int precision) {
  return fmt_f(fraction * 100.0, precision) + "%";
}

std::string fmt_group(long long v) {
  const bool neg = v < 0;
  unsigned long long u = neg ? static_cast<unsigned long long>(-(v + 1)) + 1ULL
                             : static_cast<unsigned long long>(v);
  std::string digits = std::to_string(u);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3 + 1);
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count != 0 && count % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++count;
  }
  if (neg) out.push_back('-');
  std::reverse(out.begin(), out.end());
  return out;
}

}  // namespace aegis::util
