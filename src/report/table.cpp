#include "report/table.hpp"

#include <algorithm>
#include <charconv>
#include <limits>
#include <stdexcept>

namespace sgp::report {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  if (headers_.empty()) {
    throw std::invalid_argument("Table: needs at least one column");
  }
}

void Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size()) {
    throw std::invalid_argument("Table::add_row: wrong cell count");
  }
  rows_.push_back(std::move(cells));
}

std::string Table::num(double v, int decimals) {
  if (decimals > kMaxDecimals) {
    throw std::invalid_argument("Table::num: more than " +
                                std::to_string(kMaxDecimals) + " decimals");
  }
  // Every integer digit of the largest double, a sign, a point and the
  // decimals.
  char buf[std::numeric_limits<double>::max_exponent10 + 4 + kMaxDecimals];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v,
                                 std::chars_format::fixed, decimals);
  return std::string(buf, res.ptr);
}

std::string Table::render() const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    width[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto emit_row = [&](const std::vector<std::string>& row, std::string& out) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out += c == 0 ? "| " : " | ";
      out += row[c];
      out.append(width[c] - row[c].size(), ' ');
    }
    out += " |\n";
  };
  std::string out;
  emit_row(headers_, out);
  out += '|';
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    out.append(width[c] + 2, '-');
    out += '|';
  }
  out += '\n';
  for (const auto& row : rows_) emit_row(row, out);
  return out;
}

}  // namespace sgp::report
