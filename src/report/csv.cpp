#include "report/csv.hpp"

#include <fstream>
#include <stdexcept>

namespace sgp::report {

namespace {

/// Appends `cell` to `out`, quoted only when it must be.
void append_escaped(std::string& out, const std::string& cell) {
  // RFC 4180: quote on comma, quote, LF *and* CR — a bare \r inside an
  // unquoted field desynchronises strict readers.
  if (cell.find_first_of(",\"\n\r") == std::string::npos) {
    out += cell;
    return;
  }
  out += '"';
  for (char ch : cell) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
}

}  // namespace

CsvWriter::CsvWriter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  if (headers_.empty()) {
    throw std::invalid_argument("CsvWriter: needs at least one column");
  }
}

void CsvWriter::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size()) {
    throw std::invalid_argument("CsvWriter::add_row: wrong cell count");
  }
  rows_.push_back(std::move(cells));
}

std::string CsvWriter::text() const {
  std::string out;
  auto emit = [&out](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) out += ',';
      append_escaped(out, row[c]);
    }
    out += '\n';
  };
  emit(headers_);
  for (const auto& r : rows_) emit(r);
  return out;
}

void CsvWriter::write(const std::string& path) const {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("CsvWriter: cannot open " + path);
  f << text();
  if (!f) throw std::runtime_error("CsvWriter: write failed for " + path);
}

}  // namespace sgp::report
