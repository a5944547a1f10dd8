// Minimal fixed-width ASCII table renderer for the bench binaries.
#pragma once

#include <string>
#include <vector>

namespace sgp::report {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Adds a row; must match the header count.
  void add_row(std::vector<std::string> cells);

  /// Renders with column alignment and a header rule.
  std::string render() const;

  std::size_t rows() const noexcept { return rows_.size(); }

  /// Most decimals num() formats.
  static constexpr int kMaxDecimals = 64;

  /// Fixed-precision double formatting helper: byte-identical to
  /// printf("%.*f", decimals, v), "nan", "-inf" and "-0.00" included,
  /// and every integer digit is kept however large |v| is. A negative
  /// `decimals` means 6, as in printf; more than kMaxDecimals throws
  /// std::invalid_argument.
  static std::string num(double v, int decimals = 2);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace sgp::report
