// Human-readable rendering helpers for reports and tables.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace bpsio {

/// "4KiB", "1.5MiB", "64GiB" — power-of-two units.
std::string human_bytes(Bytes bytes);

/// "3.21 MB/s", "1.04 GB/s" — decimal rate units (bytes per second).
std::string human_rate(double bytes_per_second);

/// Fixed-point with `digits` fractional digits.
std::string fmt_double(double v, int digits = 3);

/// `ns` as a decimal count of milliseconds without trailing zeros:
/// "100", "0.0045", "3814697.265625".
std::string fmt_ms(std::int64_t ns);

/// Simple fixed-width text table for bench harness output.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);
  /// Render with column widths fitted to contents, padded with 2 spaces.
  std::string to_string() const;
  /// Render as CSV (no padding).
  std::string to_csv() const;
  /// Render as a markdown table (header, rule, rows).
  std::string to_markdown() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace bpsio
