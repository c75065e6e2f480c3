#include "common/format.hpp"

#include <algorithm>
#include <cstdio>

namespace bpsio {

std::string human_bytes(Bytes bytes) {
  char buf[64];
  const struct {
    Bytes unit;
    const char* suffix;
  } units[] = {{kTiB, "TiB"}, {kGiB, "GiB"}, {kMiB, "MiB"}, {kKiB, "KiB"}};
  for (const auto& u : units) {
    if (bytes >= u.unit) {
      const double v = static_cast<double>(bytes) / static_cast<double>(u.unit);
      if (bytes % u.unit == 0) {
        std::snprintf(buf, sizeof buf, "%llu%s",
                      static_cast<unsigned long long>(bytes / u.unit), u.suffix);
      } else {
        std::snprintf(buf, sizeof buf, "%.2f%s", v, u.suffix);
      }
      return buf;
    }
  }
  std::snprintf(buf, sizeof buf, "%lluB", static_cast<unsigned long long>(bytes));
  return buf;
}

std::string human_rate(double bytes_per_second) {
  char buf[64];
  const double abs = bytes_per_second < 0 ? -bytes_per_second : bytes_per_second;
  if (abs >= 1e9) {
    std::snprintf(buf, sizeof buf, "%.2f GB/s", bytes_per_second / 1e9);
  } else if (abs >= 1e6) {
    std::snprintf(buf, sizeof buf, "%.2f MB/s", bytes_per_second / 1e6);
  } else if (abs >= 1e3) {
    std::snprintf(buf, sizeof buf, "%.2f KB/s", bytes_per_second / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.2f B/s", bytes_per_second);
  }
  return buf;
}

std::string fmt_double(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}

std::string fmt_ms(std::int64_t ns) {
  std::string text = fmt_double(static_cast<double>(ns) / 1e6, 6);
  text.erase(text.find_last_not_of('0') + 1);
  if (text.back() == '.') text.pop_back();
  return text;
}

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {}

void TextTable::add_row(std::vector<std::string> cells) {
  cells.resize(header_.size());
  rows_.push_back(std::move(cells));
}

std::string TextTable::to_string() const {
  std::vector<size_t> widths(header_.size());
  for (size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::string out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      out += row[c];
      if (c + 1 < row.size()) {
        out.append(widths[c] - row[c].size() + 2, ' ');
      }
    }
    out += '\n';
  };
  emit_row(header_);
  std::string rule;
  for (size_t c = 0; c < widths.size(); ++c) {
    rule.append(widths[c], '-');
    if (c + 1 < widths.size()) rule.append(2, ' ');
  }
  out += rule + '\n';
  for (const auto& row : rows_) emit_row(row);
  return out;
}

std::string TextTable::to_csv() const {
  std::string out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      out += row[c];
      if (c + 1 < row.size()) out += ',';
    }
    out += '\n';
  };
  emit_row(header_);
  for (const auto& row : rows_) emit_row(row);
  return out;
}

std::string TextTable::to_markdown() const {
  std::string out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    out += '|';
    for (const auto& cell : row) out += ' ' + cell + " |";
    out += '\n';
  };
  emit_row(header_);
  emit_row(std::vector<std::string>(header_.size(), "---"));
  for (const auto& row : rows_) emit_row(row);
  return out;
}

}  // namespace bpsio
