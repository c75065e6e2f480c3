// Flat key=value configuration store.
//
// The workload registry's parameters (workload::Params): string-keyed
// "k=v" pairs with typed lookups and defaults. Byte sizes understand
// suffixes (4k, 64K, 8M, 2G) so record sizes can be written the way the
// paper writes them; parse_bytes() is the same parser for command-line
// options. Command lines themselves go through tools/cli.hpp's ArgParser,
// which rejects unknown flags.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "common/units.hpp"

namespace bpsio {

class Config {
 public:
  Config() = default;

  /// Parse newline- or whitespace-separated "k=v" pairs.
  static Config from_string(const std::string& text);

  void set(const std::string& key, const std::string& value);
  bool has(const std::string& key) const;

  std::string get_string(const std::string& key, const std::string& dflt) const;
  std::int64_t get_int(const std::string& key, std::int64_t dflt) const;
  double get_double(const std::string& key, double dflt) const;
  bool get_bool(const std::string& key, bool dflt) const;
  /// Accepts 512, 4k, 4K, 4KiB, 8M, 2G, 1T (case-insensitive, power of two).
  Bytes get_bytes(const std::string& key, Bytes dflt) const;

  const std::map<std::string, std::string>& entries() const { return entries_; }

  /// Parse a standalone size literal; nullopt if malformed.
  static std::optional<Bytes> parse_bytes(const std::string& text);

 private:
  std::map<std::string, std::string> entries_;
};

}  // namespace bpsio
