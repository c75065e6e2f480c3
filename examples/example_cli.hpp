// Command-line parsing shared by the examples: the tools' ArgParser
// (tools/cli.hpp), which rejects unknown and malformed flags with the usage
// text, plus byte-size options read by Config::parse_bytes (64k, 256M, 2G).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "tools/cli.hpp"

namespace bpsio::examples {

/// Upper bound of the examples' count options (servers, processes, ...).
inline constexpr long long kMaxCount = 1 << 16;

/// A positive byte size, spelled the way Config::parse_bytes reads it.
inline void add_bytes(cli::ArgParser& parser, const std::string& name,
                      Bytes* target, std::string help) {
  parser.add_value(name, "SIZE", std::move(help),
                   [target](const std::string& v) {
                     const auto parsed = Config::parse_bytes(v);
                     if (!parsed || *parsed == 0) return false;
                     *target = *parsed;
                     return true;
                   });
}

/// Parses argv and returns the operands; exits 0 after --help, and 2 after
/// bad usage or with fewer than `min_operands` or more than `max_operands`.
inline std::vector<std::string> parse_args(cli::ArgParser& parser, int argc,
                                           char** argv,
                                           std::size_t min_operands = 0,
                                           std::size_t max_operands = 0) {
  std::vector<std::string> operands;
  switch (parser.parse(argc, argv, operands)) {
    case cli::ArgParser::Outcome::help: std::exit(0);
    case cli::ArgParser::Outcome::error: std::exit(2);
    case cli::ArgParser::Outcome::ok: break;
  }
  if (operands.size() >= min_operands && operands.size() <= max_operands) {
    return operands;
  }
  const std::string why =
      operands.size() > max_operands
          ? "unexpected operand '" + operands[max_operands] + "'"
          : "missing operand";
  std::fprintf(stderr, "%s: %s\n%s", parser.program().c_str(), why.c_str(),
               parser.usage().c_str());
  std::exit(2);
}

}  // namespace bpsio::examples
