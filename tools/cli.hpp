// Shared command-line parsing for the bpsio tools.
//
// Every tool in tools/ fronts the same library with the same conventions:
// `--name=value` and `--name value` both work, `--help` is generated, and
// the flags that appear in more than one tool (--csv, --threads, --window,
// --block-size) spell and behave the same everywhere. This header is the
// single place those conventions live.
//
// Deliberately standard-library-only: capture_smoke links no bpsio code
// (the traced program stands in for an arbitrary third-party application)
// but still parses its arguments with this.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace bpsio::cli {

/// Nanoseconds per unit, for duration options.
inline constexpr double kNsPerMs = 1e6;
inline constexpr double kNsPerSec = 1e9;

/// A finite decimal count of units of `ns_per_unit` ns each, converted to
/// integer ns by truncation; nullopt for junk, a non-finite value, or a
/// result below 1 ns or above INT64_MAX.
inline std::optional<std::int64_t> parse_duration_ns(const std::string& text,
                                                     double ns_per_unit) {
  char* end = nullptr;
  const double units = std::strtod(text.c_str(), &end);
  if (text.empty() || end == nullptr || *end != '\0') return std::nullopt;
  const double ns = units * ns_per_unit;
  // 2^63 is the first double past INT64_MAX; NaN and infinities fail too.
  if (!(ns >= 1.0 && ns < 9223372036854775808.0)) return std::nullopt;
  return static_cast<std::int64_t>(ns);
}

/// Declarative option table + parser. Register flags, then parse(); the
/// parser handles --help, both value spellings, `--` end-of-options, and
/// prints usage on errors.
class ArgParser {
 public:
  enum class Outcome {
    ok,     ///< parsed; run the tool
    help,   ///< --help was printed; exit 0
    error,  ///< bad usage was reported to stderr; exit 2
  };

  ArgParser(std::string program, std::string summary)
      : program_(std::move(program)), summary_(std::move(summary)) {}

  const std::string& program() const { return program_; }

  /// `usage_line` names the positional operands, e.g. "<trace-file-or-dir>...".
  void positionals(std::string usage_line) {
    positional_usage_ = std::move(usage_line);
  }

  /// Boolean flag: present means true.
  void add_flag(const std::string& name, bool* target, std::string help) {
    options_.push_back(Option{name, "", std::move(help),
                              [target](const std::string&) {
                                *target = true;
                                return true;
                              },
                              /*takes_value=*/false});
  }

  /// Valued flag with a custom setter (return false to reject the value).
  void add_value(const std::string& name, std::string value_name,
                 std::string help,
                 std::function<bool(const std::string&)> set) {
    options_.push_back(Option{name, std::move(value_name), std::move(help),
                              std::move(set), /*takes_value=*/true});
  }

  void add_string(const std::string& name, std::string* target,
                  std::string value_name, std::string help) {
    add_value(name, std::move(value_name), std::move(help),
              [target](const std::string& v) {
                *target = v;
                return true;
              });
  }

  /// Integer in [min, max]; rejects trailing junk.
  void add_int(const std::string& name, long long* target, long long min,
               long long max, std::string value_name, std::string help) {
    add_value(name, std::move(value_name), std::move(help),
              [target, min, max](const std::string& v) {
                char* end = nullptr;
                const long long parsed = std::strtoll(v.c_str(), &end, 10);
                if (end == nullptr || *end != '\0' || v.empty()) return false;
                if (parsed < min || parsed > max) return false;
                *target = parsed;
                return true;
              });
  }

  /// Positive finite double; rejects trailing junk.
  void add_positive_double(const std::string& name, double* target,
                           std::string value_name, std::string help) {
    add_value(name, std::move(value_name), std::move(help),
              [target](const std::string& v) {
                char* end = nullptr;
                const double parsed = std::strtod(v.c_str(), &end);
                if (end == nullptr || *end != '\0' || v.empty()) return false;
                if (!(parsed > 0) || !std::isfinite(parsed)) return false;
                *target = parsed;
                return true;
              });
  }

  /// Duration given in units of `ns_per_unit` ns (kNsPerMs, kNsPerSec),
  /// stored as integer ns; see parse_duration_ns() for what it rejects.
  void add_duration(const std::string& name, std::int64_t* target_ns,
                    double ns_per_unit, std::string value_name,
                    std::string help) {
    add_value(name, std::move(value_name), std::move(help),
              [target_ns, ns_per_unit](const std::string& v) {
                const auto ns = parse_duration_ns(v, ns_per_unit);
                if (!ns) return false;
                *target_ns = *ns;
                return true;
              });
  }

  /// Parse argv; non-option operands land in `positionals` in order.
  Outcome parse(int argc, char** argv, std::vector<std::string>& positionals) {
    bool options_done = false;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (options_done || arg.empty() || arg[0] != '-' || arg == "-") {
        positionals.push_back(arg);
        continue;
      }
      if (arg == "--") {
        options_done = true;
        continue;
      }
      if (arg == "--help" || arg == "-h") {
        std::fputs(usage().c_str(), stdout);
        return Outcome::help;
      }
      const std::size_t eq = arg.find('=');
      const std::string name = arg.substr(0, eq);
      Option* opt = find(name);
      if (opt == nullptr) {
        return fail("unknown option '" + name + "'");
      }
      if (!opt->takes_value) {
        if (eq != std::string::npos) {
          return fail(name + " takes no value");
        }
        (void)opt->set("");
        continue;
      }
      std::string value;
      if (eq != std::string::npos) {
        value = arg.substr(eq + 1);
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        return fail(name + " needs a value");
      }
      if (!opt->set(value)) {
        return fail("bad value for " + name + ": '" + value + "'");
      }
    }
    return Outcome::ok;
  }

  std::string usage() const {
    std::string out = "usage: " + program_;
    if (!positional_usage_.empty()) out += " " + positional_usage_;
    if (!options_.empty()) out += " [options]";
    out += "\n" + summary_ + "\n";
    if (!options_.empty()) out += "options:\n";
    std::size_t width = 0;
    for (const Option& opt : options_) {
      width = std::max(width, spelled(opt).size());
    }
    for (const Option& opt : options_) {
      const std::string left = spelled(opt);
      out += "  " + left + std::string(width - left.size() + 2, ' ') +
             opt.help + "\n";
    }
    return out;
  }

 private:
  struct Option {
    std::string name;
    std::string value_name;  ///< empty for boolean flags
    std::string help;
    std::function<bool(const std::string&)> set;
    bool takes_value;
  };

  static std::string spelled(const Option& opt) {
    return opt.takes_value ? opt.name + "=" + opt.value_name : opt.name;
  }

  Option* find(const std::string& name) {
    for (Option& opt : options_) {
      if (opt.name == name) return &opt;
    }
    return nullptr;
  }

  Outcome fail(const std::string& why) const {
    std::fprintf(stderr, "%s: %s\n", program_.c_str(), why.c_str());
    std::fputs(usage().c_str(), stderr);
    return Outcome::error;
  }

  std::string program_;
  std::string summary_;
  std::string positional_usage_;
  std::vector<Option> options_;
};

}  // namespace bpsio::cli
