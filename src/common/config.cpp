#include "common/config.hpp"

#include <cctype>
#include <cstdlib>
#include <sstream>

namespace bpsio {

Config Config::from_string(const std::string& text) {
  Config cfg;
  std::istringstream in(text);
  std::string token;
  while (in >> token) {
    const auto eq = token.find('=');
    if (eq == std::string::npos) {
      cfg.set(token, "true");
    } else {
      cfg.set(token.substr(0, eq), token.substr(eq + 1));
    }
  }
  return cfg;
}

void Config::set(const std::string& key, const std::string& value) {
  entries_[key] = value;
}

bool Config::has(const std::string& key) const {
  return entries_.count(key) != 0;
}

std::string Config::get_string(const std::string& key,
                               const std::string& dflt) const {
  const auto it = entries_.find(key);
  return it == entries_.end() ? dflt : it->second;
}

std::int64_t Config::get_int(const std::string& key, std::int64_t dflt) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return dflt;
  char* end = nullptr;
  const std::int64_t v = std::strtoll(it->second.c_str(), &end, 0);
  return (end && *end == '\0') ? v : dflt;
}

double Config::get_double(const std::string& key, double dflt) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return dflt;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  return (end && *end == '\0') ? v : dflt;
}

bool Config::get_bool(const std::string& key, bool dflt) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return dflt;
  const std::string& v = it->second;
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  return dflt;
}

Bytes Config::get_bytes(const std::string& key, Bytes dflt) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return dflt;
  return parse_bytes(it->second).value_or(dflt);
}

std::optional<Bytes> Config::parse_bytes(const std::string& text) {
  if (text.empty()) return std::nullopt;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || v < 0) return std::nullopt;
  std::string suffix;
  for (; *end; ++end) {
    suffix += static_cast<char>(std::tolower(static_cast<unsigned char>(*end)));
  }
  double mult = 1.0;
  if (suffix.empty() || suffix == "b") {
    mult = 1.0;
  } else if (suffix == "k" || suffix == "kb" || suffix == "kib") {
    mult = static_cast<double>(kKiB);
  } else if (suffix == "m" || suffix == "mb" || suffix == "mib") {
    mult = static_cast<double>(kMiB);
  } else if (suffix == "g" || suffix == "gb" || suffix == "gib") {
    mult = static_cast<double>(kGiB);
  } else if (suffix == "t" || suffix == "tb" || suffix == "tib") {
    mult = static_cast<double>(kTiB);
  } else {
    return std::nullopt;
  }
  return static_cast<Bytes>(v * mult);
}

}  // namespace bpsio
