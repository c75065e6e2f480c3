// Small helpers shared by the bpsbench subcommands: strict --key=value
// arguments, a monotonic clock, order statistics, and a one-line JSON
// writer. Every subcommand prints exactly one JSON object on stdout, which
// run.py parses.
#pragma once

#include <time.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace bpsbench {

inline std::int64_t now_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// `--key=value` arguments. Every key must be consumed: leftovers are an
/// error, so a typo never silently falls back to a default.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      const std::string a = argv[i];
      const auto eq = a.find('=');
      if (a.rfind("--", 0) != 0 || eq == std::string::npos) {
        throw std::runtime_error("expected --key=value, got '" + a + "'");
      }
      values_[a.substr(2, eq - 2)] = a.substr(eq + 1);
    }
  }

  std::string str(const std::string& key, const std::string& fallback = "") {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      if (fallback.empty()) throw std::runtime_error("--" + key + " is required");
      return fallback;
    }
    std::string v = it->second;
    values_.erase(it);
    return v;
  }
  std::int64_t num(const std::string& key, std::int64_t fallback) {
    const std::string v = str(key, std::to_string(fallback));
    return std::stoll(v);
  }
  double real(const std::string& key, double fallback) {
    return std::stod(str(key, std::to_string(fallback)));
  }
  void done() const {
    if (!values_.empty()) {
      throw std::runtime_error("unknown option --" + values_.begin()->first);
    }
  }

 private:
  std::map<std::string, std::string> values_;
};

/// q-quantile (0..1) by nearest rank over a copy; 0 for an empty sample.
template <typename T>
double quantile(std::vector<T> v, double q) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return static_cast<double>(v[k]);
}

/// Flat JSON object writer: {"k": v, ...} on one line.
class Json {
 public:
  Json& num(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return raw(k, buf);
  }
  Json& count(const std::string& k, std::uint64_t v) {
    return raw(k, std::to_string(v));
  }
  Json& raw(const std::string& k, const std::string& v) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + k + "\": ") + v;
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }
  void print() const { std::printf("%s\n", text().c_str()); }

 private:
  std::string body_;
};

}  // namespace bpsbench
