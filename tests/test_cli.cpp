// Unit tests for the shared tool argument parser (tools/cli.hpp). Every
// bpsio tool fronts its flags through this one table-driven parser, so its
// corner cases (value spellings, `--`, validation failures) are the CLI
// contract of the whole tools/ directory.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cli.hpp"

namespace bpsio::cli {
namespace {

// argv shims: parse() takes char** like main(); build one from a literal
// list. The strings outlive the call because Args owns them.
class Args {
 public:
  explicit Args(std::vector<std::string> words)
      : words_(std::move(words)) {
    argv_.push_back(const_cast<char*>("tool"));
    for (std::string& w : words_) argv_.push_back(w.data());
  }
  int argc() { return static_cast<int>(argv_.size()); }
  char** argv() { return argv_.data(); }

 private:
  std::vector<std::string> words_;
  std::vector<char*> argv_;
};

TEST(Cli, BothValueSpellingsWork) {
  ArgParser parser("tool", "test");
  std::string csv;
  long long threads = 0;
  parser.add_string("--csv", &csv, "PATH", "csv output");
  parser.add_int("--threads", &threads, 0, 64, "N", "worker threads");

  Args args({"--csv=out.csv", "--threads", "8"});
  std::vector<std::string> pos;
  EXPECT_EQ(parser.parse(args.argc(), args.argv(), pos),
            ArgParser::Outcome::ok);
  EXPECT_EQ(csv, "out.csv");
  EXPECT_EQ(threads, 8);
  EXPECT_TRUE(pos.empty());
}

TEST(Cli, BoolFlagAndPositionalsInterleave) {
  ArgParser parser("tool", "test");
  bool per_pid = false;
  parser.add_flag("--per-pid", &per_pid, "per-process breakdown");

  Args args({"a.bpstrace", "--per-pid", "b.bpstrace"});
  std::vector<std::string> pos;
  EXPECT_EQ(parser.parse(args.argc(), args.argv(), pos),
            ArgParser::Outcome::ok);
  EXPECT_TRUE(per_pid);
  EXPECT_EQ(pos, (std::vector<std::string>{"a.bpstrace", "b.bpstrace"}));
}

TEST(Cli, DoubleDashEndsOptions) {
  ArgParser parser("tool", "test");
  bool flag = false;
  parser.add_flag("--flag", &flag, "a flag");

  Args args({"--", "--flag", "-weird"});
  std::vector<std::string> pos;
  EXPECT_EQ(parser.parse(args.argc(), args.argv(), pos),
            ArgParser::Outcome::ok);
  EXPECT_FALSE(flag);
  EXPECT_EQ(pos, (std::vector<std::string>{"--flag", "-weird"}));
}

TEST(Cli, LoneDashIsAPositional) {
  // Convention: "-" means stdin/stdout for many tools; never an option.
  ArgParser parser("tool", "test");
  Args args({"-"});
  std::vector<std::string> pos;
  EXPECT_EQ(parser.parse(args.argc(), args.argv(), pos),
            ArgParser::Outcome::ok);
  EXPECT_EQ(pos, (std::vector<std::string>{"-"}));
}

TEST(Cli, HelpShortCircuits) {
  ArgParser parser("tool", "test");
  bool flag = false;
  parser.add_flag("--flag", &flag, "a flag");
  Args args({"--help", "--no-such-option"});
  std::vector<std::string> pos;
  // --help wins before the unknown option is ever examined.
  EXPECT_EQ(parser.parse(args.argc(), args.argv(), pos),
            ArgParser::Outcome::help);
}

TEST(Cli, UnknownOptionIsAnError) {
  ArgParser parser("tool", "test");
  Args args({"--bogus"});
  std::vector<std::string> pos;
  EXPECT_EQ(parser.parse(args.argc(), args.argv(), pos),
            ArgParser::Outcome::error);
}

TEST(Cli, MissingValueIsAnError) {
  ArgParser parser("tool", "test");
  std::string csv;
  parser.add_string("--csv", &csv, "PATH", "csv output");
  Args args({"--csv"});
  std::vector<std::string> pos;
  EXPECT_EQ(parser.parse(args.argc(), args.argv(), pos),
            ArgParser::Outcome::error);
}

TEST(Cli, FlagRejectsAttachedValue) {
  ArgParser parser("tool", "test");
  bool flag = false;
  parser.add_flag("--flag", &flag, "a flag");
  Args args({"--flag=yes"});
  std::vector<std::string> pos;
  EXPECT_EQ(parser.parse(args.argc(), args.argv(), pos),
            ArgParser::Outcome::error);
}

TEST(Cli, IntValidationEnforcesRangeAndFormat) {
  ArgParser parser("tool", "test");
  long long n = -1;
  parser.add_int("--n", &n, 0, 100, "N", "a count");

  for (const char* bad : {"101", "-1", "7x", "", "0x10"}) {
    Args args({std::string("--n=") + bad});
    std::vector<std::string> pos;
    EXPECT_EQ(parser.parse(args.argc(), args.argv(), pos),
              ArgParser::Outcome::error)
        << "value '" << bad << "' should have been rejected";
  }
  EXPECT_EQ(n, -1);  // failed parses never write through

  Args ok({"--n=100"});
  std::vector<std::string> pos;
  EXPECT_EQ(parser.parse(ok.argc(), ok.argv(), pos), ArgParser::Outcome::ok);
  EXPECT_EQ(n, 100);
}

TEST(Cli, PositiveDoubleRejectsZeroAndJunk) {
  ArgParser parser("tool", "test");
  double x = -1.0;
  parser.add_positive_double("--x", &x, "SECS", "a duration");

  for (const char* bad : {"0", "-2.5", "nanx", "1.5s"}) {
    Args args({std::string("--x=") + bad});
    std::vector<std::string> pos;
    EXPECT_EQ(parser.parse(args.argc(), args.argv(), pos),
              ArgParser::Outcome::error)
        << "value '" << bad << "' should have been rejected";
  }

  Args ok({"--x", "0.25"});
  std::vector<std::string> pos;
  EXPECT_EQ(parser.parse(ok.argc(), ok.argv(), pos), ArgParser::Outcome::ok);
  EXPECT_DOUBLE_EQ(x, 0.25);
}

TEST(Cli, PositiveDoubleRejectsNonFinite) {
  ArgParser parser("tool", "test");
  double x = 2.0;
  parser.add_positive_double("--x", &x, "F", "a factor");
  for (const char* bad : {"inf", "nan", "infinity", "1e999"}) {
    Args args({std::string("--x=") + bad});
    std::vector<std::string> pos;
    EXPECT_EQ(parser.parse(args.argc(), args.argv(), pos),
              ArgParser::Outcome::error)
        << "value '" << bad << "' should have been rejected";
  }
  EXPECT_DOUBLE_EQ(x, 2.0);
}

TEST(Cli, DurationTruncatesToIntegerNanoseconds) {
  EXPECT_EQ(parse_duration_ns("100", kNsPerMs), 100'000'000);
  EXPECT_EQ(parse_duration_ns("2.5", kNsPerSec), 2'500'000'000);
  EXPECT_EQ(parse_duration_ns("0.0000019", kNsPerMs), 1);  // 1.9 ns
  EXPECT_EQ(parse_duration_ns("1e-9", kNsPerSec), 1);
  EXPECT_EQ(parse_duration_ns("9e9", kNsPerSec), 9'000'000'000'000'000'000);

  ArgParser parser("tool", "test");
  std::int64_t window_ns = 0;
  parser.add_duration("--window", &window_ns, kNsPerMs, "MS", "window");
  Args args({"--window", "0.25"});
  std::vector<std::string> pos;
  EXPECT_EQ(parser.parse(args.argc(), args.argv(), pos),
            ArgParser::Outcome::ok);
  EXPECT_EQ(window_ns, 250'000);
}

TEST(Cli, DurationRejectsValuesItCannotRepresent) {
  // Non-finite, below 1 ns once converted (0.1 ns, zero, negative), past
  // INT64_MAX ns (1e300 s, 9.3e9 s), and malformed.
  for (const char* bad : {"inf", "-inf", "nan", "1e-10", "0", "-1", "1e300",
                          "9.3e9", "", "5ms", "x"}) {
    EXPECT_FALSE(parse_duration_ns(bad, kNsPerSec).has_value())
        << "value '" << bad << "' should have been rejected";
  }
  EXPECT_FALSE(parse_duration_ns("0.0000001", kNsPerMs).has_value());

  ArgParser parser("tool", "test");
  std::int64_t window_ns = 7;
  parser.add_duration("--window", &window_ns, kNsPerMs, "MS", "window");
  for (const char* bad : {"inf", "nan", "0.0000001"}) {
    Args args({std::string("--window=") + bad});
    std::vector<std::string> pos;
    EXPECT_EQ(parser.parse(args.argc(), args.argv(), pos),
              ArgParser::Outcome::error)
        << "value '" << bad << "' should have been rejected";
  }
  EXPECT_EQ(window_ns, 7);
}

TEST(Cli, CustomSetterCanReject) {
  ArgParser parser("tool", "test");
  std::string align;
  parser.add_value("--align", "MODE", "keep|zero",
                   [&align](const std::string& v) {
                     if (v != "keep" && v != "zero") return false;
                     align = v;
                     return true;
                   });

  Args bad({"--align=maybe"});
  std::vector<std::string> pos;
  EXPECT_EQ(parser.parse(bad.argc(), bad.argv(), pos),
            ArgParser::Outcome::error);

  Args good({"--align", "zero"});
  pos.clear();
  EXPECT_EQ(parser.parse(good.argc(), good.argv(), pos),
            ArgParser::Outcome::ok);
  EXPECT_EQ(align, "zero");
}

TEST(Cli, UsageListsEveryOption) {
  ArgParser parser("tool", "does things");
  parser.positionals("<input>...");
  bool flag = false;
  std::string csv;
  parser.add_flag("--verbose", &flag, "say more");
  parser.add_string("--csv", &csv, "PATH", "csv output");

  const std::string usage = parser.usage();
  EXPECT_NE(usage.find("usage: tool <input>... [options]"), std::string::npos);
  EXPECT_NE(usage.find("does things"), std::string::npos);
  EXPECT_NE(usage.find("--verbose"), std::string::npos);
  EXPECT_NE(usage.find("--csv=PATH"), std::string::npos);
  EXPECT_NE(usage.find("say more"), std::string::npos);
}

}  // namespace
}  // namespace bpsio::cli
