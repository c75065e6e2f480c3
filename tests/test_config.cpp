#include <gtest/gtest.h>

#include "common/config.hpp"

namespace bpsio {
namespace {

Config parse(const std::string& text) { return Config::from_string(text); }

TEST(Config, ParsesKeyValueAndFlags) {
  const auto cfg = parse("scale=0.5 verbose");
  EXPECT_DOUBLE_EQ(cfg.get_double("scale", 1.0), 0.5);
  EXPECT_TRUE(cfg.get_bool("verbose", false));
}

TEST(Config, DefaultsWhenMissing) {
  const Config cfg;
  EXPECT_EQ(cfg.get_int("n", 7), 7);
  EXPECT_EQ(cfg.get_string("s", "x"), "x");
  EXPECT_FALSE(cfg.get_bool("b", false));
  EXPECT_EQ(cfg.get_bytes("sz", 512), 512u);
  EXPECT_FALSE(cfg.has("anything"));
}

TEST(Config, MalformedNumbersFallBack) {
  const auto cfg = parse("n=abc d=1.5x");
  EXPECT_EQ(cfg.get_int("n", 3), 3);
  EXPECT_DOUBLE_EQ(cfg.get_double("d", 2.0), 2.0);
}

TEST(Config, BoolSpellings) {
  const auto cfg = parse("a=1 b=true c=off d=no e=maybe");
  EXPECT_TRUE(cfg.get_bool("a", false));
  EXPECT_TRUE(cfg.get_bool("b", false));
  EXPECT_FALSE(cfg.get_bool("c", true));
  EXPECT_FALSE(cfg.get_bool("d", true));
  EXPECT_TRUE(cfg.get_bool("e", true));  // unknown -> default
}

TEST(Config, ByteSuffixes) {
  EXPECT_EQ(Config::parse_bytes("512"), 512u);
  EXPECT_EQ(Config::parse_bytes("4k"), 4096u);
  EXPECT_EQ(Config::parse_bytes("4K"), 4096u);
  EXPECT_EQ(Config::parse_bytes("4KiB"), 4096u);
  EXPECT_EQ(Config::parse_bytes("8M"), 8u * kMiB);
  EXPECT_EQ(Config::parse_bytes("2g"), 2u * kGiB);
  EXPECT_EQ(Config::parse_bytes("1T"), kTiB);
  EXPECT_EQ(Config::parse_bytes("1.5k"), 1536u);
  EXPECT_FALSE(Config::parse_bytes("").has_value());
  EXPECT_FALSE(Config::parse_bytes("12q").has_value());
  EXPECT_FALSE(Config::parse_bytes("-5k").has_value());
}

TEST(Config, GetBytesUsesSuffixes) {
  const auto cfg = parse("record=64k file=1G");
  EXPECT_EQ(cfg.get_bytes("record", 0), 64u * kKiB);
  EXPECT_EQ(cfg.get_bytes("file", 0), kGiB);
}

TEST(Config, FromString) {
  const auto cfg = Config::from_string("a=1 b=two\nflag");
  EXPECT_EQ(cfg.get_int("a", 0), 1);
  EXPECT_EQ(cfg.get_string("b", ""), "two");
  EXPECT_TRUE(cfg.get_bool("flag", false));
}

TEST(Config, LastValueWins) {
  const auto cfg = parse("x=1 x=2");
  EXPECT_EQ(cfg.get_int("x", 0), 2);
}

}  // namespace
}  // namespace bpsio
