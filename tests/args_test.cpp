#include <gtest/gtest.h>

#include "util/args.h"

namespace gapsp {
namespace {

Args parse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return Args(static_cast<int>(argv.size()), argv.data());
}

TEST(Args, FlagWithSeparateValue) {
  const auto a = parse({"--input", "graph.mtx"});
  EXPECT_EQ(a.get_or("input", ""), "graph.mtx");
}

TEST(Args, FlagWithEqualsValue) {
  const auto a = parse({"--device=k80"});
  EXPECT_EQ(a.get_or("device", ""), "k80");
}

TEST(Args, SwitchWithoutValue) {
  const auto a = parse({"--stats", "--input", "x"});
  EXPECT_TRUE(a.has("stats"));
  EXPECT_EQ(a.get_or("stats", "?"), "");
}

TEST(Args, SwitchFollowedByFlagTakesNoValue) {
  const auto a = parse({"--keep-store", "--store", "file"});
  EXPECT_TRUE(a.has("keep-store"));
  EXPECT_EQ(a.get_or("keep-store", "?"), "");
  EXPECT_EQ(a.get_or("store", ""), "file");
}

TEST(Args, PositionalArguments) {
  const auto a = parse({"pos1", "--flag", "v", "pos2"});
  // "pos2" is consumed as --flag's value? No: --flag takes "v"; "pos2" is
  // positional.
  ASSERT_EQ(a.positional().size(), 2u);
  EXPECT_EQ(a.positional()[0], "pos1");
  EXPECT_EQ(a.positional()[1], "pos2");
}

TEST(Args, MissingFlagGivesDefault) {
  const auto a = parse({});
  EXPECT_FALSE(a.get("missing").has_value());
  EXPECT_EQ(a.get_or("missing", "dflt"), "dflt");
  EXPECT_EQ(a.get_int_or("missing", 42), 42);
  EXPECT_EQ(a.get_double_or("missing", 2.5), 2.5);
}

TEST(Args, IntAndDoubleParsing) {
  const auto a = parse({"--n", "128", "--ratio", "0.25"});
  EXPECT_EQ(a.get_int_or("n", 0), 128);
  EXPECT_DOUBLE_EQ(a.get_double_or("ratio", 0), 0.25);
}

TEST(Args, BadNumberThrows) {
  const auto a = parse({"--n", "abc"});
  EXPECT_THROW(a.get_int_or("n", 0), Error);
  EXPECT_THROW(a.get_double_or("n", 0), Error);
}

TEST(Args, RepeatedFlagThrows) {
  EXPECT_THROW(parse({"--x", "1", "--x", "2"}), Error);
}

TEST(Args, EmptyFlagNameThrows) { EXPECT_THROW(parse({"--", "v"}), Error); }

TEST(Args, UnknownDetection) {
  const auto a = parse({"--known", "1", "--typo", "2"});
  const auto unknown = a.unknown({"known", "other"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "typo");
}

TEST(Args, NegativeNumberAsValue) {
  // A negative number does not start with "--", so it binds as a value.
  const auto a = parse({"--offset", "-5"});
  EXPECT_EQ(a.get_int_or("offset", 0), -5);
}

TEST(DeclaredFlags, TextFlagsAndSwitches) {
  const Flag store("store-path", "P", "distance store", "d.bin");
  const Flag verify("verify", "", "check the result");
  EXPECT_EQ(store.help, "distance store (default d.bin)");
  EXPECT_EQ(store.flag(), "--store-path");
  EXPECT_EQ(store.arg("x y.bin"), "--store-path=x y.bin");
  EXPECT_EQ(store(parse({})), "d.bin");
  EXPECT_EQ(store(parse({"--store-path", "e.bin"})), "e.bin");
  EXPECT_TRUE(verify.has(parse({"--verify"})));
  EXPECT_EQ(store.with_help("kept store").help, "kept store (default d.bin)");
}

TEST(DeclaredFlags, NumericFlagsStateAndCheckTheirRange) {
  const IntFlag cache("cache-mb", "M", "cache MiB", 64, 0, 1024);
  const IntFlag threads("threads", "T", "threads", 0, 0);
  const IntFlag shard("shard", "K", "slice", std::nullopt, 0);
  const RealFlag p("fault-h2d", "P", "fault", 0.0, 0.0, 1.0);
  EXPECT_EQ(cache.help, "cache MiB (default 64, in [0, 1024])");
  EXPECT_EQ(threads.help, "threads (default 0, >= 0)");
  EXPECT_EQ(shard.help, "slice (>= 0)");
  EXPECT_EQ(p.help, "fault (default 0, in [0, 1])");
  EXPECT_EQ(cache(parse({})), 64);
  EXPECT_EQ(cache(parse({"--cache-mb", "0"})), 0);
  EXPECT_EQ(shard(parse({"--shard", "3"})), 3);
  EXPECT_DOUBLE_EQ(p(parse({"--fault-h2d", "0.25"})), 0.25);
  EXPECT_THROW(cache(parse({"--cache-mb", "-1"})), Error);
  EXPECT_THROW(cache(parse({"--cache-mb", "8x"})), Error);
  EXPECT_THROW(threads(parse({"--threads", "2147483648"})), Error);
  EXPECT_THROW(p(parse({"--fault-h2d=-0.5"})), Error);
  EXPECT_EQ(cache.arg(8), "--cache-mb=8");
  const IntFlag count = cache.with(2, "count");
  EXPECT_EQ(count.name, "cache-mb");
  EXPECT_EQ(count(parse({})), 2);
  EXPECT_EQ(count.help, "count (default 2, in [0, 1024])");
}

TEST(DeclaredFlags, ChoiceFlagsNameTheirChoices) {
  enum class Route { kNone, kLocal };
  const ChoiceFlag<Route> route("route", "topology",
                                {{"none", Route::kNone},
                                 {"local", Route::kLocal}});
  EXPECT_EQ(route.value, "none|local");
  EXPECT_EQ(route.help, "topology (default none)");
  EXPECT_EQ(route(parse({})), Route::kNone);
  EXPECT_EQ(route(parse({"--route", "local"})), Route::kLocal);
  EXPECT_EQ(route.label(Route::kLocal), "local");
  try {
    route(parse({"--route", "remote"}));
    ADD_FAILURE() << "accepted";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "unknown --route: remote (none | local)");
  }
}

}  // namespace
}  // namespace gapsp
