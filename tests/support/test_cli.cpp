// Tests for numeric flag parsing: scalar values and comma-separated lists
// of sweep axes (`--np=4,8,16`), including seeded property tests against
// malformed input: parsing must either return the full value or throw
// std::invalid_argument — never crash, never silently truncate.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/cli.hpp"
#include "support/rng.hpp"
#include "sweep/axes.hpp"
#include "sweep/scenario.hpp"

namespace iw {
namespace {

TEST(CliList, ParsesInt64List) {
  const char* argv[] = {"prog", "--np=4,8,16"};
  const Cli cli(2, argv);
  const auto np = cli.get_list_or("np", std::vector<std::int64_t>{});
  ASSERT_EQ(np.size(), 3u);
  EXPECT_EQ(np[0], 4);
  EXPECT_EQ(np[1], 8);
  EXPECT_EQ(np[2], 16);
}

TEST(CliList, ParsesDoubleList) {
  const char* argv[] = {"prog", "--delay-ms=0.5,2,12.25"};
  const Cli cli(2, argv);
  const auto delays = cli.get_list_or("delay-ms", std::vector<double>{});
  ASSERT_EQ(delays.size(), 3u);
  EXPECT_DOUBLE_EQ(delays[0], 0.5);
  EXPECT_DOUBLE_EQ(delays[1], 2.0);
  EXPECT_DOUBLE_EQ(delays[2], 12.25);
}

TEST(CliList, SingleElementAndSpaceForm) {
  const char* argv[] = {"prog", "--np", "42"};
  const Cli cli(3, argv);
  const auto np = cli.get_list_or("np", std::vector<std::int64_t>{});
  ASSERT_EQ(np.size(), 1u);
  EXPECT_EQ(np[0], 42);
}

TEST(CliList, AbsentFlagYieldsFallback) {
  const char* argv[] = {"prog"};
  const Cli cli(1, argv);
  const auto np =
      cli.get_list_or("np", std::vector<std::int64_t>{7, 9});
  ASSERT_EQ(np.size(), 2u);
  EXPECT_EQ(np[0], 7);
  EXPECT_EQ(np[1], 9);
  const auto d = cli.get_list_or("delay", std::vector<double>{1.5});
  ASSERT_EQ(d.size(), 1u);
  EXPECT_DOUBLE_EQ(d[0], 1.5);
}

TEST(CliList, NegativeValues) {
  const char* argv[] = {"prog", "--shift=-3,-1"};
  const Cli cli(2, argv);
  const auto shift = cli.get_list_or("shift", std::vector<std::int64_t>{});
  ASSERT_EQ(shift.size(), 2u);
  EXPECT_EQ(shift[0], -3);
  EXPECT_EQ(shift[1], -1);
}

TEST(CliList, RejectsMalformedLists) {
  const auto parse_i64 = [](const char* value) {
    const char* argv[] = {"prog", value};
    const Cli cli(2, argv);
    return cli.get_list_or("x", std::vector<std::int64_t>{});
  };
  EXPECT_THROW(parse_i64("--x=4,,8"), std::invalid_argument);
  EXPECT_THROW(parse_i64("--x=4,8,"), std::invalid_argument);
  EXPECT_THROW(parse_i64("--x=,4"), std::invalid_argument);
  EXPECT_THROW(parse_i64("--x=abc"), std::invalid_argument);
  EXPECT_THROW(parse_i64("--x=4,8q"), std::invalid_argument);
  // Fractional input is not a valid int64 element.
  EXPECT_THROW(parse_i64("--x=4.5"), std::invalid_argument);
}

TEST(CliScalar, ParsesWholeValuesAndFallsBack) {
  const char* argv[] = {"prog", "--steps=12", "--delay-ms=2.5", "--shift",
                        "-3"};
  const Cli cli(5, argv);
  EXPECT_EQ(cli.get_or("steps", std::int64_t{1}), 12);
  EXPECT_EQ(cli.get_or("shift", std::int64_t{1}), -3);
  EXPECT_DOUBLE_EQ(cli.get_or("delay-ms", 1.0), 2.5);
  EXPECT_EQ(cli.get_or("absent", std::int64_t{7}), 7);
  EXPECT_DOUBLE_EQ(cli.get_or("absent", 0.25), 0.25);
}

// The scalar getters apply the list parsers' full-consumption rule: a
// value with trailing garbage is an error, never its numeric prefix.
TEST(CliScalar, RejectsTrailingGarbage) {
  const auto get_i64 = [](const char* value) {
    const char* argv[] = {"prog", value};
    const Cli cli(2, argv);
    return cli.get_or("x", std::int64_t{0});
  };
  const auto get_f64 = [](const char* value) {
    const char* argv[] = {"prog", value};
    const Cli cli(2, argv);
    return cli.get_or("x", 0.0);
  };
  EXPECT_THROW(get_i64("--x=12x"), std::invalid_argument);
  EXPECT_THROW(get_i64("--x=2abc"), std::invalid_argument);
  EXPECT_THROW(get_i64("--x=4.5"), std::invalid_argument);
  EXPECT_THROW(get_i64("--x=4,8"), std::invalid_argument);
  EXPECT_THROW(get_i64("--x="), std::invalid_argument);
  EXPECT_THROW(get_i64("--x=99999999999999999999"), std::invalid_argument);
  EXPECT_THROW(get_f64("--x=1.5ms"), std::invalid_argument);
  EXPECT_THROW(get_f64("--x=0.5,2"), std::invalid_argument);
  EXPECT_THROW(get_f64("--x=abc"), std::invalid_argument);
  try {
    (void)get_i64("--x=12x");
    FAIL() << "trailing garbage must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--x"), std::string::npos)
        << e.what();
  }
}

// The typed getters range-check instead of narrowing: a value that does
// not fit the destination is an error, never its wrapped remainder.
TEST(CliScalar, TypedGettersRangeCheck) {
  const auto get_int = [](const char* value) {
    const char* argv[] = {"prog", value};
    const Cli cli(2, argv);
    return cli.get_int_or("x", 0);
  };
  const auto get_u64 = [](const char* value) {
    const char* argv[] = {"prog", value};
    const Cli cli(2, argv);
    return cli.get_u64_or("x", 0);
  };
  EXPECT_EQ(get_int("--x=10"), 10);
  EXPECT_EQ(get_int("--x=-3"), -3);
  EXPECT_EQ(get_int("--x=2147483647"), 2147483647);
  EXPECT_THROW(get_int("--x=4294967306"), std::invalid_argument);  // 2^32+10
  EXPECT_THROW(get_int("--x=2147483648"), std::invalid_argument);
  EXPECT_THROW(get_int("--x=-2147483649"), std::invalid_argument);
  EXPECT_THROW(get_int("--x=12x"), std::invalid_argument);
  EXPECT_THROW(get_int("--x="), std::invalid_argument);

  EXPECT_EQ(get_u64("--x=18446744073709551615"), 18446744073709551615ull);
  EXPECT_THROW(get_u64("--x=18446744073709551616"), std::invalid_argument);
  EXPECT_THROW(get_u64("--x=-1"), std::invalid_argument);
  EXPECT_THROW(get_u64("--x=-0"), std::invalid_argument);
  EXPECT_THROW(get_u64("--x=1.5"), std::invalid_argument);

  const char* none[] = {"prog"};
  const Cli absent(1, none);
  EXPECT_EQ(absent.get_int_or("x", 7), 7);
  EXPECT_EQ(absent.get_u64_or("x", 9), 9u);
  try {
    (void)get_int("--x=4294967306");
    FAIL() << "out-of-range value must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--x"), std::string::npos)
        << e.what();
  }
}

TEST(CliScenario, ResolvesOverridesLikeTheCampaignTools) {
  const char* argv[] = {"prog", "--np=8", "--steps=10", "--seed=7"};
  const Cli cli(4, argv);
  const sweep::Scenario s = sweep::resolve_scenario("speed_vs_delay", cli);
  EXPECT_EQ(s.name, "speed_vs_delay");
  EXPECT_EQ(s.spec.np, std::vector<int>{8});
  EXPECT_EQ(s.spec.steps, 10);
  EXPECT_EQ(s.spec.campaign_seed, 7u);

  const char* none[] = {"prog"};
  const Cli plain(1, none);
  const sweep::Scenario* catalog = sweep::find_scenario("speed_vs_delay");
  ASSERT_NE(catalog, nullptr);
  const sweep::Scenario d = sweep::resolve_scenario("speed_vs_delay", plain);
  EXPECT_EQ(d.spec.steps, catalog->spec.steps);
  EXPECT_EQ(d.spec.campaign_seed, catalog->spec.campaign_seed);
  EXPECT_EQ(d.spec.points(), catalog->spec.points());
}

TEST(CliScenario, RejectsNarrowingAndUnknownNames) {
  const auto resolve = [](const char* flag) {
    const char* argv[] = {"prog", flag};
    const Cli cli(2, argv);
    return sweep::resolve_scenario("speed_vs_delay", cli);
  };
  // 2^32 + 10 used to run 10 steps; 2^64 - 1 used to be the seed for -1.
  EXPECT_THROW(resolve("--steps=4294967306"), std::invalid_argument);
  EXPECT_THROW(resolve("--seed=-1"), std::invalid_argument);
  EXPECT_EQ(resolve("--seed=18446744073709551615").spec.campaign_seed,
            18446744073709551615ull);

  const char* none[] = {"prog"};
  const Cli plain(1, none);
  try {
    (void)sweep::resolve_scenario("no_such_scenario", plain);
    FAIL() << "unknown scenario must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("speed_vs_delay"), std::string::npos)
        << "the message lists the catalog: " << e.what();
  }
}

TEST(CliIntList, RangeChecksIntoInt) {
  const char* argv[] = {"prog", "--np=4,8,16"};
  const Cli cli(2, argv);
  const auto np = cli.get_int_list_or("np", {});
  ASSERT_EQ(np.size(), 3u);
  EXPECT_EQ(np[2], 16);

  const char* big[] = {"prog", "--np=4,90000000000"};  // > int max
  const Cli overflow(2, big);
  EXPECT_THROW(overflow.get_int_list_or("np", {}), std::invalid_argument);

  const char* neg[] = {"prog", "--np=-90000000000"};  // < int min
  const Cli underflow(2, neg);
  EXPECT_THROW(underflow.get_int_list_or("np", {}), std::invalid_argument);
}

TEST(CliIntList, AbsentFlagYieldsFallback) {
  const char* argv[] = {"prog"};
  const Cli cli(1, argv);
  const auto np = cli.get_int_list_or("np", {3, 5});
  ASSERT_EQ(np.size(), 2u);
  EXPECT_EQ(np[0], 3);
  EXPECT_EQ(np[1], 5);
}

// ---- property tests -------------------------------------------------------
// Seeded random strings over a list-ish alphabet. For every input, each
// parser must either (a) throw std::invalid_argument, or (b) return exactly
// comma_count+1 elements — the no-crash / no-silent-truncation contract the
// sweep_runner axis overrides rely on.

std::string random_list_input(Rng& rng, std::size_t max_len) {
  static constexpr char alphabet[] = "0123456789,,..--++eExq ";
  const std::size_t len = rng.uniform_below(max_len + 1);
  std::string s;
  for (std::size_t i = 0; i < len; ++i)
    s += alphabet[rng.uniform_below(sizeof alphabet - 1)];
  return s;
}

template <typename Parse>
void check_list_property(const std::string& input, Parse parse) {
  const std::string arg = "--x=" + input;
  const char* argv[] = {"prog", arg.c_str()};
  const Cli cli(2, argv);
  const std::size_t commas =
      static_cast<std::size_t>(std::count(input.begin(), input.end(), ','));
  try {
    const auto parsed = parse(cli);
    EXPECT_EQ(parsed.size(), commas + 1)
        << "silent truncation for input '" << input << "'";
  } catch (const std::invalid_argument&) {
    // rejected cleanly: fine
  }
}

TEST(CliListProperty, Int64ListNeverCrashesNorTruncates) {
  Rng rng(0xC11F00D5EEDull);
  for (int i = 0; i < 3000; ++i)
    check_list_property(random_list_input(rng, 24), [](const Cli& cli) {
      return cli.get_list_or("x", std::vector<std::int64_t>{});
    });
}

TEST(CliListProperty, DoubleListNeverCrashesNorTruncates) {
  Rng rng(0xD0B1E5EEDull);
  for (int i = 0; i < 3000; ++i)
    check_list_property(random_list_input(rng, 24), [](const Cli& cli) {
      return cli.get_list_or("x", std::vector<double>{});
    });
}

TEST(CliListProperty, IntListNeverCrashesNorTruncates) {
  Rng rng(0x1217EE7ull);
  for (int i = 0; i < 3000; ++i)
    check_list_property(random_list_input(rng, 24), [](const Cli& cli) {
      return cli.get_int_list_or("x", {});
    });
}

TEST(CliListProperty, ValidListsAlwaysParseInFull) {
  // The complementary direction: well-formed lists of random numerics must
  // parse, element for element.
  Rng rng(0xA11600Dull);
  for (int i = 0; i < 2000; ++i) {
    const std::size_t n = 1 + rng.uniform_below(6);
    std::string input;
    std::vector<std::int64_t> want;
    for (std::size_t k = 0; k < n; ++k) {
      const auto v = static_cast<std::int64_t>(rng.uniform_below(1'000'000)) -
                     500'000;
      want.push_back(v);
      if (k > 0) input += ',';
      input += std::to_string(v);
    }
    const std::string arg = "--x=" + input;
    const char* argv[] = {"prog", arg.c_str()};
    const Cli cli(2, argv);
    EXPECT_EQ(cli.get_list_or("x", std::vector<std::int64_t>{}), want);
  }
}

TEST(CliList, UnknownFlagCheckingStillApplies) {
  const char* argv[] = {"prog", "--np=4,8"};
  const Cli cli(2, argv);
  EXPECT_NO_THROW(cli.allow_only({"np"}));
  EXPECT_THROW(cli.allow_only({"ranks"}), std::invalid_argument);
}

}  // namespace
}  // namespace iw
