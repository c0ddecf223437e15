// Tests for table rendering, number formatting, CLI parsing, and unit
// formatting.
#include <gtest/gtest.h>

#include <string>

#include "support/cli.hpp"
#include "support/csv.hpp"
#include "support/table.hpp"
#include "support/units.hpp"

namespace iw {
namespace {

TEST(TextTable, AlignsColumnsUnderHeaders) {
  TextTable t;
  t.columns({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  // Header rule present.
  EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(TextTable, ShortRowsArePadded) {
  TextTable t;
  t.columns({"a", "b", "c"});
  t.add_row({"1"});
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_NO_THROW(t.render());
}

TEST(TextTable, OverlongRowRejected) {
  TextTable t;
  t.columns({"a"});
  EXPECT_THROW(t.add_row({"1", "2"}), std::invalid_argument);
}

TEST(TextTable, SeparatorRendersRule) {
  TextTable t;
  t.columns({"abc"});
  t.add_row({"1"});
  t.add_separator();
  t.add_row({"2"});
  const std::string out = t.render();
  // Two rules: one under the header, one explicit.
  std::size_t count = 0, pos = 0;
  while ((pos = out.find("---", pos)) != std::string::npos) {
    ++count;
    pos = out.find('\n', pos);
  }
  EXPECT_EQ(count, 2u);
}

TEST(FmtFixed, Decimals) {
  EXPECT_EQ(fmt_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_fixed(2.0, 0), "2");
}

TEST(Csv, NumFormatsRoundTrip) {
  EXPECT_EQ(csv_num(2.5), "2.5");
  const double v = 1.0 / 3.0;
  EXPECT_NEAR(std::stod(csv_num(v)), v, 1e-12);
}

TEST(Cli, ParsesAllFlagForms) {
  const char* argv[] = {"prog", "--a=1", "--b", "2", "--flag"};
  const Cli cli(5, argv);
  EXPECT_EQ(cli.get_or("a", std::int64_t{0}), 1);
  EXPECT_EQ(cli.get_or("b", std::int64_t{0}), 2);
  EXPECT_TRUE(cli.has("flag"));
  EXPECT_EQ(cli.get_or("flag", std::string{}), "true");
  EXPECT_EQ(cli.get_or("missing", 7.5), 7.5);
}

TEST(Cli, RejectsPositionalArguments) {
  const char* argv[] = {"prog", "oops"};
  EXPECT_THROW(Cli(2, argv), std::invalid_argument);
}

TEST(Cli, AllowOnlyCatchesTypos) {
  const char* argv[] = {"prog", "--sede=1"};
  const Cli cli(2, argv);
  EXPECT_THROW(cli.allow_only({"seed"}), std::invalid_argument);
  EXPECT_NO_THROW(cli.allow_only({"sede"}));
}

TEST(Units, DurationPicksNaturalScale) {
  EXPECT_EQ(fmt_duration(nanoseconds(640)), "640 ns");
  EXPECT_EQ(fmt_duration(microseconds(2.4)), "2.40 us");
  EXPECT_EQ(fmt_duration(milliseconds(3.0)), "3.00 ms");
  EXPECT_EQ(fmt_duration(seconds(1.5)), "1.500 s");
}

}  // namespace
}  // namespace iw
