// Column-drift guard and codec pins: the typed record schema, the column
// names and the CSV header must agree in size, order and names, and
// serialization must round-trip — so a new SweepRecord field cannot ship
// half-serialized (present in the struct, missing from sinks/goldens, or
// vice versa). The codec tests pin the exact bytes of a JSON line, the
// %.12g number format, the index rewrite and the bare-token rule.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <stdexcept>
#include <utility>

#include "support/csv.hpp"
#include "sweep/record.hpp"

namespace iw::sweep {
namespace {

/// A record with every field set to a distinctive non-default value, so a
/// get/set mix-up between two columns cannot cancel out.
SweepRecord distinctive_record() {
  SweepRecord rec;
  rec.index = 41;
  rec.delay_ms = 12.5;
  rec.msg_bytes = 174080;
  rec.np = 18;
  rec.ppn = 10;
  rec.noise_E_percent = 7.25;
  rec.workload = "grid2d";
  rec.direction = "bidirectional";
  rec.boundary = "periodic";
  rec.seed = 18446744073709551615ull;
  rec.protocol = "rendezvous";
  rec.v_up_ranks_per_sec = 331.0625;
  rec.v_down_ranks_per_sec = 165.5;
  rec.v_eq2_ranks_per_sec = 333.125;
  rec.decay_up_us_per_rank = 86.875;
  rec.survival_up_hops = 9;
  rec.survival_down_hops = 4;
  rec.front_r2_up = 0.998046875;
  rec.front_rmse_up_us = 148.25;
  rec.cycle_us = 3322.75;
  rec.makespan_ms = 86.1875;
  rec.events_processed = 1941;
  rec.peak_events_pending = 37;
  return rec;
}

TEST(RecordSchema, SchemaAndHeaderAgree) {
  const auto& schema = record_schema();
  std::string header;
  for (std::size_t i = 0; i < schema.size(); ++i)
    header += (i ? "," : "") + std::string(schema[i].name);
  EXPECT_EQ(csv_header(), header);
  // The index rewrite relies on `index` leading every line.
  EXPECT_EQ(std::string(schema.front().name), "index");
  // Every record line carries exactly one value per schema column.
  const std::string row = [] {
    std::string out;
    append_csv_row(out, distinctive_record());
    return out;
  }();
  EXPECT_EQ(std::count(row.begin(), row.end(), ','),
            static_cast<std::ptrdiff_t>(schema.size() - 1));
}

TEST(RecordSchema, ColumnNamesAreUniqueAndResolvable) {
  std::set<std::string> seen;
  for (const ColumnMeta& meta : record_schema()) {
    EXPECT_TRUE(seen.insert(meta.name).second)
        << "duplicate column " << meta.name;
    const auto index = column_index(meta.name);
    ASSERT_TRUE(index.has_value()) << meta.name;
    EXPECT_EQ(record_schema()[*index].name, std::string(meta.name));
  }
  EXPECT_FALSE(column_index("no_such_column").has_value());
}

TEST(RecordSchema, RowRoundTripIsIdentity) {
  // CSV -> parse -> CSV: serializing, re-parsing and re-serializing a
  // record must reproduce the exact same row, for every column.
  const SweepRecord rec = distinctive_record();
  std::vector<std::string> row;
  for (std::size_t c = 0; c < record_schema().size(); ++c)
    row.push_back(column_value(rec, c));

  const SweepRecord parsed = record_from_row(row);
  for (std::size_t c = 0; c < record_schema().size(); ++c)
    EXPECT_EQ(column_value(parsed, c), row[c])
        << "column " << record_schema()[c].name;
}

TEST(RecordSchema, SetColumnRejectsGarbage) {
  SweepRecord rec;
  const std::size_t np = *column_index("np");
  const std::size_t delay = *column_index("delay_ms");
  const std::size_t seed = *column_index("seed");
  EXPECT_THROW(set_column(rec, np, "12abc"), std::invalid_argument);
  EXPECT_THROW(set_column(rec, np, ""), std::invalid_argument);
  EXPECT_THROW(set_column(rec, np, "99999999999999999999"),
               std::invalid_argument);
  EXPECT_THROW(set_column(rec, delay, "1.2.3"), std::invalid_argument);
  EXPECT_THROW(set_column(rec, seed, "-1"), std::invalid_argument);
  EXPECT_THROW(set_column(rec, np, "4,5"), std::invalid_argument);
}

TEST(RecordSchema, RowSizeMismatchRejected) {
  std::vector<std::string> row(record_schema().size() - 1, "0");
  EXPECT_THROW(record_from_row(row), std::invalid_argument);
  row.assign(record_schema().size() + 1, "0");
  EXPECT_THROW(record_from_row(row), std::invalid_argument);
}

TEST(RecordSchema, EveryColumnHasAResolvableToleranceClass) {
  // The verify differ dispatches on these two enums; a new column always
  // declares both, so this is mostly documentation — but it pins that
  // exact-class columns include the reproducibility-critical identity
  // fields and approx never applies to text.
  for (const ColumnMeta& meta : record_schema()) {
    if (meta.type == ColumnType::text) {
      EXPECT_EQ(meta.tolerance, ColumnTolerance::exact) << meta.name;
    }
  }
  for (const char* must_be_exact :
       {"index", "seed", "protocol", "events_processed",
        "peak_events_pending"}) {
    const auto c = column_index(must_be_exact);
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(record_schema()[*c].tolerance, ColumnTolerance::exact)
        << must_be_exact;
  }
}

// ---- codec pins -----------------------------------------------------------

TEST(RecordCodec, JsonLineIsPinned) {
  // JSONL has no golden file, so one line is pinned byte for byte: key
  // order, quoted text and seed, %.12g doubles (rounding, -0, exponent).
  SweepRecord rec = distinctive_record();
  rec.rdv_flavor = "rdma_put";
  rec.v_up_ranks_per_sec = 1000.0 / 3.0;
  rec.makespan_ms = 1e21;
  rec.front_rmse_up_us = -0.0;
  rec.ffwd_skips = 7;
  const std::string want =
      R"({"index":41,"delay_ms":12.5,"msg_bytes":174080,"np":18,"ppn":10,)"
      R"("noise_E_percent":7.25,"direction":"bidirectional",)"
      R"("boundary":"periodic","nic_depth":0,"eager_credits":0,)"
      R"("rdv_flavor":"rdma_put","switch_nodes":0,"workload":"grid2d",)"
      R"("seed":"18446744073709551615","protocol":"rendezvous",)"
      R"("v_up_ranks_per_sec":333.333333333,"v_down_ranks_per_sec":165.5,)"
      R"("v_eq2_ranks_per_sec":333.125,"decay_up_us_per_rank":86.875,)"
      R"("survival_up_hops":9,"survival_down_hops":4,)"
      R"("front_r2_up":0.998046875,"front_rmse_up_us":-0,)"
      R"("cycle_us":3322.75,"makespan_ms":1e+21,"eager_demotions":0,)"
      R"("nic_backlogged":0,"deferred_pushes":0,"unexpected_eager":0,)"
      R"("unexpected_rts":0,"events_processed":1941,)"
      R"("peak_events_pending":37,"ffwd_skips":7,"ffwd_time_skipped_us":0})";
  EXPECT_EQ(record_json_line(rec), want);
  std::string appended = "prefix";
  append_json_line(appended, rec);
  EXPECT_EQ(appended, "prefix" + want);
}

TEST(RecordCodec, NumbersPrintLikePrintf12g) {
  for (const double v :
       {std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(), -0.0, 0.0, 5e-324, 1e21,
        1e-5, 123456789012.5, 1.0 / 3.0, -2.5e-310}) {
    char want[64];
    std::snprintf(want, sizeof want, "%.12g", v);
    EXPECT_EQ(csv_num(v), want);
    SweepRecord rec;
    rec.cycle_us = v;
    EXPECT_EQ(column_value(rec, *column_index("cycle_us")), want);
  }
}

TEST(RecordCodec, IndexRewriteHandlesDigitCountChanges) {
  SweepRecord rec = distinctive_record();
  const std::pair<std::uint64_t, std::uint64_t> cases[] = {
      {9, 10}, {0, 123456}, {123456, 0}, {7, 18446744073709551615ull}};
  for (const auto& [from, to] : cases) {
    rec.index = from;
    const std::string line = record_json_line(rec);
    rec.index = to;
    EXPECT_EQ(with_json_index(line, to), record_json_line(rec))
        << from << " -> " << to;
  }
  EXPECT_THROW((void)with_json_index(R"({"seed":"1","index":2})", 3),
               std::invalid_argument);
  EXPECT_THROW((void)with_json_index(R"({"index":2})", 3),
               std::invalid_argument);
}

TEST(RecordCodec, TextColumnsMustBeBareTokens) {
  for (const char* bad : {"ring,grid2d", "a\"b", "back\\slash", "new\nline",
                          "tab\there"}) {
    SweepRecord rec = distinctive_record();
    rec.workload = bad;
    std::string out;
    EXPECT_THROW(append_csv_row(out, rec), std::invalid_argument) << bad;
    EXPECT_THROW((void)record_json_line(rec), std::invalid_argument) << bad;
  }
}

TEST(RecordCodec, CsvSinkRejectsAComma) {
  const std::string path = "record_codec_comma.tmp.csv";
  {
    CsvSink sink(path);
    SweepRecord rec = distinctive_record();
    sink.write(rec);
    rec.protocol = "eager,rendezvous";
    try {
      sink.write(rec);
      ADD_FAILURE() << "a comma in a text column must be rejected";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("'eager,rendezvous'"),
                std::string::npos)
          << e.what();
    }
  }
  // Header plus the one good row: the rejected row left no partial bytes.
  std::ifstream in(path);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    EXPECT_EQ(line.find("eager,rendezvous"), std::string::npos);
    ++lines;
  }
  EXPECT_EQ(lines, 2);
  std::remove(path.c_str());
}

TEST(RecordCodec, TypedEqualityAndPrintedNumbers) {
  const SweepRecord a = distinctive_record();
  SweepRecord b = a;
  const std::size_t cycle = *column_index("cycle_us");
  // Equal at the 12 printed digits, so equal as sinks see them.
  b.cycle_us = a.cycle_us + 1e-10;
  EXPECT_TRUE(column_equal(a, b, cycle));
  EXPECT_DOUBLE_EQ(column_number(b, cycle), 3322.75);
  b.cycle_us = -0.0;
  SweepRecord zero = a;
  zero.cycle_us = 0.0;
  EXPECT_FALSE(column_equal(zero, b, cycle));  // "0" vs "-0"
  const std::size_t protocol = *column_index("protocol");
  EXPECT_TRUE(column_equal(a, b, protocol));
  b.protocol = "eager";
  EXPECT_FALSE(column_equal(a, b, protocol));
  EXPECT_THROW((void)column_number(a, protocol), std::invalid_argument);
  EXPECT_EQ(column_number(a, *column_index("seed")),
            static_cast<double>(a.seed));
}

}  // namespace
}  // namespace iw::sweep
