// Column-drift guard and codec pins: the typed record schema, the column
// names and the CSV header must agree in size, order and names, and
// serialization must round-trip — so a new SweepRecord field cannot ship
// half-serialized (present in the struct, missing from sinks/goldens, or
// vice versa). The codec tests pin the exact bytes of a JSON line, the
// %.12g number format, the replay of stored values under any index and the
// bare-token rule.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "support/csv.hpp"
#include "support/rng.hpp"
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
  // A point's values are stored once and replayed under any index: the
  // index field's digit count must not disturb a byte of the rest.
  SweepRecord rec = distinctive_record();
  const std::pair<std::uint64_t, std::uint64_t> cases[] = {
      {9, 10}, {0, 123456}, {123456, 0}, {7, 18446744073709551615ull}};
  for (const auto& [from, to] : cases) {
    rec.index = from;
    std::string values;
    append_record_values(values, rec);
    rec.index = to;
    std::string line;
    append_json_from_values(line, values, to);
    EXPECT_EQ(line, record_json_line(rec)) << from << " -> " << to;
  }
  std::string values;
  append_record_values(values, rec);
  std::string out;
  // One field short, one too many.
  EXPECT_THROW(append_json_from_values(
                   out, values.substr(0, values.rfind(',')), 3),
               std::invalid_argument);
  EXPECT_THROW(append_json_from_values(out, values + ",0", 3),
               std::invalid_argument);
  EXPECT_THROW(append_json_from_values(out, "", 3), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Stored values replay as the sink's JSON line: 300 seeded random records,
// every column drawn from extreme integers, special doubles and random text.
// ---------------------------------------------------------------------------

void randomize(Rng& rng, std::uint64_t& v) {
  const std::uint64_t picks[] = {0, 1, 9, 10,
                                 std::numeric_limits<std::uint64_t>::max(),
                                 rng.next_u64()};
  v = picks[rng.uniform_below(std::size(picks))];
}

void randomize(Rng& rng, std::int64_t& v) {
  const std::int64_t picks[] = {0, -1, std::numeric_limits<std::int64_t>::min(),
                                std::numeric_limits<std::int64_t>::max(),
                                static_cast<std::int64_t>(rng.next_u64())};
  v = picks[rng.uniform_below(std::size(picks))];
}

void randomize(Rng& rng, int& v) {
  const int picks[] = {0, -1, std::numeric_limits<int>::min(),
                       std::numeric_limits<int>::max(),
                       static_cast<int>(rng.next_u64())};
  v = picks[rng.uniform_below(std::size(picks))];
}

void randomize(Rng& rng, double& v) {
  const double picks[] = {0.0,
                          -0.0,
                          5e-324,
                          -2.5e-310,
                          1e300,
                          -1e300,
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN(),
                          rng.uniform(-1e6, 1e6),
                          std::bit_cast<double>(rng.next_u64())};
  v = picks[rng.uniform_below(std::size(picks))];
}

void randomize(Rng& rng, std::string& v) {
  // Bare tokens of 0..12 characters, empty included.
  static constexpr char kChars[] = "abz_-.:/09 AZ";
  v.clear();
  const std::size_t n = rng.uniform_below(13);
  for (std::size_t i = 0; i < n; ++i)
    v += kChars[rng.uniform_below(sizeof kChars - 1)];
}

SweepRecord random_record(Rng& rng) {
  SweepRecord rec;
#define IW_RANDOM_AXIS(field, Type, flag, column, default_) \
  randomize(rng, rec.field);
  IW_SWEEP_AXES(IW_RANDOM_AXIS)
#undef IW_RANDOM_AXIS
#define IW_RANDOM_METRIC(field) randomize(rng, rec.field);
  IW_METRIC_COLUMNS(IW_RANDOM_METRIC)
#undef IW_RANDOM_METRIC
  randomize(rng, rec.workload);
  randomize(rng, rec.seed);
  randomize(rng, rec.protocol);
  randomize(rng, rec.v_up_ranks_per_sec);
  randomize(rng, rec.v_down_ranks_per_sec);
  randomize(rng, rec.v_eq2_ranks_per_sec);
  randomize(rng, rec.decay_up_us_per_rank);
  randomize(rng, rec.survival_up_hops);
  randomize(rng, rec.survival_down_hops);
  randomize(rng, rec.front_r2_up);
  randomize(rng, rec.front_rmse_up_us);
  randomize(rng, rec.cycle_us);
  randomize(rng, rec.makespan_ms);
  randomize(rng, rec.eager_demotions);
  randomize(rng, rec.events_processed);
  randomize(rng, rec.peak_events_pending);
  randomize(rng, rec.ffwd_skips);
  randomize(rng, rec.ffwd_time_skipped_us);
  return rec;
}

TEST(RecordCodec, StoredValuesReplayAsTheJsonLine) {
  for (std::uint64_t c = 0; c < 300; ++c) {
    Rng rng(0x5A1E5EEDull + c);
    SweepRecord rec = random_record(rng);
    std::string values;
    append_record_values(values, rec);
    for (const std::uint64_t index :
         {std::uint64_t{0}, std::uint64_t{9}, std::uint64_t{10},
          rng.next_u64(), std::numeric_limits<std::uint64_t>::max()}) {
      rec.index = index;
      std::string line;
      append_json_from_values(line, values, index);
      ASSERT_EQ(line, record_json_line(rec)) << "case " << c;
      // The values are the CSV row without its index cell.
      std::string row;
      append_csv_row(row, rec);
      ASSERT_EQ(row, std::to_string(index) + "," + values) << "case " << c;
    }
  }
  SweepRecord rec = distinctive_record();
  rec.protocol = "eager,rendezvous";
  std::string values;
  EXPECT_THROW(append_record_values(values, rec), std::invalid_argument);
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
