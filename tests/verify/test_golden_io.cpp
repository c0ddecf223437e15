// Golden-corpus file format: write/load round trip and header validation.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include "verify/golden.hpp"

namespace iw::verify {
namespace {

sweep::SweepRecord sample_record(std::uint64_t index) {
  sweep::SweepRecord rec;
  rec.index = index;
  rec.delay_ms = 12.5;
  rec.msg_bytes = 16384;
  rec.np = 18;
  rec.ppn = 1;
  rec.noise_E_percent = 5.0;
  rec.workload = "ring";
  rec.direction = "bidirectional";
  rec.boundary = "periodic";
  rec.seed = 18446744073709551615ull;  // u64 max must survive the trip
  rec.protocol = "eager";
  rec.v_up_ranks_per_sec = 331.25;
  rec.v_down_ranks_per_sec = 0.0;
  rec.v_eq2_ranks_per_sec = 333.0;
  rec.decay_up_us_per_rank = 86.8158333333;
  rec.survival_up_hops = 9;
  rec.survival_down_hops = 0;
  rec.front_r2_up = 0.999708739501;
  rec.front_rmse_up_us = 148.243373133;
  rec.cycle_us = 3322.661;
  rec.makespan_ms = 86.170258;
  rec.events_processed = 1941;
  rec.peak_events_pending = 22;
  return rec;
}

/// Self-deleting temp path inside the test's working directory.
struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name) : path(name) {}
  ~TempFile() { std::remove(path.c_str()); }
};

TEST(GoldenIo, WriteLoadRoundTrip) {
  TempFile file("golden_io_roundtrip.csv");
  const std::vector<sweep::SweepRecord> records = {sample_record(0),
                                                   sample_record(1)};
  write_golden(file.path, "unit_test", records);

  const GoldenCorpus corpus = load_golden(file.path);
  EXPECT_EQ(corpus.schema_version, kGoldenSchemaVersion);
  EXPECT_EQ(corpus.scenario, "unit_test");
  ASSERT_EQ(corpus.records.size(), 2u);
  // Every column must survive the trip textually.
  for (std::size_t r = 0; r < records.size(); ++r)
    for (std::size_t c = 0; c < sweep::record_schema().size(); ++c)
      EXPECT_EQ(sweep::column_value(corpus.records[r], c),
                sweep::column_value(records[r], c))
          << "row " << r << " column " << sweep::record_schema()[c].name;
}

TEST(GoldenIo, WriteRejectsACommaAndWritesNothing) {
  TempFile file("golden_io_comma.csv");
  std::vector<sweep::SweepRecord> records = {sample_record(0),
                                             sample_record(1)};
  records[1].direction = "up,down";
  try {
    write_golden(file.path, "unit_test", records);
    FAIL() << "a comma in a text column must be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("'up,down'"), std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(std::ifstream(file.path).good());
}

TEST(GoldenIo, MissingFileThrows) {
  EXPECT_THROW(load_golden("does_not_exist_anywhere.csv"),
               std::runtime_error);
}

TEST(GoldenIo, RejectsMissingMagic) {
  TempFile file("golden_io_nomagic.csv");
  std::ofstream(file.path) << "index,delay_ms\n0,1\n";
  EXPECT_THROW(load_golden(file.path), std::runtime_error);
}

TEST(GoldenIo, RejectsWrongSchemaVersion) {
  TempFile file("golden_io_version.csv");
  write_golden(file.path, "v", {sample_record(0)});
  // Rewrite the header with a bumped version, keeping the rest.
  std::ifstream in(file.path);
  std::string line, rest;
  std::getline(in, line);
  for (std::string l; std::getline(in, l);) rest += l + "\n";
  in.close();
  std::ofstream(file.path) << "# iw-golden schema=99 scenario=v points=1\n"
                           << rest;
  EXPECT_THROW(load_golden(file.path), std::runtime_error);
}

TEST(GoldenIo, RejectsColumnDrift) {
  TempFile file("golden_io_drift.csv");
  write_golden(file.path, "v", {sample_record(0)});
  std::ifstream in(file.path);
  std::string header, columns, rest;
  std::getline(in, header);
  std::getline(in, columns);
  for (std::string l; std::getline(in, l);) rest += l + "\n";
  in.close();
  // Rename one column: positional reinterpretation must be refused.
  columns.replace(columns.find("delay_ms"), 8, "delay_xx");
  std::ofstream(file.path) << header << "\n" << columns << "\n" << rest;
  EXPECT_THROW(load_golden(file.path), std::runtime_error);
}

TEST(GoldenIo, RejectsPointCountMismatch) {
  TempFile file("golden_io_count.csv");
  write_golden(file.path, "v", {sample_record(0), sample_record(1)});
  // Drop the last data row without fixing the header.
  std::ifstream in(file.path);
  std::vector<std::string> lines;
  for (std::string l; std::getline(in, l);) lines.push_back(l);
  in.close();
  std::ofstream out(file.path);
  for (std::size_t i = 0; i + 1 < lines.size(); ++i) out << lines[i] << "\n";
  out.close();
  EXPECT_THROW(load_golden(file.path), std::runtime_error);
}

TEST(GoldenIo, RejectsMalformedRow) {
  TempFile file("golden_io_badrow.csv");
  write_golden(file.path, "v", {sample_record(0)});
  std::ifstream in(file.path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  // Corrupt the np field of the data row (third CSV field).
  const std::size_t row_start = content.find("\n", content.find("\n") + 1) + 1;
  std::string row = content.substr(row_start);
  row.replace(row.find("18"), 2, "xx");
  std::ofstream(file.path) << content.substr(0, row_start) << row;
  EXPECT_THROW(load_golden(file.path), std::runtime_error);
}

}  // namespace
}  // namespace iw::verify
