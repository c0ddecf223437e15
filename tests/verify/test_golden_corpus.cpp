// The checked-in golden corpus itself: every catalog scenario has a valid,
// physics-consistent corpus, quick subsets are well-formed, and the full
// verify pipeline passes end-to-end against the real goldens — including
// failing loudly when a golden field is perturbed on disk.
//
// IW_GOLDEN_DIR points at tests/golden in the source tree (set in
// tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "sweep/scenario.hpp"
#include "verify/oracle.hpp"
#include "verify/verify.hpp"

namespace iw::verify {
namespace {

namespace fs = std::filesystem;

TEST(GoldenCorpus, EveryScenarioHasAFullValidCorpus) {
  for (const sweep::Scenario& s : sweep::scenario_catalog()) {
    const GoldenCorpus corpus =
        load_golden(golden_path(IW_GOLDEN_DIR, s.name));
    EXPECT_EQ(corpus.scenario, s.name);
    EXPECT_EQ(corpus.records.size(), s.spec.points())
        << s.name << ": corpus must hold the full campaign";
  }
}

TEST(GoldenCorpus, CodecRewritesEveryRowByteForByte) {
  // Every golden row, parsed and written back through the record codec,
  // must reproduce the file's bytes: the codec prints exactly what the
  // goldens were written with.
  std::size_t rows = 0;
  for (const sweep::Scenario& s : sweep::scenario_catalog()) {
    const std::string path = golden_path(IW_GOLDEN_DIR, s.name);
    const GoldenCorpus corpus = load_golden(path);
    std::ifstream in(path);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));  // "# iw-golden ..." header
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, sweep::csv_header()) << s.name;
    for (const sweep::SweepRecord& rec : corpus.records) {
      ASSERT_TRUE(std::getline(in, line)) << s.name;
      std::string written;
      sweep::append_csv_row(written, rec);
      EXPECT_EQ(written, line) << s.name << " index " << rec.index;
      ++rows;
    }
  }
  EXPECT_GT(rows, 0u);
}

TEST(GoldenCorpus, QuickSubsetsAreNonEmptyAndInRange) {
  for (const sweep::Scenario& s : sweep::scenario_catalog()) {
    EXPECT_FALSE(s.quick_subset.empty())
        << s.name << ": CI quick mode would silently run the full campaign";
    for (const std::size_t index : s.quick_subset)
      EXPECT_LT(index, s.spec.points()) << s.name;
  }
}

TEST(GoldenCorpus, StoredRecordsSatisfyTheOracles) {
  // The corpus must obey the analytic model without re-simulation: a stale
  // or hand-edited golden that violates physics is caught here, in tier-1.
  for (const sweep::Scenario& s : sweep::scenario_catalog()) {
    const GoldenCorpus corpus =
        load_golden(golden_path(IW_GOLDEN_DIR, s.name));
    const OracleReport report = check_oracles(s, corpus.records);
    EXPECT_TRUE(report.clean())
        << s.name << ": " +
               (report.violations.empty()
                    ? std::string{}
                    : report.violations[0].check + "/" +
                          report.violations[0].column + ": " +
                          report.violations[0].detail);
  }
}

TEST(GoldenCorpus, QuickVerifyWithSelfCheckPassesEndToEnd) {
  const sweep::Scenario* s = sweep::find_scenario("decay_vs_size");
  ASSERT_NE(s, nullptr);
  VerifyOptions options;
  options.golden_dir = IW_GOLDEN_DIR;
  options.quick = true;
  options.self_check = true;
  const ScenarioVerdict verdict = verify_scenario(*s, options);
  EXPECT_TRUE(verdict.error.empty()) << verdict.error;
  EXPECT_TRUE(verdict.diff.clean());
  EXPECT_TRUE(verdict.oracle.clean());
  ASSERT_EQ(verdict.mutations.size(), 4u);
  for (const MutationOutcome& m : verdict.mutations)
    EXPECT_TRUE(m.caught) << m.detail;
  EXPECT_TRUE(verdict.pass());
}

TEST(GoldenCorpus, PerturbedGoldenOnDiskFailsWithNamedField) {
  const sweep::Scenario* s = sweep::find_scenario("ppn_contrast");
  ASSERT_NE(s, nullptr);
  GoldenCorpus corpus = load_golden(golden_path(IW_GOLDEN_DIR, s->name));
  ASSERT_FALSE(corpus.records.empty());

  // Perturb one observable of one record and write the tampered corpus to
  // a scratch dir: verification against it must fail, naming the field.
  const std::uint64_t victim = corpus.records[1].index;
  corpus.records[1].cycle_us *= 1.01;
  const fs::path dir = fs::path("golden_corpus_tampered");
  fs::create_directories(dir);
  write_golden(golden_path(dir.string(), s->name), s->name, corpus.records);

  VerifyOptions options;
  options.golden_dir = dir.string();
  const ScenarioVerdict verdict = verify_scenario(*s, options);
  fs::remove_all(dir);

  EXPECT_TRUE(verdict.error.empty()) << verdict.error;
  EXPECT_FALSE(verdict.pass());
  ASSERT_EQ(verdict.diff.field_diffs.size(), 1u);
  EXPECT_EQ(verdict.diff.field_diffs[0].column, "cycle_us");
  EXPECT_EQ(verdict.diff.field_diffs[0].record_index, victim);
}

}  // namespace
}  // namespace iw::verify
