// Tests for the sharded campaign runner and the structured result sinks:
// thread-count invariance (byte-identical CSV/JSONL), in-order streaming,
// cancellation without loss of completed records, runners recycled across
// campaigns, the calling thread as a campaign's first worker, and record
// reduction.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sweep/record.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"

namespace iw::sweep {
namespace {

/// A small but non-trivial campaign: 12 points over three axes, cheap
/// enough that the full suite stays fast.
SweepSpec tiny_campaign() {
  SweepSpec spec;
  spec.delay_ms = {6, 12};
  spec.msg_bytes = {8192, 262144};
  spec.noise_E_percent = {0, 10};
  spec.np = {8};
  spec.steps = 8;
  return spec;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Records indices in arrival order (the runner serializes write() calls).
class IndexSink final : public RecordSink {
 public:
  void write(const SweepRecord& rec) override {
    indices.push_back(rec.index);
  }
  std::vector<std::uint64_t> indices;
};

TEST(SweepRunner, EightThreadsProduceByteIdenticalCsvAndJsonl) {
  const auto points = expand(tiny_campaign());
  const std::string csv1 = "sweep_t1.tmp.csv", csv8 = "sweep_t8.tmp.csv";
  const std::string jl1 = "sweep_t1.tmp.jsonl", jl8 = "sweep_t8.tmp.jsonl";

  for (const int threads : {1, 8}) {
    CsvSink csv(threads == 1 ? csv1 : csv8);
    JsonlSink jsonl(threads == 1 ? jl1 : jl8);
    RunnerOptions options;
    options.threads = threads;
    options.sinks = {&csv, &jsonl};
    const CampaignResult result = run_campaign(points, options);
    EXPECT_EQ(result.records.size(), points.size());
    EXPECT_FALSE(result.cancelled);
  }

  const std::string a = slurp(csv1), b = slurp(csv8);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  const std::string c = slurp(jl1), d = slurp(jl8);
  EXPECT_FALSE(c.empty());
  EXPECT_EQ(c, d);
  for (const auto& path : {csv1, csv8, jl1, jl8}) std::remove(path.c_str());
}

TEST(SweepRunner, RecordsArriveAtSinksInPointOrder) {
  const auto points = expand(tiny_campaign());
  IndexSink sink;
  RunnerOptions options;
  options.threads = 8;
  options.sinks = {&sink};
  const CampaignResult result = run_campaign(points, options);
  ASSERT_EQ(sink.indices.size(), points.size());
  for (std::size_t i = 0; i < sink.indices.size(); ++i)
    EXPECT_EQ(sink.indices[i], i);
  for (std::size_t i = 0; i < result.records.size(); ++i)
    EXPECT_EQ(result.records[i].index, i);
}

TEST(SweepRunner, ProgressReportsEveryCompletionUpToTotal) {
  const auto points = expand(tiny_campaign());
  std::vector<std::size_t> seen;
  RunnerOptions options;
  options.threads = 3;
  options.on_progress = [&seen, &points](std::size_t done, std::size_t total) {
    EXPECT_EQ(total, points.size());
    seen.push_back(done);
  };
  (void)run_campaign(points, options);
  ASSERT_EQ(seen.size(), points.size());
  // Completion counts are strictly increasing and end at the total.
  for (std::size_t i = 1; i < seen.size(); ++i) EXPECT_GT(seen[i], seen[i - 1]);
  EXPECT_EQ(seen.back(), points.size());
}

TEST(SweepRunner, CancellationKeepsEveryCompletedRecord) {
  const auto points = expand(tiny_campaign());

  // Reference: the full run, for comparing per-point content.
  const CampaignResult full = run_campaign(points, RunnerOptions{});
  ASSERT_EQ(full.records.size(), points.size());

  std::atomic<bool> cancel{false};
  IndexSink sink;
  RunnerOptions options;
  options.threads = 2;
  options.cancel = &cancel;
  options.sinks = {&sink};
  options.on_progress = [&cancel](std::size_t done, std::size_t) {
    if (done >= 5) cancel.store(true);
  };
  const CampaignResult result = run_campaign(points, options);

  EXPECT_TRUE(result.cancelled);
  EXPECT_GE(result.records.size(), 5u);
  EXPECT_LT(result.records.size(), points.size());
  // Every completed record reached the sink, in ascending order, and its
  // content matches the uncancelled run of the same point bit-for-bit.
  ASSERT_EQ(sink.indices.size(), result.records.size());
  for (std::size_t i = 0; i < result.records.size(); ++i) {
    EXPECT_EQ(sink.indices[i], result.records[i].index);
    if (i > 0) {
      EXPECT_GT(result.records[i].index, result.records[i - 1].index);
    }
    const SweepRecord& got = result.records[i];
    const SweepRecord& want = full.records[got.index];
    EXPECT_EQ(record_json_line(got), record_json_line(want));
  }
}

TEST(SweepRunner, FailedPointRethrowsAndOnlyPrefixReachesSinks) {
  auto points = expand(tiny_campaign());
  // Poison point 2: a delay rank outside the ring makes build_ring throw.
  points[2].exp.delays.front().rank = 999;

  IndexSink sink;
  RunnerOptions options;
  options.threads = 4;
  options.sinks = {&sink};
  EXPECT_THROW((void)run_campaign(points, options), std::invalid_argument);
  // The sinks saw an untruncated prefix: nothing past the poisoned index.
  for (std::size_t i = 0; i < sink.indices.size(); ++i) {
    EXPECT_EQ(sink.indices[i], i);
    EXPECT_LT(sink.indices[i], 2u);
  }
}

TEST(SweepRunner, PreCancelledCampaignCompletesNothing) {
  const auto points = expand(tiny_campaign());
  std::atomic<bool> cancel{true};
  RunnerOptions options;
  options.threads = 4;
  options.cancel = &cancel;
  const CampaignResult result = run_campaign(points, options);
  EXPECT_TRUE(result.cancelled);
  EXPECT_TRUE(result.records.empty());
  EXPECT_EQ(result.total_points, points.size());
}

TEST(SweepRunner, ThreadCountInvarianceHoldsForGridCampaigns) {
  SweepSpec spec;
  spec.workload = Workload::grid2d;
  spec.delay_ms = {10};
  spec.np = {25};
  spec.steps = 10;
  const auto points = expand(spec);

  RunnerOptions opt1, opt4;
  opt4.threads = 4;
  const auto r1 = run_campaign(points, opt1);
  const auto r4 = run_campaign(points, opt4);
  ASSERT_EQ(r1.records.size(), r4.records.size());
  for (std::size_t i = 0; i < r1.records.size(); ++i)
    EXPECT_EQ(record_json_line(r1.records[i]), record_json_line(r4.records[i]));
}

TEST(SweepRunner, ReusedClusterMatchesFreshClustersByteForByte) {
  // The determinism guard for the cluster-reuse fast path: one WaveRunner
  // recycling its Cluster across consecutive points must produce CSV output
  // byte-identical to a fresh Cluster per point. Axes change np and message
  // size between points, so the reset path re-shapes every pool.
  SweepSpec spec;
  spec.delay_ms = {6, 12, 24};
  spec.msg_bytes = {8192, 262144};
  spec.np = {8, 12};
  spec.steps = 8;
  const auto points = expand(spec);
  ASSERT_GE(points.size(), 3u);

  const std::string fresh_csv = "sweep_fresh.tmp.csv";
  const std::string reused_csv = "sweep_reused.tmp.csv";
  {
    CsvSink sink(fresh_csv);
    for (const SweepPoint& p : points)
      sink.write(reduce(p, core::run_wave_experiment(p.exp)));
  }
  {
    CsvSink sink(reused_csv);
    core::WaveRunner lab;
    for (const SweepPoint& p : points) sink.write(reduce(p, lab.run(p.exp)));
  }
  const std::string a = slurp(fresh_csv), b = slurp(reused_csv);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  for (const auto& path : {fresh_csv, reused_csv}) std::remove(path.c_str());
}

/// A campaign led by a fast-forward point of 4096 ranks, then small ones:
/// the runner that served it goes back to the idle list with its large
/// pools and serves the next campaign's points.
SweepSpec ffwd_campaign() {
  SweepSpec spec;
  spec.delay_ms = {12};
  spec.np = {4096, 64};
  spec.ppn = {2};
  spec.switch_nodes = {8};
  spec.steps = 10;
  spec.system_noise = "none";
  spec.ffwd = "force";
  return spec;
}

/// Every record of `result` equals the one a fresh run_wave_experiment()
/// of its point gives, byte for byte.
void expect_matches_fresh_runs(const CampaignResult& result,
                               const std::vector<SweepPoint>& points,
                               const std::string& where) {
  ASSERT_EQ(result.records.size(), points.size()) << where;
  for (std::size_t i = 0; i < points.size(); ++i)
    EXPECT_EQ(record_json_line(result.records[i]),
              record_json_line(
                  reduce(points[i], core::run_wave_experiment(points[i].exp))))
        << where << " point " << i;
}

// Campaign workers take their runners from one process-wide idle list, so
// consecutive campaigns recycle clusters across calls: a 4096-rank
// fast-forward campaign, a small one on the same runner, then the large
// one again on the shrunk runner.
TEST(SweepRunner, BackToBackCampaignsRecycleRunners) {
  const auto large = expand(ffwd_campaign());
  ASSERT_EQ(large.front().exp.ring.ranks, 4096);
  const auto small = expand(tiny_campaign());
  RunnerOptions options;
  options.threads = 1;
  expect_matches_fresh_runs(run_campaign(large, options), large, "large");
  expect_matches_fresh_runs(run_campaign(small, options), small, "small");
  expect_matches_fresh_runs(run_campaign(large, options), large,
                            "large again");
}

// Two 2-worker campaigns at once share the idle list; under TSan this is
// where taking and returning runners contend.
TEST(SweepRunner, ConcurrentCampaignsShareTheIdleList) {
  SweepSpec grid;
  grid.workload = Workload::grid2d;
  grid.delay_ms = {10};
  grid.msg_bytes = {8192, 262144};
  grid.np = {16, 25};
  grid.steps = 8;
  const std::vector<SweepPoint> campaigns[] = {expand(tiny_campaign()),
                                               expand(grid)};
  CampaignResult results[2];
  {
    std::vector<std::thread> callers;
    for (int c = 0; c < 2; ++c)
      callers.emplace_back([&campaigns, &results, c] {
        RunnerOptions options;
        options.threads = 2;
        results[c] = run_campaign(campaigns[c], options);
      });
    for (std::thread& t : callers) t.join();
  }
  expect_matches_fresh_runs(results[0], campaigns[0], "ring campaign");
  expect_matches_fresh_runs(results[1], campaigns[1], "grid campaign");
}

// A worker whose point threw drops its runner; the next campaign still
// matches fresh clusters.
TEST(SweepRunner, CleanCampaignAfterAFailedOneMatchesFreshRuns) {
  auto poisoned = expand(tiny_campaign());
  poisoned[1].exp.delays.front().rank = 999;
  RunnerOptions options;
  options.threads = 2;
  EXPECT_THROW((void)run_campaign(poisoned, options), std::invalid_argument);
  const auto clean = expand(tiny_campaign());
  expect_matches_fresh_runs(run_campaign(clean, options), clean, "clean");
}

/// Records the thread of every write() (the runner serializes them).
class ThreadSink final : public RecordSink {
 public:
  void write(const SweepRecord&) override {
    threads.push_back(std::this_thread::get_id());
  }
  std::vector<std::thread::id> threads;
};

// The calling thread is worker 0, so a 1-thread campaign starts no thread:
// every point, progress callback and sink write runs on the caller.
TEST(SweepRunner, OneThreadCampaignRunsOnTheCallingThread) {
  const auto points = expand(tiny_campaign());
  const std::thread::id caller = std::this_thread::get_id();
  ThreadSink sink;
  std::vector<std::thread::id> progress;
  RunnerOptions options;
  options.threads = 1;
  options.sinks = {&sink};
  options.on_progress = [&progress](std::size_t, std::size_t) {
    progress.push_back(std::this_thread::get_id());
  };
  const CampaignResult result = run_campaign(points, options);
  ASSERT_EQ(result.records.size(), points.size());
  ASSERT_EQ(sink.threads.size(), points.size());
  ASSERT_EQ(progress.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(sink.threads[i], caller) << "write " << i;
    EXPECT_EQ(progress[i], caller) << "progress " << i;
  }
}

// The 1-thread twin of the test above it: the caller's own point throws,
// the exception leaves run_campaign, the sinks hold exactly the points
// before it, and the caller's next campaign matches fresh runs.
TEST(SweepRunner, CleanCampaignAfterAFailedOneOnTheCallingThread) {
  auto poisoned = expand(tiny_campaign());
  poisoned[2].exp.delays.front().rank = 999;
  IndexSink sink;
  RunnerOptions options;
  options.threads = 1;
  options.sinks = {&sink};
  EXPECT_THROW((void)run_campaign(poisoned, options), std::invalid_argument);
  EXPECT_EQ(sink.indices, (std::vector<std::uint64_t>{0, 1}));
  options.sinks.clear();
  const auto clean = expand(tiny_campaign());
  expect_matches_fresh_runs(run_campaign(clean, options), clean, "clean");
}

TEST(SweepRecord, ReduceCarriesAxesAndObservables) {
  SweepSpec spec = tiny_campaign();
  spec.delay_ms = {12};
  spec.msg_bytes = {262144};  // above the 128 KiB limit -> rendezvous
  spec.noise_E_percent = {0};
  const auto points = expand(spec);
  ASSERT_EQ(points.size(), 1u);
  const CampaignResult result = run_campaign(points, RunnerOptions{});
  ASSERT_EQ(result.records.size(), 1u);
  const SweepRecord& rec = result.records.front();
  EXPECT_EQ(rec.protocol, "rendezvous");
  EXPECT_EQ(rec.np, 8);
  EXPECT_DOUBLE_EQ(rec.delay_ms, 12.0);
  EXPECT_GT(rec.v_up_ranks_per_sec, 0.0);
  EXPECT_GT(rec.events_processed, 0u);
  EXPECT_GT(rec.makespan_ms, 0.0);
  EXPECT_GT(rec.cycle_us, 0.0);
}

TEST(SweepRecord, SummaryRendersPerProtocolRows) {
  const auto result = run_campaign(expand(tiny_campaign()), RunnerOptions{});
  const std::string summary = render_summary(result.records);
  EXPECT_NE(summary.find("eager"), std::string::npos);
  EXPECT_NE(summary.find("rendezvous"), std::string::npos);
}

}  // namespace
}  // namespace iw::sweep
