// Deterministic end-to-end harness for the campaign service, fully
// in-process (no fork/exec, no sockets): tests drive CampaignService
// directly via submit()/pump()/drain() and get the exact protocol lines a
// socket client would read.
//
// The two acceptance certificates of the service live here:
//   (a) a cached replay is BYTE-identical to a fresh compute — the merged
//       JSONL a client assembles from the stream equals a one-shot
//       run_campaign + JsonlSink file of the same campaign;
//   (b) two overlapping campaigns recompute zero shared points.
// Plus the finished-job contract: a job that released its expansion still
// replays exactly what it streamed, however its points were served.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "service/cache.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"
#include "support/json.hpp"
#include "sweep/record.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"

namespace iw::service {
namespace {

/// Small, fast, deterministic campaign: one axis (delay) varies.
sweep::SweepSpec quick_spec(std::vector<double> delays) {
  sweep::SweepSpec spec;
  spec.delay_ms = std::move(delays);
  spec.msg_bytes = {4096};
  spec.np = {6};
  spec.steps = 6;
  spec.texec = milliseconds(1.0);
  spec.system_noise = "none";
  return spec;
}

/// Pumps until the queue drains (bounded; every pump call runs one batch).
void pump_dry(CampaignService& service) {
  for (int i = 0; i < 64; ++i)
    if (!service.pump()) return;
  FAIL() << "service did not drain within 64 batches";
}

/// Splits drained lines into (record lines, control lines).
struct Stream {
  std::vector<std::string> records;
  std::vector<std::string> controls;
};

Stream split(const std::vector<std::string>& lines) {
  Stream s;
  for (const std::string& line : lines)
    (is_record_line(line) ? s.records : s.controls).push_back(line);
  return s;
}

/// One-shot reference: run_campaign + JsonlSink, as sweep_runner does.
std::string one_shot_jsonl(const sweep::SweepSpec& spec, int threads) {
  const std::string path =
      ::testing::TempDir() + "iw_service_oneshot.jsonl";
  {
    sweep::JsonlSink sink(path);
    sweep::RunnerOptions options;
    options.threads = threads;
    options.sinks.push_back(&sink);
    const sweep::CampaignResult result = run_campaign(spec, options);
    EXPECT_EQ(result.records.size(), result.total_points);
  }
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string joined(const std::vector<std::string>& lines) {
  std::string all;
  for (const std::string& line : lines) {
    all += line;
    all += '\n';
  }
  return all;
}

/// The "results" replay of a known job: framed record lines, one per
/// completed point.
std::string replay(const CampaignService& service, std::uint64_t job) {
  std::string framed;
  const std::optional<std::size_t> records =
      service.results_so_far(job, framed);
  EXPECT_TRUE(records.has_value()) << "job " << job;
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(framed.begin(), framed.end(), '\n')),
            records.value_or(0));
  return framed;
}

TEST(ServiceE2E, OverlappingCampaignsShareEveryCommonPoint) {
  obs::MetricsRegistry metrics;
  ServiceOptions options;
  options.threads = 2;
  options.batch_points = 2;
  options.metrics = &metrics;
  CampaignService service(options);

  // Campaign A: delays {6,12}. Campaign B extends the FIRST axis to
  // {6,12,18} with the same campaign seed — first-axis extension preserves
  // the shared points' indices and therefore their fork seeds.
  const SubmitResult a = service.submit("alice", 0, quick_spec({6.0, 12.0}));
  ASSERT_TRUE(a.accepted) << a.message;
  EXPECT_EQ(a.points, 2u);
  EXPECT_EQ(a.cached, 0u);
  pump_dry(service);
  ASSERT_TRUE(service.finished(a.job));

  std::vector<std::string> a_lines;
  ASSERT_TRUE(service.drain(a.job, a_lines));
  const Stream a_stream = split(a_lines);
  ASSERT_EQ(a_stream.records.size(), 2u);
  ASSERT_EQ(a_stream.controls.size(), 1u);

  const SubmitResult b =
      service.submit("bob", 0, quick_spec({6.0, 12.0, 18.0}));
  ASSERT_TRUE(b.accepted);
  EXPECT_EQ(b.points, 3u);
  EXPECT_EQ(b.cached, 2u) << "both shared points must be cache hits";
  pump_dry(service);
  ASSERT_TRUE(service.finished(b.job));

  std::vector<std::string> b_lines;
  ASSERT_TRUE(service.drain(b.job, b_lines));
  const Stream b_stream = split(b_lines);
  ASSERT_EQ(b_stream.records.size(), 3u);
  const json::Value done = json::parse(b_stream.controls.back());
  EXPECT_EQ(done.find("type")->text, "done");
  EXPECT_EQ(done.find("cache_hits")->number, 2.0);
  EXPECT_EQ(done.find("computed")->number, 1.0)
      << "zero shared points may be recomputed";

  // Across both campaigns, exactly 3 distinct points were ever computed.
  EXPECT_EQ(metrics.counter(obs::MetricId::service_points_computed), 3u);
  EXPECT_EQ(metrics.counter(obs::MetricId::service_cache_hits), 2u);
  EXPECT_EQ(service.cache_size(), 3u);

  // Certificate (a): the merged stream B assembled is byte-identical to a
  // one-shot sweep_runner-style run of the same campaign, even though two
  // of its three records were cached replays.
  EXPECT_EQ(joined(b_stream.records),
            one_shot_jsonl(quick_spec({6.0, 12.0, 18.0}), 1));
}

TEST(ServiceE2E, CachedReplayIsByteIdenticalToFreshRun) {
  ServiceOptions options;
  options.threads = 2;
  options.batch_points = 8;
  CampaignService service(options);
  const sweep::SweepSpec spec = quick_spec({6.0, 12.0});

  const SubmitResult first = service.submit("a", 0, spec);
  ASSERT_TRUE(first.accepted);
  pump_dry(service);
  std::vector<std::string> first_lines;
  ASSERT_TRUE(service.drain(first.job, first_lines));

  // Second submission: all points come from the cache — no pump needed,
  // the job finishes inside submit().
  const SubmitResult second = service.submit("a", 0, spec);
  ASSERT_TRUE(second.accepted);
  EXPECT_EQ(second.cached, 2u);
  ASSERT_TRUE(service.finished(second.job));
  std::vector<std::string> second_lines;
  ASSERT_TRUE(service.drain(second.job, second_lines));

  EXPECT_EQ(joined(split(first_lines).records),
            joined(split(second_lines).records));
  EXPECT_EQ(joined(split(second_lines).records), one_shot_jsonl(spec, 1));
}

TEST(ServiceE2E, StreamOrderIsAscendingAndContiguous) {
  ServiceOptions options;
  options.batch_points = 1;  // worst case: one point per decision
  CampaignService service(options);
  const SubmitResult r =
      service.submit("a", 0, quick_spec({3.0, 6.0, 9.0, 12.0}));
  ASSERT_TRUE(r.accepted);
  pump_dry(service);
  std::vector<std::string> lines;
  ASSERT_TRUE(service.drain(r.job, lines));
  const Stream s = split(lines);
  ASSERT_EQ(s.records.size(), 4u);
  for (std::size_t i = 0; i < s.records.size(); ++i) {
    const json::Value rec = json::parse(s.records[i]);
    EXPECT_EQ(rec.find("index")->number, static_cast<double>(i));
  }
}

TEST(ServiceE2E, StatusReportsQueueAndClients) {
  CampaignService service;
  const SubmitResult r = service.submit("carol", 0, quick_spec({6.0, 12.0}));
  ASSERT_TRUE(r.accepted);
  const json::Value before = json::parse(service.status_json());
  EXPECT_EQ(before.find("queue_depth")->number, 2.0);
  EXPECT_EQ(before.find("clients_active")->number, 1.0);
  EXPECT_EQ(before.find("jobs_open")->number, 1.0);
  pump_dry(service);
  const json::Value after = json::parse(service.status_json());
  EXPECT_EQ(after.find("queue_depth")->number, 0.0);
  EXPECT_EQ(after.find("jobs_open")->number, 0.0);
  EXPECT_EQ(after.find("points_computed")->number, 2.0);
}

TEST(ServiceE2E, ResultsReplayMatchesStream) {
  CampaignService service;
  const sweep::SweepSpec spec = quick_spec({6.0, 12.0});
  const SubmitResult r = service.submit("a", 0, spec);
  ASSERT_TRUE(r.accepted);
  pump_dry(service);
  std::vector<std::string> streamed;
  ASSERT_TRUE(service.drain(r.job, streamed));
  EXPECT_EQ(replay(service, r.job), joined(split(streamed).records));
}

// ---------------------------------------------------------------------------
// Finished jobs. A job drops its expanded points and keys when it finishes
// and keeps only its slots and cache value pointers; everything a client can
// still ask of it must read the same from those.
// ---------------------------------------------------------------------------

/// Drains the whole stream of a finished job and checks what it keeps: the
/// `results` replay equals the streamed records byte for byte, a drain after
/// the terminal line yields nothing, and abandoning it (a disconnect)
/// changes nothing. Returns the streamed lines.
std::vector<std::string> expect_finished_job_keeps_its_records(
    CampaignService& service, std::uint64_t job) {
  EXPECT_TRUE(service.finished(job));
  std::vector<std::string> streamed;
  EXPECT_TRUE(service.drain(job, streamed));
  EXPECT_FALSE(streamed.empty());
  if (streamed.empty()) return streamed;
  EXPECT_FALSE(is_record_line(streamed.back()))
      << "the stream ends in its terminal line";

  const std::string replayed = replay(service, job);
  EXPECT_EQ(replayed, joined(split(streamed).records));

  std::vector<std::string> after;
  EXPECT_TRUE(service.drain(job, after));
  EXPECT_TRUE(after.empty()) << "nothing follows the terminal line";

  const std::string status = service.status_json();
  service.abandon(job);
  EXPECT_FALSE(service.cancel(job));
  EXPECT_TRUE(service.finished(job));
  EXPECT_TRUE(service.drain(job, after));
  EXPECT_TRUE(after.empty());
  EXPECT_EQ(replay(service, job), replayed);
  EXPECT_EQ(service.status_json(), status);
  return streamed;
}

TEST(ServiceFinishedJob, ComputedJobReplaysItsStream) {
  ServiceOptions options;
  options.batch_points = 1;
  CampaignService service(options);
  const sweep::SweepSpec spec = quick_spec({3.0, 6.0, 9.0});
  const SubmitResult r = service.submit("a", 0, spec);
  ASSERT_TRUE(r.accepted);
  pump_dry(service);
  const std::vector<std::string> streamed =
      expect_finished_job_keeps_its_records(service, r.job);
  EXPECT_EQ(joined(split(streamed).records), one_shot_jsonl(spec, 1));
}

TEST(ServiceFinishedJob, JobCachedAtSubmitReplaysItsStream) {
  CampaignService service;
  const sweep::SweepSpec spec = quick_spec({3.0, 6.0, 9.0});
  const SubmitResult first = service.submit("a", 0, spec);
  ASSERT_TRUE(first.accepted);
  pump_dry(service);
  const SubmitResult cached = service.submit("b", 0, spec);
  ASSERT_TRUE(cached.accepted);
  EXPECT_EQ(cached.cached, 3u);
  const std::vector<std::string> streamed =
      expect_finished_job_keeps_its_records(service, cached.job);
  EXPECT_EQ(joined(split(streamed).records), one_shot_jsonl(spec, 1));
}

TEST(ServiceFinishedJob, WaiterFilledByAnotherBatchReplaysItsStream) {
  ServiceOptions options;
  options.batch_points = 2;
  CampaignService service(options);
  // b extends a's first axis: its first two points wait on a's batches.
  const SubmitResult a = service.submit("a", 0, quick_spec({6.0, 12.0}));
  const SubmitResult b = service.submit("b", 0, quick_spec({6.0, 12.0, 18.0}));
  ASSERT_TRUE(a.accepted);
  ASSERT_TRUE(b.accepted);
  EXPECT_EQ(b.cached, 0u);
  pump_dry(service);
  expect_finished_job_keeps_its_records(service, a.job);
  const std::vector<std::string> streamed =
      expect_finished_job_keeps_its_records(service, b.job);
  const json::Value done = json::parse(streamed.back());
  EXPECT_EQ(done.find("cache_hits")->number, 2.0) << "both waiters filled";
  EXPECT_EQ(done.find("computed")->number, 1.0);
  EXPECT_EQ(joined(split(streamed).records),
            one_shot_jsonl(quick_spec({6.0, 12.0, 18.0}), 1));
}

struct CancelHook {
  CampaignService* service = nullptr;
  std::atomic<std::uint64_t> job{0};
};

void cancel_after_first_point(void* opaque, std::uint64_t job,
                              std::size_t done_in_batch) {
  auto* hook = static_cast<CancelHook*>(opaque);
  if (job == hook->job.load() && done_in_batch >= 1) {
    hook->job.store(0);
    hook->service->cancel(job);
  }
}

TEST(ServiceFinishedJob, JobCancelledMidBatchReplaysItsPartialStream) {
  CancelHook hook;
  ServiceOptions options;
  options.threads = 1;  // sequential points: the cancel lands mid-batch
  options.batch_points = 8;
  options.on_batch_point = &cancel_after_first_point;
  options.on_batch_ctx = &hook;
  CampaignService service(options);
  hook.service = &service;
  const SubmitResult r =
      service.submit("a", 0, quick_spec({3.0, 6.0, 9.0, 12.0}));
  ASSERT_TRUE(r.accepted);
  hook.job.store(r.job);
  pump_dry(service);
  const std::vector<std::string> streamed =
      expect_finished_job_keeps_its_records(service, r.job);
  const std::size_t partial = split(streamed).records.size();
  EXPECT_GE(partial, 1u);
  EXPECT_LT(partial, 4u);
  EXPECT_EQ(json::parse(streamed.back()).find("type")->text, "cancelled");
}

void record_hook_thread(void* opaque, std::uint64_t, std::size_t) {
  static_cast<std::vector<std::thread::id>*>(opaque)->push_back(
      std::this_thread::get_id());
}

// At threads = 1 the pumping thread is the batch's only worker: every
// on_batch_point call runs on it, and no thread is started per batch.
TEST(ServiceThreads, OneThreadBatchRunsOnThePumpingThread) {
  std::vector<std::thread::id> hook_threads;
  ServiceOptions options;
  options.threads = 1;
  options.batch_points = 8;
  options.on_batch_point = &record_hook_thread;
  options.on_batch_ctx = &hook_threads;
  CampaignService service(options);
  ASSERT_TRUE(service.submit("a", 0, quick_spec({3.0, 6.0, 9.0})).accepted);
  ASSERT_TRUE(service.pump());
  EXPECT_FALSE(service.pump());
  ASSERT_EQ(hook_threads.size(), 3u);
  for (const std::thread::id id : hook_threads)
    EXPECT_EQ(id, std::this_thread::get_id());
}

TEST(ServiceStatus, JobsOpenFollowsSubmitCancelAbandonAndFinish) {
  CampaignService service;
  const auto jobs_open = [&service] {
    return json::parse(service.status_json()).find("jobs_open")->number;
  };
  const sweep::SweepSpec spec = quick_spec({6.0, 12.0});
  const SubmitResult a = service.submit("a", 0, spec);
  EXPECT_EQ(jobs_open(), 1.0);
  const SubmitResult b = service.submit("b", 0, quick_spec({18.0}));
  const SubmitResult c = service.submit("c", 0, quick_spec({24.0}));
  EXPECT_EQ(jobs_open(), 3.0);
  EXPECT_TRUE(service.cancel(b.job));
  EXPECT_EQ(jobs_open(), 2.0);
  service.abandon(c.job);
  EXPECT_EQ(jobs_open(), 1.0);
  pump_dry(service);
  ASSERT_TRUE(service.finished(a.job));
  EXPECT_EQ(jobs_open(), 0.0);
  // Finished at submit (fully cached), then acted on again once finished.
  const SubmitResult d = service.submit("d", 0, spec);
  ASSERT_TRUE(service.finished(d.job));
  EXPECT_EQ(jobs_open(), 0.0);
  EXPECT_FALSE(service.cancel(b.job));
  service.abandon(a.job);
  service.abandon(d.job);
  EXPECT_EQ(jobs_open(), 0.0);
}

TEST(ServiceStatus, CacheBytesCountKeysAndValues) {
  obs::MetricsRegistry metrics;
  ServiceOptions options;
  options.metrics = &metrics;
  CampaignService service(options);
  const auto cache_bytes = [&service] {
    return json::parse(service.status_json()).find("cache_bytes")->number;
  };
  EXPECT_EQ(cache_bytes(), 0.0);
  const sweep::SweepSpec spec = quick_spec({6.0, 12.0});
  const SubmitResult r = service.submit("a", 0, spec);
  ASSERT_TRUE(r.accepted);
  pump_dry(service);
  // Each point stores its packed key and its record values (the CSV row
  // without its index cell).
  const sweep::CampaignResult fresh = sweep::run_campaign(spec, sweep::RunnerOptions{});
  ASSERT_EQ(fresh.records.size(), 2u);
  std::size_t expected = 0;
  const std::vector<sweep::SweepPoint> points = sweep::expand(spec);
  for (std::size_t i = 0; i < points.size(); ++i) {
    std::string values;
    sweep::append_record_values(values, fresh.records[i]);
    expected += canonical_point_key(spec, points[i]).size() + values.size();
  }
  EXPECT_EQ(cache_bytes(), static_cast<double>(expected));
  EXPECT_EQ(metrics.gauge(obs::MetricId::service_cache_bytes),
            static_cast<double>(expected));
  // A cached re-submit stores nothing.
  ASSERT_TRUE(service.submit("b", 0, spec).accepted);
  EXPECT_EQ(cache_bytes(), static_cast<double>(expected));
}

}  // namespace
}  // namespace iw::service
