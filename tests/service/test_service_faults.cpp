// Fault-injection tests for the campaign service: admission rejections,
// bad specs, cancellation at an exact point boundary, and client
// disconnects (abandon) before and during a running batch. All
// deterministic — the cancellation tests use the service's on_batch_point
// hook, which fires at completed-point boundaries, not timers.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"
#include "support/json.hpp"
#include "sweep/spec.hpp"

namespace iw::service {
namespace {

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

void pump_dry(CampaignService& service) {
  for (int i = 0; i < 64; ++i)
    if (!service.pump()) return;
  FAIL() << "service did not drain within 64 batches";
}

std::size_t record_count(const std::vector<std::string>& lines) {
  std::size_t n = 0;
  for (const std::string& line : lines)
    if (is_record_line(line)) n += 1;
  return n;
}

/// The drained stream's terminal control line (last line).
json::Value terminal(const std::vector<std::string>& lines) {
  EXPECT_FALSE(lines.empty());
  EXPECT_FALSE(is_record_line(lines.back()));
  return json::parse(lines.back());
}

TEST(ServiceFaults, OverLimitSubmitIsStructuredRejection) {
  obs::MetricsRegistry metrics;
  ServiceOptions options;
  options.limits.max_points_per_client = 3;
  options.metrics = &metrics;
  CampaignService service(options);

  const SubmitResult r =
      service.submit("a", 0, quick_spec({3.0, 6.0, 9.0, 12.0}));
  EXPECT_FALSE(r.accepted);
  EXPECT_EQ(r.error_code, "admission-points");
  EXPECT_FALSE(r.message.empty());
  EXPECT_EQ(r.job, 0u) << "rejected submissions allocate no job id";
  EXPECT_EQ(metrics.counter(obs::MetricId::service_jobs_rejected), 1u);

  // The rejection is per-client and leaves the service fully usable.
  const SubmitResult ok = service.submit("a", 0, quick_spec({3.0, 6.0}));
  ASSERT_TRUE(ok.accepted);
  pump_dry(service);
  EXPECT_TRUE(service.finished(ok.job));
}

TEST(ServiceFaults, JobQuotaCountsOnlyOpenJobs) {
  ServiceOptions options;
  options.limits.max_jobs_per_client = 1;
  CampaignService service(options);

  const SubmitResult first = service.submit("a", 0, quick_spec({6.0}));
  ASSERT_TRUE(first.accepted);
  const SubmitResult second = service.submit("a", 0, quick_spec({12.0}));
  EXPECT_FALSE(second.accepted);
  EXPECT_EQ(second.error_code, "admission-jobs");
  // Another client is unaffected by a's quota.
  EXPECT_TRUE(service.submit("b", 0, quick_spec({12.0})).accepted);

  pump_dry(service);
  EXPECT_TRUE(service.finished(first.job));
  // a's job closed: the quota slot is free again.
  EXPECT_TRUE(service.submit("a", 0, quick_spec({18.0})).accepted);
}

TEST(ServiceFaults, BadSpecIsRejectedNotHung) {
  CampaignService service;
  sweep::SweepSpec bad = quick_spec({6.0});
  bad.system_noise = "no-such-machine";
  const SubmitResult r = service.submit("a", 0, bad);
  EXPECT_FALSE(r.accepted);
  EXPECT_EQ(r.error_code, "bad-spec");
  EXPECT_FALSE(r.message.empty());
  EXPECT_FALSE(service.pump()) << "a rejected spec must queue nothing";
}

// ---------------------------------------------------------------------------
// Cancellation at a point boundary. The hook fires (outside the service
// lock) after each completed point of the running batch; cancelling there
// stops the batch before its next point starts. Every record completed
// before the stop must still reach the stream, and must be in the cache.
// ---------------------------------------------------------------------------

struct HookCtx {
  CampaignService* service = nullptr;
  std::atomic<std::uint64_t> job{0};
  std::atomic<bool> fired{false};
  std::atomic<bool> abandon{false};  // false: cancel(); true: abandon()
};

void cancel_after_first_point(void* opaque, std::uint64_t job,
                              std::size_t done_in_batch) {
  auto* ctx = static_cast<HookCtx*>(opaque);
  if (job != ctx->job.load() || done_in_batch < 1) return;
  if (ctx->fired.exchange(true)) return;
  if (ctx->abandon.load())
    ctx->service->abandon(job);
  else
    ctx->service->cancel(job);
}

TEST(ServiceFaults, CancelDuringRunningPointLosesNoCompletedRecords) {
  HookCtx ctx;
  ServiceOptions options;
  options.threads = 1;  // sequential points: the cancel lands mid-batch
  options.batch_points = 8;
  options.on_batch_point = &cancel_after_first_point;
  options.on_batch_ctx = &ctx;
  CampaignService service(options);
  ctx.service = &service;

  const sweep::SweepSpec spec = quick_spec({3.0, 6.0, 9.0, 12.0});
  const SubmitResult r = service.submit("a", 0, spec);
  ASSERT_TRUE(r.accepted);
  ctx.job.store(r.job);
  pump_dry(service);
  ASSERT_TRUE(ctx.fired.load());
  ASSERT_TRUE(service.finished(r.job));

  std::vector<std::string> lines;
  ASSERT_TRUE(service.drain(r.job, lines));
  const std::size_t completed = record_count(lines);
  EXPECT_GE(completed, 1u) << "the point that finished must be delivered";
  EXPECT_LT(completed, 4u) << "the cancel must have stopped the batch";
  const json::Value term = terminal(lines);
  EXPECT_EQ(term.find("type")->text, "cancelled");
  EXPECT_EQ(term.find("records")->number, static_cast<double>(completed));

  // Cancelling again is a no-op on a finished job.
  EXPECT_FALSE(service.cancel(r.job));

  // Every completed record went into the cache: a resubmission of the same
  // campaign reports exactly that many hits, then computes only the rest.
  ctx.job.store(0);  // disarm the hook
  const SubmitResult again = service.submit("a", 0, spec);
  ASSERT_TRUE(again.accepted);
  EXPECT_EQ(again.cached, completed);
  pump_dry(service);
  ASSERT_TRUE(service.finished(again.job));
  std::vector<std::string> full;
  ASSERT_TRUE(service.drain(again.job, full));
  EXPECT_EQ(record_count(full), 4u);
  EXPECT_EQ(terminal(full).find("type")->text, "done");
}

TEST(ServiceFaults, DisconnectBeforeRunReclaimsJobAndQuota) {
  obs::MetricsRegistry metrics;
  ServiceOptions options;
  options.limits.max_points_per_client = 4;
  options.metrics = &metrics;
  CampaignService service(options);

  const SubmitResult r =
      service.submit("a", 0, quick_spec({3.0, 6.0, 9.0, 12.0}));
  ASSERT_TRUE(r.accepted);
  // Quota is fully committed: a second submission would not fit...
  EXPECT_FALSE(service.submit("a", 0, quick_spec({18.0})).accepted);

  // ...until the client disconnects. Abandon reclaims queue slots and
  // quota immediately; nothing was computed, so nothing reaches the cache.
  service.abandon(r.job);
  EXPECT_FALSE(service.pump()) << "abandoned work must leave the queue";
  EXPECT_EQ(metrics.gauge(obs::MetricId::service_queue_depth), 0.0);

  const SubmitResult again =
      service.submit("a", 0, quick_spec({3.0, 6.0, 9.0, 12.0}));
  ASSERT_TRUE(again.accepted) << again.message;
  EXPECT_EQ(again.cached, 0u);
  pump_dry(service);
  EXPECT_TRUE(service.finished(again.job));
}

TEST(ServiceFaults, DisconnectMidStreamKeepsCompletedPhysicsInCache) {
  HookCtx ctx;
  ctx.abandon.store(true);
  ServiceOptions options;
  options.threads = 1;
  options.batch_points = 8;
  options.on_batch_point = &cancel_after_first_point;
  options.on_batch_ctx = &ctx;
  CampaignService service(options);
  ctx.service = &service;

  const sweep::SweepSpec spec = quick_spec({3.0, 6.0, 9.0, 12.0});
  const SubmitResult r = service.submit("a", 0, spec);
  ASSERT_TRUE(r.accepted);
  ctx.job.store(r.job);
  pump_dry(service);
  ASSERT_TRUE(ctx.fired.load());

  // The abandoned job terminates without buffering output for a client
  // that will never read it.
  ASSERT_TRUE(service.finished(r.job));
  std::vector<std::string> lines;
  ASSERT_TRUE(service.drain(r.job, lines));
  EXPECT_TRUE(lines.empty());

  // But the physics completed before the disconnect is not thrown away:
  // the next submission of the same campaign cache-hits those points.
  ctx.job.store(0);
  const SubmitResult again = service.submit("b", 0, spec);
  ASSERT_TRUE(again.accepted);
  EXPECT_GE(again.cached, 1u);
  EXPECT_LT(again.cached, 4u);
  pump_dry(service);
  std::vector<std::string> full;
  ASSERT_TRUE(service.drain(again.job, full));
  EXPECT_EQ(record_count(full), 4u);
}

TEST(ServiceFaults, ZeroBatchPointsIsRejectedAtConstruction) {
  // A zero-point batch claims nothing while the queue stays runnable: every
  // job would be accepted and never run, and run_loop would spin.
  ServiceOptions options;
  options.batch_points = 0;
  EXPECT_THROW(CampaignService{options}, std::invalid_argument);
  options.batch_points = 1;
  CampaignService service(options);
  const SubmitResult r = service.submit("a", 0, quick_spec({6.0}));
  ASSERT_TRUE(r.accepted);
  pump_dry(service);
  EXPECT_TRUE(service.finished(r.job));
}

TEST(ServiceFaults, CancelUnknownJobIsFalse) {
  CampaignService service;
  EXPECT_FALSE(service.cancel(42));
  std::vector<std::string> lines;
  EXPECT_FALSE(service.drain(42, lines));
  std::string framed;
  EXPECT_FALSE(service.results_so_far(42, framed).has_value());
  EXPECT_TRUE(framed.empty());
  // Unknown reads as terminal: the server keys "stop streaming this job"
  // off finished(), and a bogus id must never leave a stream open forever.
  EXPECT_TRUE(service.finished(42));
}

}  // namespace
}  // namespace iw::service
