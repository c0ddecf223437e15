#include "service/service.hpp"

#include <cassert>
#include <exception>
#include <utility>

#include "service/protocol.hpp"
#include "support/csv.hpp"
#include "support/error.hpp"
#include "sweep/record.hpp"
#include "sweep/runner.hpp"

namespace iw::service {

CampaignService::CampaignService(ServiceOptions options)
    : options_(options), queue_(options.limits) {
  // A zero-point batch claims nothing while the queue stays runnable, so
  // run_loop would spin and every job would wait forever.
  IW_REQUIRE(options_.batch_points > 0, "batch_points must be at least 1");
}

CampaignService::~CampaignService() { stop(); }

SubmitResult CampaignService::submit(const std::string& client, int priority,
                                     const sweep::SweepSpec& spec) {
  SubmitResult r;
  obs::MetricsRegistry* m = options_.metrics;
  {
    std::lock_guard<std::mutex> lk(mu_);
    // Admission first, against the campaign's full expansion size — an O(1)
    // product, so a quota-busting submission is rejected before any
    // expansion or cache probing happens (structured error, never a hang).
    const Admission adm = queue_.check(client, spec.points());
    if (!adm.accepted) {
      if (m) m->add(obs::MetricId::service_jobs_rejected, 1);
      r.error_code = adm.error_code;
      r.message = adm.message;
      return r;
    }
    std::vector<sweep::SweepPoint> pts;
    try {
      pts = sweep::expand(spec);
    } catch (const std::exception& e) {
      if (m) m->add(obs::MetricId::service_jobs_rejected, 1);
      r.error_code = "bad-spec";
      r.message = e.what();
      return r;
    }
    auto owned = std::make_unique<Job>();
    Job& j = *owned;
    j.id = next_job_++;
    j.client = client;
    j.points = std::move(pts);
    const std::size_t n = j.points.size();
    j.keys.resize(n);
    j.slots.assign(n, Job::Slot::pending);
    j.values.assign(n, nullptr);
    std::size_t reserved = 0;
    std::size_t submit_hits = 0;
    for (std::size_t pi = 0; pi < n; ++pi) {
      // record_line and pump use the slot position as the point index, so
      // a finished job needs no points to stream or replay its records.
      assert(j.points[pi].index == pi);
      j.keys[pi] = canonical_point_key(spec, j.points[pi]);
      const std::string& key = j.keys[pi];
      if (const std::string* hit = cache_.find(key)) {
        fill_record(j, pi, *hit);
        j.cache_hits += 1;
        submit_hits += 1;
        if (m) m->add(obs::MetricId::service_cache_hits, 1);
      } else if (owners_.find(key) != owners_.end()) {
        j.slots[pi] = Job::Slot::reserved;
        waiters_[key].push_back(Owner{j.id, pi});
        reserved += 1;
        if (m) m->add(obs::MetricId::service_cache_misses, 1);
      } else {
        owners_[key] = Owner{j.id, pi};
        j.compute_order.push_back(pi);
        if (m) m->add(obs::MetricId::service_cache_misses, 1);
      }
    }
    queue_.open(client, j.id, priority, j.compute_order.size(), reserved);
    Job& placed = *jobs_.emplace(j.id, std::move(owned)).first->second;
    jobs_open_ += 1;
    if (m) m->add(obs::MetricId::service_jobs_submitted, 1);
    check_finalize(placed);
    publish_gauges();
    r.accepted = true;
    r.job = placed.id;
    r.points = n;
    r.cached = submit_hits;
  }
  cv_.notify_all();
  if (options_.on_output) options_.on_output(options_.on_output_ctx);
  return r;
}

bool CampaignService::cancel(std::uint64_t job) {
  bool cancelled = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    Job* j = find_job(job);
    if (j == nullptr || j->finished || j->cancelled) return false;
    reclaim_unfinished(*j);
    if (options_.metrics)
      options_.metrics->add(obs::MetricId::service_jobs_cancelled, 1);
    check_finalize(*j);
    publish_gauges();
    cancelled = true;
  }
  cv_.notify_all();
  if (options_.on_output) options_.on_output(options_.on_output_ctx);
  return cancelled;
}

bool CampaignService::drain(std::uint64_t job, std::vector<std::string>& lines) {
  std::lock_guard<std::mutex> lk(mu_);
  Job* j = find_job(job);
  if (j == nullptr) return false;
  for (std::string& line : j->out) lines.push_back(std::move(line));
  // Nothing follows the terminal line: a finished job gives the buffer back.
  if (j->finished)
    std::vector<std::string>().swap(j->out);
  else
    j->out.clear();
  return true;
}

bool CampaignService::finished(std::uint64_t job) const {
  std::lock_guard<std::mutex> lk(mu_);
  const Job* j = find_job(job);
  return j == nullptr || j->finished;
}

std::optional<std::size_t> CampaignService::results_so_far(
    std::uint64_t job, std::string& framed) const {
  std::lock_guard<std::mutex> lk(mu_);
  const Job* j = find_job(job);
  if (j == nullptr) return std::nullopt;
  std::size_t records = 0;
  for (std::size_t pi = 0; pi < j->slots.size(); ++pi) {
    if (j->slots[pi] != Job::Slot::done) continue;
    sweep::append_json_from_values(framed, *j->values[pi], pi);
    framed += '\n';
    records += 1;
  }
  return records;
}

std::string CampaignService::status_json() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::string clients = "{";
  bool first = true;
  for (const auto& [name, s] : stats_) {
    if (!first) clients += ',';
    first = false;
    const double rate =
        s.batch_seconds > 0.0
            ? static_cast<double>(s.computed) / s.batch_seconds
            : 0.0;
    clients += json_str(name);
    clients += ':';
    clients += json_object(
        {{"load", std::to_string(queue_.client_load(name))},
         {"computed", std::to_string(s.computed)},
         {"points_per_sec", num17(rate)}});
  }
  clients += '}';
  return json_object(
      {{"type", json_str("status")},
       {"queue_depth", std::to_string(queue_.queue_depth())},
       {"clients_active", std::to_string(queue_.clients_active())},
       {"jobs_open", std::to_string(jobs_open_)},
       {"cache_entries", std::to_string(cache_.size())},
       {"cache_bytes", std::to_string(cache_.bytes())},
       {"decisions", std::to_string(queue_.decisions())},
       {"points_computed", std::to_string(total_computed_)},
       {"clients", clients}});
}

void CampaignService::abandon(std::uint64_t job) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    Job* j = find_job(job);
    if (j == nullptr || j->abandoned) return;
    j->abandoned = true;
    std::vector<std::string>().swap(j->out);
    if (!j->finished && !j->cancelled) {
      reclaim_unfinished(*j);
      if (options_.metrics)
        options_.metrics->add(obs::MetricId::service_jobs_cancelled, 1);
      check_finalize(*j);
    }
    publish_gauges();
  }
  cv_.notify_all();
}

bool CampaignService::pump() {
  std::vector<sweep::SweepPoint> batch;
  std::vector<std::size_t> point_idx;
  std::uint64_t jid = 0;
  const std::atomic<bool>* cancel = nullptr;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (batch_in_flight_) return false;
    Claim c;
    if (!queue_.decide(options_.batch_points, c)) return false;
    if (options_.metrics)
      options_.metrics->add(obs::MetricId::service_sched_decisions, 1);
    Job& j = *jobs_.at(c.job);
    jid = j.id;
    cancel = &j.cancel_flag;
    batch.reserve(c.count);
    for (std::size_t off = c.first; off < c.first + c.count; ++off) {
      const std::size_t pi = j.compute_order[off];
      j.slots[pi] = Job::Slot::claimed;
      batch.push_back(j.points[pi]);
      point_idx.push_back(pi);
    }
    batch_in_flight_ = true;
    publish_gauges();
  }
  // The physics runs unlocked: submit/cancel/status stay responsive, and
  // the test hook below may legally call back into the service.
  sweep::RunnerOptions ro;
  ro.threads = options_.threads;
  ro.cancel = cancel;
  if (options_.on_batch_point != nullptr) {
    auto hook = options_.on_batch_point;
    void* ctx = options_.on_batch_ctx;
    const std::uint64_t hook_job = jid;
    ro.on_progress = [hook, ctx, hook_job](std::size_t done, std::size_t) {
      hook(ctx, hook_job, done);
    };
  }
  bool failed = false;
  std::string fail_message;
  sweep::CampaignResult res;
  try {
    res = sweep::run_campaign(batch, ro);
  } catch (const std::exception& e) {
    failed = true;
    fail_message = e.what();
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    batch_in_flight_ = false;
    // j is unfinished here: its claimed points are not done, and
    // queue_.claimed(jid) stays non-zero until complete_claimed below. Only
    // a job waiting on its own key (two points with one key) can finish,
    // and so shed its expansion, inside the waiter loop of its last record;
    // that loop reads the local `key`, never j.keys.
    Job& j = *jobs_.at(jid);
    obs::MetricsRegistry* m = options_.metrics;
    std::string values;
    for (const sweep::SweepRecord& rec : res.records) {
      const std::size_t pi = rec.index;  // the batch holds j's own points
      assert(j.slots[pi] == Job::Slot::claimed);
      const std::string key = std::move(j.keys[pi]);
      values.clear();
      sweep::append_record_values(values, rec);
      const std::string& stored = cache_.insert(key, values);
      fill_record(j, pi, stored);
      j.computed += 1;
      total_computed_ += 1;
      stats_[j.client].computed += 1;
      if (m) m->add(obs::MetricId::service_points_computed, 1);
      const auto w = waiters_.find(key);
      if (w != waiters_.end()) {
        for (const Owner& o : w->second) {
          Job& wj = *jobs_.at(o.job);
          fill_record(wj, o.point, stored);
          wj.cache_hits += 1;
          queue_.complete_reserved(o.job, 1);
          if (m) m->add(obs::MetricId::service_cache_hits, 1);
          check_finalize(wj);
        }
        waiters_.erase(w);
      }
      owners_.erase(key);
    }
    queue_.complete_claimed(jid, point_idx.size());
    // Slots the batch never finished (cancelled or failed mid-run): reclaim
    // them and hand their keys to the oldest waiter, if any.
    for (const std::size_t pi : point_idx) {
      if (j.slots[pi] != Job::Slot::claimed) continue;
      j.slots[pi] = Job::Slot::reclaimed;
      release_ownership(j.keys[pi]);
    }
    if (failed && !j.finished) {
      j.terminal_error = fail_message;
      if (!j.cancelled) reclaim_unfinished(j);
    }
    stats_[j.client].batch_seconds += res.seconds;
    total_batch_seconds_ += res.seconds;
    check_finalize(j);
    publish_gauges();
  }
  cv_.notify_all();
  if (options_.on_output) options_.on_output(options_.on_output_ctx);
  return true;
}

void CampaignService::run_loop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return stop_ || runnable_locked(); });
      if (stop_) return;
    }
    pump();
  }
}

void CampaignService::stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
}

std::size_t CampaignService::cache_size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return cache_.size();
}

void CampaignService::reclaim_unfinished(Job& j) {
  j.cancelled = true;
  // Seen by run_campaign's workers: a running batch stops claiming points
  // at the next boundary; everything it completed is still delivered.
  j.cancel_flag.store(true, std::memory_order_relaxed);
  for (std::size_t pi = 0; pi < j.slots.size(); ++pi) {
    if (j.slots[pi] == Job::Slot::pending) {
      j.slots[pi] = Job::Slot::reclaimed;
      release_ownership(j.keys[pi]);
    } else if (j.slots[pi] == Job::Slot::reserved) {
      j.slots[pi] = Job::Slot::reclaimed;
      const auto w = waiters_.find(j.keys[pi]);
      if (w != waiters_.end()) {
        auto& list = w->second;
        for (std::size_t k = 0; k < list.size(); ++k)
          if (list[k].job == j.id && list[k].point == pi) {
            list.erase(list.begin() + static_cast<std::ptrdiff_t>(k));
            break;
          }
        if (list.empty()) waiters_.erase(w);
      }
    }
  }
  queue_.cancel(j.id);
}

CampaignService::Job* CampaignService::find_job(std::uint64_t id) {
  const auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : it->second.get();
}

const CampaignService::Job* CampaignService::find_job(std::uint64_t id) const {
  const auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : it->second.get();
}

void CampaignService::fill_record(Job& j, std::size_t pi,
                                  const std::string& values) {
  assert(j.slots[pi] != Job::Slot::done);
  j.values[pi] = &values;
  j.slots[pi] = Job::Slot::done;
  j.done_count += 1;
  advance_emission(j);
}

std::string CampaignService::record_line(const Job& j, std::size_t pi) {
  // `index` is the one column that is campaign-relative rather than a pure
  // function of the cache key: a shared point keeps its values but takes the
  // requesting campaign's point index.
  std::string line;
  sweep::append_json_from_values(line, *j.values[pi], pi);
  return line;
}

void CampaignService::advance_emission(Job& j) {
  while (j.next_emit < j.slots.size() &&
         j.slots[j.next_emit] == Job::Slot::done) {
    if (!j.abandoned) j.out.push_back(record_line(j, j.next_emit));
    j.emitted += 1;
    j.next_emit += 1;
  }
}

void CampaignService::release_ownership(const std::string& key) {
  owners_.erase(key);
  const auto w = waiters_.find(key);
  if (w == waiters_.end()) return;
  // Promote the oldest waiter to owner: its reserved slot becomes a fresh
  // pending slot at the back of its compute order.
  const Owner next = w->second.front();
  w->second.erase(w->second.begin());
  if (w->second.empty()) waiters_.erase(w);
  Job& wj = *jobs_.at(next.job);
  assert(wj.slots[next.point] == Job::Slot::reserved);
  wj.slots[next.point] = Job::Slot::pending;
  wj.compute_order.push_back(next.point);
  owners_[key] = next;
  queue_.promote_reserved(next.job, 1);
}

void CampaignService::check_finalize(Job& j) {
  if (j.finished) return;
  const std::size_t n = j.slots.size();
  if (j.cancelled) {
    if (queue_.claimed(j.id) != 0) return;  // a batch is still draining
    // Records a cancellation left beyond the contiguous streamed prefix —
    // same flush the runner does for its sinks; no completed record is lost.
    for (std::size_t pi = j.next_emit; pi < n; ++pi) {
      if (j.slots[pi] != Job::Slot::done) continue;
      if (!j.abandoned) j.out.push_back(record_line(j, pi));
      j.emitted += 1;
    }
    j.next_emit = n;
    if (!j.abandoned)
      j.out.push_back(j.terminal_error.empty()
                          ? cancelled_response(j.id, j.emitted)
                          : error_response("compute-failed", j.terminal_error));
  } else if (j.done_count == n) {
    if (!j.abandoned)
      j.out.push_back(
          done_response(j.id, j.emitted, j.cache_hits, j.computed));
  } else {
    return;
  }
  j.finished = true;
  jobs_open_ -= 1;
  queue_.close(j.id);
  // Nothing reads a finished job's expansion: drain, results, finished,
  // abandon and status need only its slots, values and counters. Every
  // caller is past its last read of this job's points and keys: submit,
  // cancel and abandon call this last, and pump moves each key out before
  // the fill that may finish the job (see there).
  std::vector<sweep::SweepPoint>().swap(j.points);
  std::vector<std::string>().swap(j.keys);
  std::vector<std::size_t>().swap(j.compute_order);
}

void CampaignService::publish_gauges() {
  obs::MetricsRegistry* m = options_.metrics;
  if (m == nullptr) return;
  m->set(obs::MetricId::service_queue_depth,
         static_cast<double>(queue_.queue_depth()));
  m->set(obs::MetricId::service_clients_active,
         static_cast<double>(queue_.clients_active()));
  m->set(obs::MetricId::service_cache_bytes,
         static_cast<double>(cache_.bytes()));
  m->set(obs::MetricId::service_points_per_sec,
         total_batch_seconds_ > 0.0
             ? static_cast<double>(total_computed_) / total_batch_seconds_
             : 0.0);
}

bool CampaignService::runnable_locked() const {
  return !batch_in_flight_ && queue_.queue_depth() > 0;
}

}  // namespace iw::service
