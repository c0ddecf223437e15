#include "core/fast_forward.hpp"

#include <algorithm>
#include <utility>

#include "core/cluster.hpp"
#include "core/experiment.hpp"
#include "obs/metrics.hpp"
#include "support/error.hpp"
#include "workload/ring.hpp"

namespace iw::core {
namespace {

/// Adds the cone of `radius` ranks around `center` to `cones` as inclusive
/// rank intervals: clipped on an open chain, split where a periodic ring
/// wraps.
void add_cone(std::vector<std::pair<int, int>>& cones, int np, int center,
              int radius, workload::Boundary boundary) {
  int lo = center - radius;
  int hi = center + radius;
  if (boundary == workload::Boundary::open) {
    cones.emplace_back(std::max(lo, 0), std::min(hi, np - 1));
  } else if (hi - lo + 1 >= np) {
    cones.emplace_back(0, np - 1);
  } else if (lo < 0) {
    cones.emplace_back(lo + np, np - 1);
    cones.emplace_back(0, hi);
  } else if (hi >= np) {
    cones.emplace_back(lo, np - 1);
    cones.emplace_back(0, hi - np);
  } else {
    cones.emplace_back(lo, hi);
  }
}

/// Audit-build cross-check: at small np, re-run the experiment through the
/// full event simulation and require the synthesized trace to match it
/// exactly. The threshold keeps audit sweeps affordable; the scale bench
/// exercises the identity explicitly at its smallest point.
[[maybe_unused]] void audit_cross_check(const WaveExperiment& exp,
                                        const mpi::Trace& ffwd) {
  if (exp.ring.ranks > 2048) return;
  ClusterConfig config = exp.cluster;
  config.metrics = nullptr;  // the real run already published
  config.tracer = nullptr;
  Cluster full(config);
  const mpi::Trace reference =
      full.run(workload::build_ring(exp.ring, exp.delays), exp.injected_noise);
  IW_CHECK(mpi::same_timelines(ffwd, reference),
           "fast-forward trace diverges from the full simulation");
}

}  // namespace

FfwdMode ffwd_mode_from_string(std::string_view s) {
  if (s == "off") return FfwdMode::off;
  if (s == "auto") return FfwdMode::auto_;
  if (s == "force") return FfwdMode::force;
  IW_REQUIRE(false, "unknown ffwd mode '" + std::string(s) +
                        "' (expected off|auto|force)");
  return FfwdMode::off;  // unreachable
}

FastForwardPlan plan_fast_forward(const WaveExperiment& exp) {
  FastForwardPlan plan;
  const workload::RingSpec& ring = exp.ring;
  const int np = ring.ranks;
  plan.period = exp.cluster.topo.pattern_period();
  const int neighborhood = 2 * ring.distance + 1;
  plan.np_ref =
      plan.period *
      std::max(2, (neighborhood + plan.period - 1) / plan.period);

  const auto& tc = exp.cluster.transport;
  std::string reason;
  if (exp.grid) {
    reason = "grid workloads are not eligible";
  } else if (exp.cluster.topo.ranks != np) {
    reason = "topology/ring rank mismatch";
  } else if (exp.cluster.system_noise.kind != noise::NoiseSpec::Kind::none) {
    reason = "system noise perturbs every rank";
  } else if (exp.injected_noise.kind != noise::NoiseSpec::Kind::none) {
    reason = "injected noise perturbs every rank";
  } else if (exp.cluster.memory) {
    reason = "memory domains couple ranks through the bus";
  } else if (exp.cluster.tracer != nullptr) {
    reason = "flight recording needs every event";
  } else if (tc.nic.injection_depth != 0) {
    reason = "finite NIC injection depth couples senders to drain order";
  } else if (tc.eager.credit_window != 0) {
    reason = "eager credit window couples senders to receivers";
  } else if (tc.protocol_by_size(ring.msg_bytes,
                                 exp.cluster.fabric.eager_limit_bytes) !=
             mpi::WireProtocol::eager) {
    reason = "rendezvous messages couple senders to receivers";
  } else if (ring.boundary == workload::Boundary::periodic &&
             np % plan.period != 0) {
    reason = "periodic ring size is not a multiple of the topology period";
  } else if (plan.np_ref > np) {
    reason = "ring smaller than the reference pattern";
  }
  if (!reason.empty()) {
    plan.reason = std::move(reason);
    return plan;
  }

  plan.eligible = true;
  const int radius = ring.distance * (ring.steps + 2);
  std::vector<std::pair<int, int>> cones;
  for (const auto& d : exp.delays)
    add_cone(cones, np, d.rank, radius, ring.boundary);
  if (ring.boundary == workload::Boundary::open) {
    add_cone(cones, np, 0, radius, ring.boundary);
    add_cone(cones, np, np - 1, radius, ring.boundary);
  }
  // The union of the cones, ascending: sorted intervals, each rank once.
  std::sort(cones.begin(), cones.end());
  int next = 0;  // lowest rank not yet listed
  for (const auto& [lo, hi] : cones) {
    for (int r = std::max(lo, next); r <= hi; ++r) plan.active.push_back(r);
    next = std::max(next, hi + 1);
  }
  return plan;
}

void FfwdReference::update(const ClusterConfig& config,
                           const workload::RingSpec& ring) {
  if (trace_ && config == config_ && ring == ring_) return;
  trace_.reset();  // a throw below leaves no stale reference behind
  Cluster ref_cluster(config);
  const int period = config.topo.pattern_period();
  std::vector<SimTime> send_times;
  send_times.reserve(static_cast<std::size_t>(period) *
                     static_cast<std::size_t>(ring.steps));
  mpi::Trace trace = ref_cluster.run(workload::build_ring(ring));
  // Per-residue send-post times: with no noise and no delays each step has
  // exactly one compute segment, and sends are posted the instant it ends.
  for (int q = 0; q < period; ++q) {
    const std::size_t before = send_times.size();
    for (const auto& seg : trace.segments(q))
      if (seg.kind == mpi::SegKind::compute) send_times.push_back(seg.end);
    IW_CHECK(send_times.size() - before ==
                 static_cast<std::size_t>(ring.steps),
             "reference ring must record one compute segment per step");
  }
  config_ = config;
  ring_ = ring;
  send_times_ = std::move(send_times);
  trace_.emplace(std::move(trace));
}

std::span<const SimTime> FfwdReference::send_times(int residue) const {
  const auto steps = static_cast<std::size_t>(ring_.steps);
  return std::span<const SimTime>(send_times_)
      .subspan(static_cast<std::size_t>(residue) * steps, steps);
}

FastForwardResult run_ring_fast_forward(Cluster& cluster,
                                        const WaveExperiment& exp,
                                        const FastForwardPlan& plan,
                                        FfwdReference& reference) {
  IW_REQUIRE(plan.eligible, "fast-forward plan is not eligible");
  const workload::RingSpec& ring = exp.ring;
  const int np = ring.ranks;
  const int period = plan.period;

  // Reference ring: periodic, undisturbed, same per-step physics. Its
  // ranks 0..P-1 are one full topology period, so every silent rank r of
  // the real machine has the timeline of reference rank r mod P. It is
  // noise-free, and the seed feeds only noise streams, so the reference
  // configuration leaves the seed at its default: points of one shape that
  // differ only in their per-point seed share one reference.
  workload::RingSpec ref_ring = ring;
  ref_ring.ranks = plan.np_ref;
  ref_ring.boundary = workload::Boundary::periodic;
  ClusterConfig ref_config;
  ref_config.topo = exp.cluster.topo;
  ref_config.topo.ranks = plan.np_ref;
  ref_config.fabric = exp.cluster.fabric;
  ref_config.transport = exp.cluster.transport;
  reference.update(ref_config, ref_ring);
  const mpi::Trace& ref_trace = reference.trace();

  // Programs for the active set only: the silent majority never gets one.
  std::vector<mpi::Program> storage;
  storage.reserve(plan.active.size());
  std::vector<ActiveRank> active;
  active.reserve(plan.active.size());
  for (const int r : plan.active) {
    storage.push_back(workload::build_ring_rank(ring, r, exp.delays));
    active.push_back(ActiveRank{r, &storage.back()});
  }
  const auto is_active = [&plan](int r) {
    return std::binary_search(plan.active.begin(), plan.active.end(), r);
  };

  // Ghost schedule: every silent rank feeding the active rim — a receive
  // source of some active rank — replays *all* of its sends in program
  // order at its reference send times, ascending by rank; partial replay
  // would shift the NIC serialization of the sends that matter.
  std::vector<int> rim;
  for (const int a : plan.active)
    workload::for_each_peer(ring, a, -1, [&](int p) {
      if (!is_active(p)) rim.push_back(p);
    });
  std::sort(rim.begin(), rim.end());
  rim.erase(std::unique(rim.begin(), rim.end()), rim.end());
  std::vector<GhostSend> ghost_sends;
  std::vector<GhostPost> ghost_posts;
  for (const int r : rim) {
    const std::span<const SimTime> times = reference.send_times(r % period);
    for (int step = 0; step < ring.steps; ++step) {
      GhostPost post;
      post.when = times[static_cast<std::size_t>(step)];
      post.first = static_cast<std::uint32_t>(ghost_sends.size());
      workload::for_each_peer(ring, r, +1, [&](int peer) {
        ghost_sends.push_back(GhostSend{r, peer, step, ring.msg_bytes});
      });
      post.count =
          static_cast<std::uint32_t>(ghost_sends.size() - post.first);
      ghost_posts.push_back(post);
    }
  }

  FastForwardResult result{
      cluster.run_fast_forward(active, ghost_sends, ghost_posts)};

  // Synthesize the silent timelines, gap by gap between active ranks: one
  // imported canonical row per residue class, one row-index store for the
  // rest of the class. The skip counters are per-class sums.
  std::vector<int> canonical(static_cast<std::size_t>(period), -1);
  std::vector<std::int64_t> class_size(static_cast<std::size_t>(period), 0);
  int first = 0;  // first rank of the current silent gap
  for (std::size_t i = 0; i <= plan.active.size(); ++i) {
    const int end = i < plan.active.size() ? plan.active[i] : np;
    for (int r = first, q = first % period; r < end; ++r) {
      const auto k = static_cast<std::size_t>(q);
      if (canonical[k] < 0) {
        result.trace.import_rank(r, ref_trace, q);
        canonical[k] = r;
      } else {
        result.trace.alias_rank(r, canonical[k]);
      }
      ++class_size[k];
      if (++q == period) q = 0;
    }
    first = end + 1;
  }
  for (std::size_t k = 0; k < canonical.size(); ++k) {
    if (class_size[k] == 0) continue;
    result.skips += static_cast<std::uint64_t>(class_size[k] * ring.steps);
    result.time_skipped +=
        (result.trace.finish(canonical[k]) - SimTime::zero()) * class_size[k];
  }

  if (exp.cluster.metrics != nullptr) {
    exp.cluster.metrics->add(obs::MetricId::engine_ffwd_skips, result.skips);
    exp.cluster.metrics->add(
        obs::MetricId::engine_ffwd_time_skipped,
        static_cast<std::uint64_t>(result.time_skipped.ns() / 1000));
  }

  IW_AUDIT(audit_cross_check(exp, result.trace));
  return result;
}

}  // namespace iw::core
