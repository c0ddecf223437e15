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

/// The topology's translational period, computed from the spec (same value
/// as Topology::pattern_period(), without building the rank tables).
int pattern_period_of(const net::TopologySpec& spec) {
  const int per_socket = spec.ranks_per_socket > 0 ? spec.ranks_per_socket
                                                   : spec.cores_per_socket;
  int period = per_socket * spec.sockets_per_node;
  if (spec.nodes_per_switch > 0) {
    period *= spec.nodes_per_switch;
    if (spec.switches_per_island > 0) period *= spec.switches_per_island;
  }
  return period;
}

void mark_cone(std::vector<std::uint8_t>& active, int center, int radius,
               workload::Boundary boundary) {
  const int np = static_cast<int>(active.size());
  for (int off = -radius; off <= radius; ++off) {
    int r = center + off;
    if (boundary == workload::Boundary::periodic) {
      r = ((r % np) + np) % np;
    } else if (r < 0 || r >= np) {
      continue;
    }
    active[static_cast<std::size_t>(r)] = 1;
  }
}

/// Content equality of two traces (slab layout is irrelevant): the
/// byte-identity contract of the fast-forward path.
[[maybe_unused]] bool traces_equal(const mpi::Trace& a, const mpi::Trace& b) {
  if (a.ranks() != b.ranks()) return false;
  for (int r = 0; r < a.ranks(); ++r) {
    if (a.finish(r) != b.finish(r)) return false;
    const auto sa = a.segments(r);
    const auto sb = b.segments(r);
    if (sa.size() != sb.size()) return false;
    for (std::size_t i = 0; i < sa.size(); ++i) {
      if (sa[i].kind != sb[i].kind || sa[i].begin != sb[i].begin ||
          sa[i].end != sb[i].end || sa[i].step != sb[i].step ||
          sa[i].noise != sb[i].noise)
        return false;
    }
    const auto ma = a.step_begin(r);
    const auto mb = b.step_begin(r);
    if (!std::equal(ma.begin(), ma.end(), mb.begin(), mb.end())) return false;
  }
  return true;
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
  IW_CHECK(traces_equal(ffwd, reference),
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
  plan.period = pattern_period_of(exp.cluster.topo);
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
  plan.active.assign(static_cast<std::size_t>(np), 0);
  const int radius = ring.distance * (ring.steps + 2);
  for (const auto& d : exp.delays)
    mark_cone(plan.active, d.rank, radius, ring.boundary);
  if (ring.boundary == workload::Boundary::open) {
    mark_cone(plan.active, 0, radius, ring.boundary);
    mark_cone(plan.active, np - 1, radius, ring.boundary);
  }
  plan.active_count = static_cast<std::size_t>(
      std::count(plan.active.begin(), plan.active.end(), 1));
  return plan;
}

FastForwardResult run_ring_fast_forward(Cluster& cluster,
                                        const WaveExperiment& exp,
                                        const FastForwardPlan& plan) {
  IW_REQUIRE(plan.eligible, "fast-forward plan is not eligible");
  const workload::RingSpec& ring = exp.ring;
  const int np = ring.ranks;
  const int period = plan.period;

  // Reference ring: periodic, undisturbed, same per-step physics. Its
  // ranks 0..P-1 are one full topology period, so every silent rank r of
  // the real machine has the timeline of reference rank r mod P.
  workload::RingSpec ref_ring = ring;
  ref_ring.ranks = plan.np_ref;
  ref_ring.boundary = workload::Boundary::periodic;
  ClusterConfig ref_config;
  ref_config.topo = exp.cluster.topo;
  ref_config.topo.ranks = plan.np_ref;
  ref_config.fabric = exp.cluster.fabric;
  ref_config.transport = exp.cluster.transport;
  ref_config.seed = exp.cluster.seed;
  Cluster ref_cluster(ref_config);
  const mpi::Trace ref_trace = ref_cluster.run(workload::build_ring(ref_ring));

  // Per-residue send-post times: with no noise and no delays each step has
  // exactly one compute segment, and sends are posted the instant it ends.
  std::vector<std::vector<SimTime>> send_times(
      static_cast<std::size_t>(period));
  for (int q = 0; q < period; ++q) {
    auto& times = send_times[static_cast<std::size_t>(q)];
    times.reserve(static_cast<std::size_t>(ring.steps));
    for (const auto& seg : ref_trace.segments(q))
      if (seg.kind == mpi::SegKind::compute) times.push_back(seg.end);
    IW_CHECK(static_cast<int>(times.size()) == ring.steps,
             "reference ring must record one compute segment per step");
  }

  // Programs for the active set only: the silent majority never gets one.
  std::vector<const mpi::Program*> programs(static_cast<std::size_t>(np),
                                            nullptr);
  std::vector<mpi::Program> storage;
  storage.reserve(plan.active_count);
  for (int r = 0; r < np; ++r) {
    if (!plan.active[static_cast<std::size_t>(r)]) continue;
    storage.push_back(workload::build_ring_rank(ring, r, exp.delays));
    programs[static_cast<std::size_t>(r)] = &storage.back();
  }

  // Ghost schedule: every silent rank feeding the active rim replays *all*
  // of its sends in program order at its reference send times — partial
  // replay would shift the NIC serialization of the sends that matter.
  std::vector<GhostSend> ghost_sends;
  std::vector<GhostPost> ghost_posts;
  for (int r = 0; r < np; ++r) {
    if (plan.active[static_cast<std::size_t>(r)]) continue;
    bool feeds_active = false;
    workload::for_each_peer(ring, r, +1, [&](int p) {
      feeds_active |= plan.active[static_cast<std::size_t>(p)] != 0;
    });
    if (!feeds_active) continue;
    const auto& times = send_times[static_cast<std::size_t>(r % period)];
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
      cluster.run_fast_forward(programs, ghost_sends, ghost_posts)};

  // Synthesize the silent timelines: one imported canonical row per
  // residue class, O(1) aliases for the rest of the class.
  std::vector<int> canonical(static_cast<std::size_t>(period), -1);
  for (int r = 0; r < np; ++r) {
    if (plan.active[static_cast<std::size_t>(r)]) continue;
    const auto q = static_cast<std::size_t>(r % period);
    if (canonical[q] < 0) {
      result.trace.import_rank(r, ref_trace, r % period);
      canonical[q] = r;
    } else {
      result.trace.alias_rank(r, canonical[q]);
    }
    result.skips += static_cast<std::uint64_t>(ring.steps);
    result.time_skipped += result.trace.finish(r) - SimTime::zero();
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
