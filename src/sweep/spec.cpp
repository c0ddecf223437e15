#include "sweep/spec.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "support/error.hpp"
#include "support/rng.hpp"
#include "workload/delay.hpp"

namespace iw::sweep {
namespace {

/// Exact integer square root of np for grid2d sweeps.
int grid_side(int np) {
  const int side = static_cast<int>(std::lround(std::sqrt(np)));
  IW_REQUIRE(side > 0 && side * side == np,
             "grid2d sweep needs a square rank count");
  return side;
}

core::WaveExperiment build_experiment(const SweepSpec& spec,
                                      const SweepPoint& pt) {
  core::WaveExperiment exp;
  int inj_rank = 0;
  if (spec.workload == Workload::grid2d) {
    workload::Grid2DSpec grid;
    grid.px = grid.py = grid_side(pt.np);
    grid.boundary = pt.boundary;
    grid.msg_bytes = pt.msg_bytes;
    grid.steps = spec.steps;
    grid.texec = spec.texec;
    inj_rank = workload::grid_rank(grid, grid.px / 2, grid.py / 2);
    exp.grid = grid;
  } else {
    workload::RingSpec ring;
    ring.ranks = pt.np;
    ring.direction = pt.direction;
    ring.boundary = pt.boundary;
    ring.distance = spec.distance;
    ring.msg_bytes = pt.msg_bytes;
    ring.steps = spec.steps;
    ring.texec = spec.texec;
    inj_rank = static_cast<int>(spec.injection_at *
                                static_cast<double>(pt.np));
    inj_rank = std::clamp(inj_rank, 0, pt.np - 1);
    exp.ring = ring;
  }
  // One rank per node at ppn 1, otherwise ppn ranks per socket.
  exp.cluster.topo = pt.ppn <= 1 ? net::TopologySpec::one_rank_per_node(pt.np)
                                 : net::TopologySpec::packed(pt.np, pt.ppn);

  // Protocol axes land in the transport configuration; Transport::validate
  // re-checks the combination at construction.
  exp.cluster.transport.nic.injection_depth = pt.nic_depth;
  exp.cluster.transport.eager.credit_window = pt.eager_credits;
  exp.cluster.transport.rendezvous.flavor = pt.rdv_flavor;
  // The switch tier rides on whatever node shape the ppn axis produced.
  exp.cluster.topo.nodes_per_switch = pt.switch_nodes;
  exp.ffwd = core::ffwd_mode_from_string(spec.ffwd);

  if (spec.system_noise != "none")
    exp.cluster.system_noise = noise::NoiseSpec::system(spec.system_noise);
  if (pt.delay_ms > 0.0)
    exp.delays = workload::single_delay(inj_rank, spec.injection_step,
                                        milliseconds(pt.delay_ms));
  if (pt.noise_E_percent > 0.0)
    exp.injected_noise = noise::NoiseSpec::exponential(
        Duration{static_cast<std::int64_t>(
            static_cast<double>(spec.texec.ns()) * pt.noise_E_percent /
                100.0 +
            0.5)});
  exp.min_idle = spec.min_idle;
  return exp;
}

}  // namespace

std::size_t SweepSpec::points() const {
  std::size_t n = 1;
#define IW_AXIS_MUL(field, Type, flag, column, default_) n *= field.size();
  IW_SWEEP_AXES(IW_AXIS_MUL)
#undef IW_AXIS_MUL
  return n;
}

std::vector<SweepPoint> expand(const SweepSpec& spec) {
#define IW_AXIS_NONEMPTY(field, Type, flag, column, default_)            \
  IW_REQUIRE(!spec.field.empty(),                                        \
             "sweep axis '" column "' needs at least one value");
  IW_SWEEP_AXES(IW_AXIS_NONEMPTY)
#undef IW_AXIS_NONEMPTY
  IW_REQUIRE(spec.steps > 0, "sweep steps must be positive");
  // 4-neighbor halo exchange has no uni/bidirectional flavor; a multi-valued
  // direction axis would silently duplicate grid points under distinct
  // labels.
  IW_REQUIRE(spec.workload == Workload::ring || spec.direction.size() == 1,
             "grid2d sweeps take no direction axis");
  for (const int n : spec.np) IW_REQUIRE(n > 1, "sweep np must exceed 1");
  for (const int k : spec.ppn) IW_REQUIRE(k > 0, "sweep ppn must be positive");
  for (const int d : spec.nic_depth)
    IW_REQUIRE(d >= 0, "sweep nic_depth must be >= 0 (0 = unlimited)");
  for (const int c : spec.eager_credits)
    IW_REQUIRE(c >= 0, "sweep eager_credits must be >= 0 (0 = unlimited)");
  for (const int s : spec.switch_nodes)
    IW_REQUIRE(s >= 0, "sweep switch_nodes must be >= 0 (0 = flat fabric)");

  // Odometer over the axis registry: sizes in declaration order, strides
  // built back-to-front so the first axis is slowest and the last fastest
  // (the historical nested-loop order, now derived instead of spelled out).
  std::array<std::size_t, kSweepAxisCount> sizes{};
  {
    std::size_t a = 0;
#define IW_AXIS_SIZE(field, Type, flag, column, default_) \
  sizes[a++] = spec.field.size();
    IW_SWEEP_AXES(IW_AXIS_SIZE)
#undef IW_AXIS_SIZE
  }
  std::array<std::size_t, kSweepAxisCount> strides{};
  std::size_t stride = 1;
  for (std::size_t a = kSweepAxisCount; a-- > 0;) {
    strides[a] = stride;
    stride *= sizes[a];
  }
  const std::size_t total = stride;

  const Rng campaign(spec.campaign_seed);
  std::vector<SweepPoint> points;
  points.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    SweepPoint pt;
    pt.index = i;
    {
      std::size_t a = 0;
#define IW_AXIS_ASSIGN(field, Type, flag, column, default_) \
  pt.field = spec.field[(i / strides[a]) % sizes[a]];       \
  ++a;
      IW_SWEEP_AXES(IW_AXIS_ASSIGN)
#undef IW_AXIS_ASSIGN
    }
    pt.workload = spec.workload;
    pt.exp = build_experiment(spec, pt);
    // fork() is order-independent, so the seed of point i is a pure
    // function of (campaign_seed, i) — the key to thread-count-invariant
    // campaigns.
    pt.exp.cluster.seed =
        campaign.fork(static_cast<std::uint64_t>(pt.index)).next_u64();
    points.push_back(std::move(pt));
  }
  return points;
}

}  // namespace iw::sweep
