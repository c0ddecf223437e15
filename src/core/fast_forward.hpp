// Analytic fast-forward over silent regions (machine-scale simulation).
//
// At O(100k-1M) ranks, almost every rank of a ring experiment is *silent*:
// outside the light cone of every injected delay and of the open chain
// ends, its timeline is the unperturbed bulk-synchronous steady state the
// paper's Eq. 1 cycle model describes. Simulating those ranks event by
// event buys nothing — their trace is known in closed form up to the
// per-step protocol times, which a tiny reference ring reproduces exactly.
//
// The engine therefore splits the machine into
//   * an active set — ranks within R = d*(steps+2) hops of a delay or an
//     open boundary (an idle wave and the open-end speed-up front both
//     travel at most d ranks per step; the +2 steps are rim slack) — which
//     is event-simulated normally, and
//   * the silent rest, which gets no Process, no Program, and no events.
// The rim of the active set still receives messages from silent neighbors;
// those are replayed as *ghost sends*: pre-scheduled transport posts fired
// at the silent sender's analytically known per-step send times (taken
// from the reference ring), in program order, so NIC serialization matches
// the full simulation exactly.
//
// Silent timelines are synthesized from a periodic reference ring of
// np_ref = P * max(2, ceil((2d+1)/P)) ranks, where P is the topology spec's
// pattern_period(): rank r's timeline equals reference rank (r mod P).
// Each residue class gets one imported trace row, and every other silent
// rank of the class is one 4-byte row-index store onto it
// (mpi::Trace::alias_rank).
// Two periods are the proven minimum — with m >= 2 every wrapped
// reference-ring neighbor pair crosses all topology tiers, exactly like
// the corresponding (non-wrapped) bulk pair in the real machine, so every
// link classifies identically and the per-step times agree bit for bit.
//
// Cost: everything but the rank-indexed tables is O(active set + pattern
// period). The plan lists the active ranks, the Cluster binds only those,
// the transport gives states only to the ranks the run touches (so the
// next reset clears those alone), the ghost schedule visits only the rim,
// and the skip counters are per-class sums. What stays O(np) is a handful
// of flat tables: the trace's row index and its alias stores, the
// topology's tier tables, the process table and the transport's state
// table (kept across runs of one shape, so filled once), and the wave
// probe's walk over every hop.
//
// Eligibility (plan_fast_forward) is deliberately conservative: ring
// workloads only, no noise of either source, no memory domains, no flight
// recorder, ideal NIC (unbounded injection/buffers/credits), eager-sized
// messages, and — for periodic rings — np divisible by P. Everything else
// falls back to the full simulation (FfwdMode::auto_) or refuses loudly
// (FfwdMode::force). In audit builds the result is cross-checked
// byte-for-byte against a full simulation at small np.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/cluster.hpp"
#include "mpi/trace.hpp"
#include "support/time.hpp"
#include "workload/ring.hpp"

namespace iw::core {

struct WaveExperiment;

enum class FfwdMode : std::uint8_t {
  off,    ///< always event-simulate every rank (the default: exact engine
          ///< counters, which several golden columns pin)
  auto_,  ///< fast-forward when eligible and profitable, else fall back
  force,  ///< fast-forward or die — for tests and the A/B scale bench
};

[[nodiscard]] constexpr const char* to_string(FfwdMode m) {
  switch (m) {
    case FfwdMode::off: return "off";
    case FfwdMode::auto_: return "auto";
    case FfwdMode::force: return "force";
  }
  return "?";
}

/// Parses "off" / "auto" / "force"; throws on anything else.
[[nodiscard]] FfwdMode ffwd_mode_from_string(std::string_view s);

/// The eligibility decision plus the active-set geometry.
struct FastForwardPlan {
  bool eligible = false;
  std::string reason;     ///< first failed eligibility condition, if any
  int period = 1;         ///< topology pattern period P
  int np_ref = 0;         ///< reference-ring size (P * m, m >= 2)
  /// The event-simulated ranks, ascending: the union of the light cones,
  /// O(active) entries however large the machine.
  std::vector<int> active;
};

[[nodiscard]] FastForwardPlan plan_fast_forward(const WaveExperiment& exp);

struct FastForwardResult {
  mpi::Trace trace;
  /// Rank-steps whose event simulation was skipped (silent ranks * steps).
  std::uint64_t skips = 0;
  /// Sum of the synthesized silent ranks' finish times — the simulated
  /// time the engine never had to walk through.
  Duration time_skipped = Duration::zero();
};

/// The reference ring a fast-forward run synthesizes its silent ranks
/// from: its trace and its per-residue send-post times, kept together with
/// the inputs that produced them — the reference ClusterConfig (topology at
/// np_ref ranks, fabric, transport) and the reference RingSpec. A
/// WaveRunner keeps one across its points, so a point whose reference
/// inputs equal the last one's (the same shape at another np, delay or
/// seed) neither builds nor event-simulates the reference ring.
class FfwdReference {
 public:
  /// Makes this the reference of `config` and `ring`, event-simulating it
  /// only when either differs from the last call's (defaulted operator==).
  void update(const ClusterConfig& config, const workload::RingSpec& ring);

  [[nodiscard]] const mpi::Trace& trace() const { return *trace_; }
  /// Send-post time of every step of reference rank `residue`, which must
  /// lie in [0, config.topo.pattern_period()).
  [[nodiscard]] std::span<const SimTime> send_times(int residue) const;

 private:
  ClusterConfig config_;
  workload::RingSpec ring_;
  std::optional<mpi::Trace> trace_;  ///< empty until the first update()
  std::vector<SimTime> send_times_;  ///< period x steps, by residue
};

/// Runs the experiment through the fast-forward path on `cluster` (which
/// must be freshly armed with exp.cluster), taking its silent timelines
/// from `reference`, which it updates first. `plan` must be eligible.
/// Publishes the engine.ffwd_* metrics into exp.cluster.metrics when set.
[[nodiscard]] FastForwardResult run_ring_fast_forward(
    Cluster& cluster, const WaveExperiment& exp, const FastForwardPlan& plan,
    FfwdReference& reference);

}  // namespace iw::core
