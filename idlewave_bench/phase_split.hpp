// Layer profile of the traced run: every module's share of a workload's
// work, measured through public calls only.
//
//   * sweep     — expand, the runner pool (efficiency against the summed
//                 single-thread point time), reduce, record formatting and
//                 the JSONL sink;
//   * workload, core, sim, mpi — the phase split of a seeded sample of
//                 points: Cluster::reset -> build_ring/build_grid2d ->
//                 Cluster::run -> analyze_wave, whose speed, decay and
//                 survival must equal WaveRunner's result exactly, and whose
//                 phases must sum to within 10% of the WaveRunner time;
//   * verify    — diff_records and check_oracles on the campaigns' records;
//   * service   — submit, pump, replay and the socket path of an in-process
//                 CampaignService/Server fed the same campaigns, plus
//                 parse_request.
// `net`, `noise` and `memory` run only inside Cluster::run and are reported
// under core.simulate_*.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spans.hpp"
#include "workloads.hpp"

namespace iw::bench {

struct ProfileInput {
  std::vector<Campaign> campaigns;
  /// True when the workload runs all campaigns as one run_campaign call
  /// (a catalog pass); false when each campaign is its own call.
  bool one_pool_run = false;
  int threads = 4;
  std::uint64_t seed = 1;
  bool smoke = false;
  std::string scratch;
};

/// Appends the per-layer rows to `result.layers`; failed identity checks
/// (phase split vs WaveRunner, N threads vs 1, cached replay bytes) count
/// as failures of `result`.
void profile_layers(const ProfileInput& in, Spans& spans,
                    WorkloadResult& result);

}  // namespace iw::bench
