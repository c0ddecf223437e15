// The sweep-axis registry: every campaign axis is declared exactly once.
//
// Adding an axis used to be a three-place edit (SweepSpec + expand() loop
// nest, the record schema, the CLI override block) that could silently
// drift. Now the IW_SWEEP_AXES X-macro below is the single declaration —
// SweepSpec/SweepPoint members, points()/expand() enumeration, the
// record-schema axis columns, reduce(), the verify oracle's re-expansion
// check, and sweep_runner's `--flag=v1,v2,...` overrides are all generated
// from it. To add an axis: add one X(...) line, consume the new SweepPoint
// field in build_experiment() (sweep/spec.cpp), and regenerate the goldens
// (the schema gains a column, so kGoldenSchemaVersion must bump).
//
// Axis enumeration order is declaration order, first axis slowest /
// last axis fastest — append new axes at the END so existing sweeps keep
// their point indices while the new axis stays single-valued.
//
// Each entry is X(field, Type, cli_flag, column, default):
//   field    — member name in SweepSpec (vector) and SweepPoint (scalar)
//   Type     — value type; arithmetic or an enum with an AxisValue
//              specialization below
//   cli_flag — sweep_runner override flag (`--<flag>=v1,v2,...`)
//   column   — record-schema column name
//   default  — the single value an unset axis holds
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "mpi/transport_config.hpp"
#include "workload/ring.hpp"

namespace iw {
class Cli;
}

#define IW_SWEEP_AXES(X)                                                     \
  X(delay_ms, double, "delay-ms", "delay_ms", 12.0)                          \
  X(msg_bytes, std::int64_t, "msg-bytes", "msg_bytes", 8192)                 \
  X(np, int, "np", "np", 18)                                                 \
  X(ppn, int, "ppn", "ppn", 1)                                               \
  X(noise_E_percent, double, "noise", "noise_E_percent", 0.0)                \
  X(direction, iw::workload::Direction, "direction", "direction",            \
    iw::workload::Direction::unidirectional)                                 \
  X(boundary, iw::workload::Boundary, "boundary", "boundary",                \
    iw::workload::Boundary::open)                                            \
  X(nic_depth, int, "nic-depth", "nic_depth", 0)                             \
  X(eager_credits, int, "eager-credits", "eager_credits", 0)                 \
  X(rdv_flavor, iw::mpi::RendezvousFlavor, "rdv-flavor", "rdv_flavor",       \
    iw::mpi::RendezvousFlavor::two_sided)                                    \
  X(switch_nodes, int, "switch-nodes", "switch_nodes", 0)

// Per-point protocol-counter columns, surfaced from the transport's run
// statistics through the metrics registry. Declared once here, like the
// axes: each entry generates the WaveResult/SweepRecord member, the
// record-schema column, and the reduce() copy. Only deterministic per-run
// counters belong in this list (PoolStats watermarks accumulate across a
// worker's lifetime and would make records depend on point order). Each
// entry is X(field) — the member name doubles as the column name; all are
// exact-match uint64 counters. Appending an entry adds a schema column, so
// kGoldenSchemaVersion must bump and the goldens regenerate.
#define IW_METRIC_COLUMNS(X) \
  X(nic_backlogged)          \
  X(deferred_pushes)         \
  X(unexpected_eager)        \
  X(unexpected_rts)

namespace iw::sweep {

#define IW_SWEEP_AXIS_PLUS1(field, Type, flag, column, default_) +1
inline constexpr std::size_t kSweepAxisCount =
    0 IW_SWEEP_AXES(IW_SWEEP_AXIS_PLUS1);
#undef IW_SWEEP_AXIS_PLUS1

/// Per-type axis behaviour: how an axis value lands in a SweepRecord and
/// how a CLI list override parses. Arithmetic axes store themselves and
/// parse through the Cli numeric-list parsers; enum axes store their
/// to_string name and parse it back.
template <typename T>
struct AxisValue {
  static_assert(std::is_arithmetic_v<T>,
                "non-arithmetic axes need an AxisValue specialization");
  using record_type = T;
  static record_type to_record(T v) { return v; }
  static std::vector<T> override_from_cli(const Cli& cli, const char* flag,
                                          std::vector<T> fallback);
};

template <>
struct AxisValue<workload::Direction> {
  using record_type = std::string;
  static record_type to_record(workload::Direction v) {
    return workload::to_string(v);
  }
  static workload::Direction parse(const std::string& name);
  static std::vector<workload::Direction> override_from_cli(
      const Cli& cli, const char* flag,
      std::vector<workload::Direction> fallback);
};

template <>
struct AxisValue<workload::Boundary> {
  using record_type = std::string;
  static record_type to_record(workload::Boundary v) {
    return workload::to_string(v);
  }
  static workload::Boundary parse(const std::string& name);
  static std::vector<workload::Boundary> override_from_cli(
      const Cli& cli, const char* flag,
      std::vector<workload::Boundary> fallback);
};

template <>
struct AxisValue<mpi::RendezvousFlavor> {
  using record_type = std::string;
  static record_type to_record(mpi::RendezvousFlavor v) {
    return mpi::to_string(v);
  }
  static mpi::RendezvousFlavor parse(const std::string& name) {
    return mpi::rendezvous_flavor_from_string(name);
  }
  static std::vector<mpi::RendezvousFlavor> override_from_cli(
      const Cli& cli, const char* flag,
      std::vector<mpi::RendezvousFlavor> fallback);
};

/// The type an axis value takes inside a SweepRecord (enum axes serialize
/// as their to_string name).
template <typename T>
using axis_record_t = typename AxisValue<T>::record_type;

struct SweepSpec;
struct Scenario;

/// Applies every axis's `--<flag>=v1,v2,...` override onto `spec`. Numeric
/// lists go through the Cli list parsers (malformed input throws, never
/// truncates); enum lists parse their to_string names, throwing on unknown
/// ones with the valid set in the message.
void apply_axis_overrides(SweepSpec& spec, const Cli& cli);

/// Catalog scenario `name` with the CLI's axis flags, `--steps` and
/// `--seed` applied to its spec: the one resolution sweep_runner and
/// idlewave_client share. Throws std::invalid_argument for an unknown name
/// (listing the catalog) or a malformed or out-of-range override.
[[nodiscard]] Scenario resolve_scenario(const std::string& name,
                                        const Cli& cli);

/// CLI flag names of all axes, in declaration order (for Cli::allow_only).
[[nodiscard]] std::vector<std::string> axis_cli_flags();

}  // namespace iw::sweep
