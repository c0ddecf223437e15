#include "sweep/axes.hpp"

#include <stdexcept>
#include <utility>

#include "support/cli.hpp"
#include "support/csv.hpp"
#include "support/error.hpp"
#include "sweep/scenario.hpp"
#include "sweep/spec.hpp"

namespace iw::sweep {

namespace {

template <typename T>
std::vector<T> parse_enum_list(const Cli& cli, const char* flag,
                               std::vector<T> fallback) {
  const auto raw = cli.get(flag);
  if (!raw) return fallback;
  // Empty elements are malformed, same as the Cli numeric-list parsers.
  std::vector<T> out;
  for (const std::string& item : split_commas(*raw)) {
    IW_REQUIRE(!item.empty(), std::string("--") + flag +
                                  ": empty element in list '" + *raw + "'");
    out.push_back(AxisValue<T>::parse(item));
  }
  return out;
}

}  // namespace

template <>
std::vector<double> AxisValue<double>::override_from_cli(
    const Cli& cli, const char* flag, std::vector<double> fallback) {
  return cli.get_list_or(flag, std::move(fallback));
}

template <>
std::vector<std::int64_t> AxisValue<std::int64_t>::override_from_cli(
    const Cli& cli, const char* flag, std::vector<std::int64_t> fallback) {
  return cli.get_list_or(flag, std::move(fallback));
}

template <>
std::vector<int> AxisValue<int>::override_from_cli(const Cli& cli,
                                                   const char* flag,
                                                   std::vector<int> fallback) {
  return cli.get_int_list_or(flag, std::move(fallback));
}

workload::Direction AxisValue<workload::Direction>::parse(
    const std::string& name) {
  if (name == "unidirectional") return workload::Direction::unidirectional;
  if (name == "bidirectional") return workload::Direction::bidirectional;
  throw std::invalid_argument(
      "unknown direction '" + name +
      "' (valid: unidirectional, bidirectional)");
}

std::vector<workload::Direction>
AxisValue<workload::Direction>::override_from_cli(
    const Cli& cli, const char* flag,
    std::vector<workload::Direction> fallback) {
  return parse_enum_list<workload::Direction>(cli, flag, std::move(fallback));
}

workload::Boundary AxisValue<workload::Boundary>::parse(
    const std::string& name) {
  if (name == "open") return workload::Boundary::open;
  if (name == "periodic") return workload::Boundary::periodic;
  throw std::invalid_argument("unknown boundary '" + name +
                              "' (valid: open, periodic)");
}

std::vector<workload::Boundary>
AxisValue<workload::Boundary>::override_from_cli(
    const Cli& cli, const char* flag,
    std::vector<workload::Boundary> fallback) {
  return parse_enum_list<workload::Boundary>(cli, flag, std::move(fallback));
}

std::vector<mpi::RendezvousFlavor>
AxisValue<mpi::RendezvousFlavor>::override_from_cli(
    const Cli& cli, const char* flag,
    std::vector<mpi::RendezvousFlavor> fallback) {
  return parse_enum_list<mpi::RendezvousFlavor>(cli, flag,
                                                std::move(fallback));
}

void apply_axis_overrides(SweepSpec& spec, const Cli& cli) {
#define IW_AXIS_OVERRIDE(field, Type, flag, column, default_)               \
  spec.field =                                                              \
      AxisValue<Type>::override_from_cli(cli, flag, std::move(spec.field));
  IW_SWEEP_AXES(IW_AXIS_OVERRIDE)
#undef IW_AXIS_OVERRIDE
}

Scenario resolve_scenario(const std::string& name, const Cli& cli) {
  const Scenario* found = find_scenario(name);
  if (found == nullptr) {
    std::string known;
    for (const std::string& n : scenario_names()) known += " " + n;
    throw std::invalid_argument("unknown scenario '" + name + "' (known:" +
                                known + ")");
  }
  Scenario scenario = *found;
  apply_axis_overrides(scenario.spec, cli);
  scenario.spec.steps = cli.get_int_or("steps", scenario.spec.steps);
  scenario.spec.campaign_seed =
      cli.get_u64_or("seed", scenario.spec.campaign_seed);
  return scenario;
}

std::vector<std::string> axis_cli_flags() {
  return {
#define IW_AXIS_FLAG(field, Type, flag, column, default_) flag,
      IW_SWEEP_AXES(IW_AXIS_FLAG)
#undef IW_AXIS_FLAG
  };
}

}  // namespace iw::sweep
