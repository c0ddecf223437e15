#include "verify/verify.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "support/csv.hpp"
#include "sweep/runner.hpp"

namespace iw::verify {
namespace {

/// Expands the scenario and (quick mode) thins to the declared subset.
std::vector<sweep::SweepPoint> points_for(const sweep::Scenario& scenario,
                                          bool quick) {
  std::vector<sweep::SweepPoint> points = sweep::expand(scenario.spec);
  if (!quick || scenario.quick_subset.empty()) return points;
  std::vector<sweep::SweepPoint> subset;
  subset.reserve(scenario.quick_subset.size());
  for (const std::size_t index : scenario.quick_subset) {
    if (index >= points.size())
      throw std::runtime_error("scenario " + scenario.name +
                               ": quick_subset index " +
                               std::to_string(index) + " out of range");
    subset.push_back(points[index]);
  }
  return subset;
}

sweep::CampaignResult run_points(const std::vector<sweep::SweepPoint>& points,
                                 const VerifyOptions& options) {
  sweep::RunnerOptions runner;
  runner.threads = options.threads;
  return sweep::run_campaign(points, runner);
}

bool diff_names(const DiffReport& report, std::uint64_t index,
                const std::string& column) {
  return std::any_of(report.field_diffs.begin(), report.field_diffs.end(),
                     [&](const FieldDiff& d) {
                       return d.record_index == index && d.column == column;
                     });
}

/// Perturbs column `column` of `records[row]` to a value that must exceed
/// every sane tolerance: numeric fields scale-and-shift, text flips.
void perturb(std::vector<sweep::SweepRecord>& records, std::size_t row,
             const std::string& column) {
  const std::size_t c = *sweep::column_index(column);
  sweep::SweepRecord& rec = records[row];
  const std::string old = sweep::column_value(rec, c);
  const auto type = sweep::record_schema()[c].type;
  if (type == sweep::ColumnType::text) {
    sweep::set_column(rec, c, old + "_mutated");
  } else if (type == sweep::ColumnType::f64) {
    sweep::set_column(rec, c,
                      csv_num(sweep::column_number(rec, c) * 1.01 + 1.0));
  } else if (type == sweep::ColumnType::u64) {
    sweep::set_column(rec, c, std::to_string(std::stoull(old) + 1));
  } else {
    sweep::set_column(rec, c, std::to_string(std::stoll(old) + 1));
  }
}

MutationOutcome run_mutation(const std::string& scenario_name,
                             const std::vector<sweep::SweepRecord>& golden,
                             const std::vector<sweep::SweepRecord>& fresh,
                             const VerifyOptions& options,
                             const std::string& target,
                             const std::string& column) {
  MutationOutcome outcome;
  outcome.target = target;
  outcome.column = column;

  std::vector<sweep::SweepRecord> mut_golden = golden;
  std::vector<sweep::SweepRecord> mut_fresh = fresh;
  if (fresh.empty() || golden.empty()) {
    outcome.detail = "no records to mutate";
    return outcome;
  }
  // Mutate the row corresponding to the middle *fresh* record: in quick
  // mode the fresh run covers a subset of golden indices, and a mutation
  // the differ never compares would be a vacuous probe. Middle rather than
  // first catches differs that only look at edges.
  const std::uint64_t index = fresh[fresh.size() / 2].index;
  outcome.record_index = index;
  auto& mutated = target == "golden" ? mut_golden : mut_fresh;
  const auto row = std::find_if(
      mutated.begin(), mutated.end(),
      [&](const sweep::SweepRecord& r) { return r.index == index; });
  if (row == mutated.end()) {
    outcome.detail = "no " + target + " record with index " +
                     std::to_string(index) + " to mutate";
    return outcome;
  }
  perturb(mutated, static_cast<std::size_t>(row - mutated.begin()), column);

  const DiffReport report =
      diff_records(mut_golden, mut_fresh, options.policy, false);
  outcome.caught = diff_names(report, outcome.record_index, column);
  std::ostringstream os;
  if (outcome.caught)
    os << "differ named scenario '" << scenario_name << "' record "
       << outcome.record_index << " column '" << column << "'";
  else
    os << "differ MISSED the perturbed " << target << " field '" << column
       << "' at record " << outcome.record_index << " (" <<
        report.field_diffs.size() << " unrelated diffs)";
  outcome.detail = os.str();
  return outcome;
}

void self_check(ScenarioVerdict& verdict, const GoldenCorpus& corpus,
                const std::vector<sweep::SweepRecord>& fresh,
                const VerifyOptions& options) {
  // One perturbed golden field per tolerance class, one perturbed sim
  // observable, one perturbed protocol-axis column (schema-v2 coverage):
  // all four must be caught and named.
  verdict.mutations.push_back(run_mutation(verdict.scenario, corpus.records,
                                           fresh, options, "golden",
                                           "v_up_ranks_per_sec"));
  verdict.mutations.push_back(run_mutation(
      verdict.scenario, corpus.records, fresh, options, "golden", "seed"));
  verdict.mutations.push_back(run_mutation(verdict.scenario, corpus.records,
                                           fresh, options, "sim",
                                           "cycle_us"));
  verdict.mutations.push_back(run_mutation(
      verdict.scenario, corpus.records, fresh, options, "golden", "nic_depth"));
}

// ---- JSON rendering -------------------------------------------------------

std::string json_bool(bool b) { return b ? "true" : "false"; }

/// JSON has no NaN/inf literals; a verdict describing a non-finite
/// observable must still parse, so non-finite numbers are emitted as
/// quoted strings ("nan", "inf").
std::string json_num(double v) {
  return std::isfinite(v) ? csv_num(v) : json_str(csv_num(v));
}

void append_diff(std::ostringstream& os, const FieldDiff& d) {
  os << "{\"record_index\":" << d.record_index << ",\"column\":"
     << json_str(d.column) << ",\"expected\":" << json_str(d.expected)
     << ",\"actual\":" << json_str(d.actual) << ",\"rel_err\":"
     << json_num(d.rel_err) << "}";
}

void append_violation(std::ostringstream& os, const OracleViolation& v) {
  os << "{\"record_index\":" << v.record_index << ",\"check\":"
     << json_str(v.check) << ",\"column\":" << json_str(v.column)
     << ",\"value\":" << json_num(v.value) << ",\"bound\":" << json_num(v.bound)
     << ",\"detail\":" << json_str(v.detail) << "}";
}

void append_mutation(std::ostringstream& os, const MutationOutcome& m) {
  os << "{\"target\":" << json_str(m.target) << ",\"column\":"
     << json_str(m.column) << ",\"record_index\":" << m.record_index
     << ",\"caught\":" << json_bool(m.caught) << ",\"detail\":"
     << json_str(m.detail) << "}";
}

template <typename T, typename Fn>
void append_array(std::ostringstream& os, const std::vector<T>& items,
                  Fn append_item) {
  os << '[';
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) os << ',';
    append_item(os, items[i]);
  }
  os << ']';
}

}  // namespace

bool ScenarioVerdict::pass() const {
  if (!error.empty() || !diff.clean() || !oracle.clean()) return false;
  return std::all_of(mutations.begin(), mutations.end(),
                     [](const MutationOutcome& m) { return m.caught; });
}

ScenarioVerdict verify_scenario(const sweep::Scenario& scenario,
                                const VerifyOptions& options) {
  ScenarioVerdict verdict;
  verdict.scenario = scenario.name;
  verdict.golden_file = golden_path(options.golden_dir, scenario.name);
  // Per-phase stopwatch for the verdict's timing block.
  auto mark = std::chrono::steady_clock::now();
  const auto begin = mark;
  const auto lap = [&mark] {
    const auto now = std::chrono::steady_clock::now();
    const double s = std::chrono::duration<double>(now - mark).count();
    mark = now;
    return s;
  };
  try {
    const GoldenCorpus corpus = load_golden(verdict.golden_file);
    if (corpus.scenario != scenario.name)
      throw std::runtime_error("golden corpus is for scenario '" +
                               corpus.scenario + "', expected '" +
                               scenario.name + "'");
    verdict.timing.load = lap();

    const auto points = points_for(scenario, options.quick);
    const sweep::CampaignResult result = run_points(points, options);
    verdict.records_run = result.records.size();
    verdict.seconds = result.seconds;
    verdict.timing.campaign = lap();

    verdict.diff = diff_records(corpus.records, result.records, options.policy,
                                /*expect_full=*/!options.quick);
    verdict.timing.diff = lap();
    verdict.oracle = check_oracles(scenario, result.records);
    verdict.timing.oracle = lap();
    if (options.self_check) {
      self_check(verdict, corpus, result.records, options);
      verdict.timing.self_check = lap();
    }
  } catch (const std::exception& e) {
    verdict.error = e.what();
  }
  verdict.timing.total =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
          .count();
  return verdict;
}

std::string update_golden(const sweep::Scenario& scenario,
                          const VerifyOptions& options) {
  const auto points = sweep::expand(scenario.spec);
  const sweep::CampaignResult result = run_points(points, options);
  if (result.records.size() != points.size())
    throw std::runtime_error("scenario " + scenario.name +
                             ": campaign incomplete (" +
                             std::to_string(result.records.size()) + "/" +
                             std::to_string(points.size()) + " points)");
  const std::string path = golden_path(options.golden_dir, scenario.name);
  write_golden(path, scenario.name, result.records);
  return path;
}

std::string verdict_json(const std::vector<ScenarioVerdict>& verdicts) {
  std::ostringstream os;
  // Verdict-document schema v2: per-scenario "timing" phase breakdown.
  os << "{\"schema\":2,\"pass\":" << json_bool(all_pass(verdicts))
     << ",\"scenarios\":[";
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    const ScenarioVerdict& v = verdicts[i];
    if (i) os << ',';
    os << "{\"name\":" << json_str(v.scenario) << ",\"golden\":"
       << json_str(v.golden_file) << ",\"pass\":" << json_bool(v.pass())
       << ",\"error\":" << json_str(v.error) << ",\"records_run\":"
       << v.records_run << ",\"seconds\":" << csv_num(v.seconds)
       << ",\"timing\":{\"total_s\":" << json_num(v.timing.total)
       << ",\"load_s\":" << json_num(v.timing.load)
       << ",\"campaign_s\":" << json_num(v.timing.campaign)
       << ",\"diff_s\":" << json_num(v.timing.diff)
       << ",\"oracle_s\":" << json_num(v.timing.oracle)
       << ",\"self_check_s\":" << json_num(v.timing.self_check) << "}"
       << ",\"records_compared\":" << v.diff.records_compared
       << ",\"field_diffs\":";
    append_array(os, v.diff.field_diffs, append_diff);
    os << ",\"structural\":";
    append_array(os, v.diff.structural,
                 [](std::ostringstream& o, const std::string& s) {
                   o << json_str(s);
                 });
    os << ",\"oracle\":{\"records_checked\":" << v.oracle.records_checked
       << ",\"speed_checks\":" << v.oracle.speed_checks << ",\"violations\":";
    append_array(os, v.oracle.violations, append_violation);
    os << "},\"mutations\":";
    append_array(os, v.mutations, append_mutation);
    os << "}";
  }
  os << "]}";
  return os.str();
}

bool all_pass(const std::vector<ScenarioVerdict>& verdicts) {
  return !verdicts.empty() &&
         std::all_of(verdicts.begin(), verdicts.end(),
                     [](const ScenarioVerdict& v) { return v.pass(); });
}

}  // namespace iw::verify
