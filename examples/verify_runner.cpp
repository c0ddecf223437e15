// Golden-corpus verification CLI: replay catalog scenarios and certify them
// against checked-in reference results and the analytic oracles.
//
//   ./build/examples/verify_runner --all                  # full certification
//   ./build/examples/verify_runner --all --quick          # CI subset
//   ./build/examples/verify_runner --scenario=decay_vs_size --json=verdict.json
//   ./build/examples/verify_runner --all --quick --self-check
//   ./build/examples/verify_runner --all --update-goldens # refresh corpus
//
// Baseline mode compares verdict JSON documents across revisions and exits
// nonzero on a regression-class transition (pass -> fail, coverage lost,
// still-failing-but-worse):
//
//   # pure diff of two archived verdicts, no simulation:
//   ./build/examples/verify_runner --baseline=old.json --candidate=new.json
//   # run the selected scenarios fresh and gate against the archive:
//   ./build/examples/verify_runner --all --quick --baseline=old.json
//
// Exit codes: 0 = every selected scenario passed (zero field diffs, zero
// oracle violations, every mutation probe caught) and no baseline
// regression; 1 = verification failed; 2 = usage error. --json writes the
// machine-readable verdict with every offending scenario/record/field named.
//
// --update-goldens reruns the *full* campaigns and rewrites tests/golden/.
// Only legitimate after a change that intentionally alters simulation
// physics or the record schema — never to quiet a failing perf PR.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "support/cli.hpp"
#include "support/table.hpp"
#include "sweep/scenario.hpp"
#include "verify/baseline.hpp"
#include "verify/verify.hpp"

// Default corpus location, baked at configure time so a fresh checkout
// verifies without flags; overridable with --goldens for tests/tooling.
#ifndef IW_GOLDEN_DIR
#define IW_GOLDEN_DIR "tests/golden"
#endif

namespace {

using namespace iw;

std::vector<const sweep::Scenario*> select_scenarios(const Cli& cli) {
  std::vector<const sweep::Scenario*> selected;
  if (cli.has("all")) {
    for (const sweep::Scenario& s : sweep::scenario_catalog())
      selected.push_back(&s);
    return selected;
  }
  const std::string name = cli.get_or("scenario", std::string{});
  if (const sweep::Scenario* s = sweep::find_scenario(name)) {
    selected.push_back(s);
    return selected;
  }
  std::cerr << (name.empty() ? "pick --scenario=<name> or --all"
                             : "unknown scenario: " + name)
            << "\nknown:";
  for (const auto& known : sweep::scenario_names()) std::cerr << ' ' << known;
  std::cerr << '\n';
  return {};
}

/// Renders the baseline comparison and returns whether it gates the run.
bool baseline_regressed(const verify::VerdictDocument& baseline,
                        const verify::VerdictDocument& candidate, bool quiet) {
  const verify::BaselineReport report =
      verify::diff_verdicts(baseline, candidate);
  if (!quiet) {
    std::cout << report.render();
    std::cout << (report.regression() ? "BASELINE REGRESSION"
                                      : "BASELINE CLEAN")
              << " (" << report.deltas.size() << " scenario"
              << (report.deltas.size() == 1 ? "" : "s") << " compared)\n";
  }
  return report.regression();
}

int verify_main(int argc, char** argv) {
  const Cli cli(argc, argv);
  cli.allow_only({"scenario", "all", "quick", "update-goldens", "self-check",
                  "goldens", "json", "threads", "quiet", "baseline",
                  "candidate"});

  const bool quiet_flag = cli.has("quiet");
  // Pure verdict-diff mode: both documents come from files, nothing is
  // simulated. The usual scenario selection does not apply.
  if (const auto candidate_path = cli.get("candidate")) {
    const auto baseline_path = cli.get("baseline");
    if (!baseline_path) {
      std::cerr << "--candidate needs --baseline=<verdict.json>\n";
      return 2;
    }
    return baseline_regressed(verify::load_verdict(*baseline_path),
                              verify::load_verdict(*candidate_path),
                              quiet_flag)
               ? 1
               : 0;
  }

  verify::VerifyOptions options;
  options.golden_dir = cli.get_or("goldens", std::string{IW_GOLDEN_DIR});
  options.quick = cli.has("quick");
  options.threads = cli.get_int_or("threads", 1);
  options.self_check = cli.has("self-check");
  const bool quiet = cli.has("quiet");

  const auto selected = select_scenarios(cli);
  if (selected.empty()) return 2;

  if (cli.has("update-goldens")) {
    for (const sweep::Scenario* s : selected) {
      const std::string path = verify::update_golden(*s, options);
      if (!quiet) std::cout << "wrote golden: " << path << '\n';
    }
    return 0;
  }

  std::vector<verify::ScenarioVerdict> verdicts;
  for (const sweep::Scenario* s : selected) {
    verdicts.push_back(verify::verify_scenario(*s, options));
    const verify::ScenarioVerdict& v = verdicts.back();
    if (quiet) continue;
    std::cerr << "  " << v.scenario << ": " << (v.pass() ? "pass" : "FAIL")
              << " (" << v.records_run << " points, "
              << fmt_fixed(v.seconds, 2) << " s)\n";
  }

  if (!quiet) {
    TextTable table;
    table.columns({"scenario", "points", "field diffs", "structural",
                   "oracle violations", "mutations caught", "verdict"});
    for (const verify::ScenarioVerdict& v : verdicts) {
      std::size_t caught = 0;
      for (const auto& m : v.mutations) caught += m.caught ? 1 : 0;
      table.add_row(
          {v.scenario, std::to_string(v.records_run),
           std::to_string(v.diff.field_diffs.size()),
           std::to_string(v.diff.structural.size()),
           std::to_string(v.oracle.violations.size()),
           v.mutations.empty() ? "-"
                               : std::to_string(caught) + "/" +
                                     std::to_string(v.mutations.size()),
           !v.error.empty() ? "ERROR" : (v.pass() ? "pass" : "FAIL")});
    }
    std::cout << table.render();
    for (const verify::ScenarioVerdict& v : verdicts) {
      if (!v.error.empty())
        std::cout << v.scenario << ": error: " << v.error << '\n';
      for (const auto& d : v.diff.field_diffs)
        std::cout << v.scenario << ": record " << d.record_index << " field "
                  << d.column << ": golden=" << d.expected
                  << " fresh=" << d.actual << " (rel_err=" << d.rel_err
                  << ")\n";
      for (const auto& s : v.diff.structural)
        std::cout << v.scenario << ": structural: " << s << '\n';
      for (const auto& o : v.oracle.violations)
        std::cout << v.scenario << ": oracle " << o.check << ": record "
                  << o.record_index << " field " << o.column << ": "
                  << o.detail << " (value=" << o.value << " bound=" << o.bound
                  << ")\n";
      for (const auto& m : v.mutations)
        if (!m.caught)
          std::cout << v.scenario << ": self-check: " << m.detail << '\n';
    }
  }

  if (const auto json_path = cli.get("json")) {
    std::ofstream out(*json_path);
    out << verify::verdict_json(verdicts) << '\n';
    if (!out) {
      std::cerr << "cannot write verdict: " << *json_path << '\n';
      return 2;
    }
    if (!quiet) std::cout << "wrote verdict: " << *json_path << '\n';
  }

  bool pass = verify::all_pass(verdicts);
  // Fresh-run baseline gate: round-trip the fresh verdicts through the
  // JSON serializer so the comparison sees exactly what an archived
  // candidate file would contain.
  if (const auto baseline_path = cli.get("baseline")) {
    const auto fresh =
        verify::parse_verdict_json(verify::verdict_json(verdicts));
    if (baseline_regressed(verify::load_verdict(*baseline_path), fresh,
                           quiet))
      pass = false;
  }
  if (!quiet)
    std::cout << (pass ? "VERIFY PASS" : "VERIFY FAIL") << " ("
              << verdicts.size() << " scenario"
              << (verdicts.size() == 1 ? "" : "s")
              << (options.quick ? ", quick subsets" : ", full campaigns")
              << ")\n";
  return pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return verify_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << (argc > 0 ? argv[0] : "verify_runner")
              << ": error: " << e.what() << '\n';
    return 2;
  }
}
