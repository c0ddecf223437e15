// idlewave_bench: the end-to-end and per-layer benchmark of the simulator.
//
//   idlewave_bench --workload=<name> --seed=<n> [--seconds=10] [--trace]
//                  [--threads=1] [--json=<out>] [--scratch=<dir>]
//   idlewave_bench --all --seed=<n> [--seconds=10] [--trace] [--threads=1]
//                  [--json=<out>]
//   idlewave_bench --smoke [--threads=1] [--scratch=<dir>]
//
// One workload per invocation prints every metric by name and unit, the
// records fingerprint and the checks, and as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"} holding the end-to-end
// metrics (or, with --trace, the per-layer metrics) that BENCHMARK.json
// declares. --all runs each workload in its own child process, so that
// peak_rss_mb is per workload; --smoke is --all --trace at ~1% size with
// every check on, and also checks the output against BENCHMARK.json. The
// exit code is non-zero when any correctness check fails. A workload run
// times its set-ups in child processes started with --setup-probe=<rep>.
#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "process.hpp"
#include "support/cli.hpp"
#include "support/csv.hpp"
#include "support/json.hpp"
#include "workloads.hpp"

namespace {

using namespace iw;
using namespace iw::bench;

std::string num(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// The metric names and units BENCHMARK.json declares.
struct Declaration {
  std::vector<std::pair<std::string, std::string>> end_to_end;
  std::vector<std::pair<std::string, std::string>> per_layer;
};

Declaration load_declaration(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  const json::Value doc = json::parse(text.str(), path);
  Declaration d;
  const auto read = [&](const char* key, auto& out) {
    const json::Value* list = doc.find(key);
    if (list == nullptr || !list->is(json::Value::Kind::array))
      throw std::runtime_error(path + ": missing \"" + key + "\" list");
    for (const json::Value& m : list->items)
      out.emplace_back(m.find("name")->text, m.find("unit")->text);
  };
  read("end_to_end", d.end_to_end);
  read("per_layer", d.per_layer);
  return d;
}

/// Problems with a result's rows against the declaration: a declared metric
/// missing or in another unit, or (strict) a measured metric not declared.
std::vector<std::string> shape_problems(
    const std::vector<Row>& rows,
    const std::vector<std::pair<std::string, std::string>>& declared,
    bool strict) {
  std::vector<std::string> problems;
  for (const auto& [name, unit] : declared) {
    const auto it =
        std::find_if(rows.begin(), rows.end(),
                     [&](const Row& r) { return r.metric == name; });
    if (it == rows.end())
      problems.push_back("missing metric " + name);
    else if (it->unit != unit)
      problems.push_back(name + " in " + it->unit + ", declared " + unit);
  }
  if (strict)
    for (const Row& r : rows)
      if (std::none_of(declared.begin(), declared.end(),
                       [&](const auto& d) { return d.first == r.metric; }))
        problems.push_back("undeclared metric " + r.metric);
  return problems;
}

void print_rows(const std::vector<Row>& rows) {
  for (const Row& r : rows) {
    std::cout << "  " << std::left << std::setw(32) << r.metric << std::right
              << std::setw(16) << std::setprecision(6) << r.value << " "
              << std::left << std::setw(6) << r.unit << std::right;
    if (r.reps > 1)
      std::cout << " n=" << r.reps << " p10=" << r.p10
                << " median=" << r.median << " p90=" << r.p90;
    std::cout << "\n";
  }
}

std::string rows_json(const std::vector<Row>& rows, const std::string& wl) {
  std::string out = "[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out += (i ? "," : "") + json_object({{"layer", json_str(r.layer)},
                                         {"workload", json_str(wl)},
                                         {"metric", json_str(r.metric)},
                                         {"unit", json_str(r.unit)},
                                         {"value", num(r.value)},
                                         {"median", num(r.median)},
                                         {"p10", num(r.p10)},
                                         {"p90", num(r.p90)},
                                         {"reps", std::to_string(r.reps)}});
  }
  return out + "]";
}

std::string metrics_json(const std::vector<Row>& rows,
                         const std::vector<std::pair<std::string, std::string>>&
                             declared) {
  std::vector<std::pair<std::string, std::string>> fields;
  for (const auto& [name, unit] : declared)
    for (const Row& r : rows)
      if (r.metric == name)
        fields.emplace_back(name, json_object({{"value", num(r.value)},
                                               {"unit", json_str(unit)}}));
  return json_object(fields);
}

/// The workload's entry in the --json document.
std::string workload_json(const WorkloadResult& r) {
  std::string self = "{";
  bool first = true;
  for (const auto& [name, t] : r.self_times) {
    self += (first ? "" : ",") + json_str(name) + ":" +
            json_object({{"count", std::to_string(t.count)},
                         {"total_ms", num(t.total_ms)},
                         {"self_ms", num(t.self_ms)}});
    first = false;
  }
  self += "}";
  std::string fails = "[";
  for (std::size_t i = 0; i < r.failures.size(); ++i)
    fails += (i ? "," : "") + json_str(r.failures[i]);
  fails += "]";
  return json_object(
      {{"correct", r.failed == 0 ? "true" : "false"},
       {"attempted", std::to_string(r.attempted)},
       {"failed", std::to_string(r.failed)},
       {"failures", fails},
       {"records_fingerprint", json_str(r.fingerprint.hex())},
       {"fingerprint_lines", std::to_string(r.fingerprint.lines())},
       {"e2e", rows_json(r.e2e, r.workload)},
       {"layers", rows_json(r.layers, r.workload)},
       {"self_time", self}});
}

std::string document(const RunConfig& cfg, const std::string& workloads) {
  return json_object({{"bench", json_str("idlewave_bench")},
                      {"seed", std::to_string(cfg.seed)},
                      {"seconds", num(cfg.seconds)},
                      {"threads", std::to_string(cfg.threads)},
                      {"trace", cfg.trace ? "true" : "false"},
                      {"smoke", cfg.smoke ? "true" : "false"},
                      {"workloads", workloads}}) +
         "\n";
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

int run_one(const RunConfig& cfg, const Declaration& decl,
            const std::string& json_path) {
  std::cout << "idlewave_bench " << cfg.workload << ": seed=" << cfg.seed
            << " seconds=" << cfg.seconds << " threads=" << cfg.threads
            << (cfg.trace ? " traced" : "") << (cfg.smoke ? " smoke" : "")
            << std::endl;
  const WorkloadResult r = run_workload(cfg);
  print_rows(r.e2e);
  print_rows(r.layers);
  if (!r.self_times.empty()) {
    std::cout << "  self time by span (traced run):\n";
    for (const auto& [name, t] : r.self_times)
      std::cout << "    " << std::left << std::setw(30) << name << std::right
                << std::setw(8) << t.count << " spans " << std::setw(12)
                << t.total_ms << " ms total " << std::setw(12) << t.self_ms
                << " ms self\n";
  }
  std::cout << "  records_fingerprint " << r.fingerprint.hex() << " ("
            << r.fingerprint.lines() << " lines)\n"
            << "  attempted=" << r.attempted << " failed=" << r.failed << "\n";
  for (const std::string& f : r.failures)
    std::cout << "  FAILED: " << f << "\n";

  const auto& declared = cfg.trace ? decl.per_layer : decl.end_to_end;
  std::vector<std::string> problems =
      shape_problems(cfg.trace ? r.layers : r.e2e, declared, cfg.smoke);
  if (cfg.trace && cfg.smoke)
    for (std::string& p : shape_problems(r.e2e, decl.end_to_end, true))
      problems.push_back(std::move(p));
  if (!problems.empty()) {
    for (const std::string& p : problems)
      std::cerr << "idlewave_bench: " << p << "\n";
    return 2;
  }
  if (!json_path.empty())
    write_file(json_path,
               document(cfg, json_object({{cfg.workload, workload_json(r)}})));
  std::cout << json_object({{"correct", r.failed == 0 ? "true" : "false"},
                            {"attempted", std::to_string(r.attempted)},
                            {"failed", std::to_string(r.failed)},
                            {"metrics", metrics_json(cfg.trace ? r.layers
                                                               : r.e2e,
                                                     declared)}})
            << std::endl;
  return r.failed == 0 ? 0 : 1;
}

/// Re-serializes a parsed document (numbers keep all their digits).
std::string to_json(const json::Value& v) {
  switch (v.kind) {
    case json::Value::Kind::null: return "null";
    case json::Value::Kind::boolean: return v.boolean ? "true" : "false";
    case json::Value::Kind::number: return num(v.number);
    case json::Value::Kind::string: return json_str(v.text);
    case json::Value::Kind::array: {
      std::string out = "[";
      for (std::size_t i = 0; i < v.items.size(); ++i)
        out += (i ? "," : "") + to_json(v.items[i]);
      return out + "]";
    }
    case json::Value::Kind::object: {
      std::vector<std::pair<std::string, std::string>> fields;
      for (const auto& [key, member] : v.members)
        fields.emplace_back(key, to_json(member));
      return json_object(fields);
    }
  }
  return "null";
}

/// Runs each workload in a child process of this binary and merges their
/// documents.
int run_all(const RunConfig& cfg, const std::string& json_path) {
  int status_all = 0;
  std::vector<std::pair<std::string, std::string>> merged;
  for (const std::string& name : workload_names()) {
    const std::string scratch = cfg.scratch + "/" + name;
    ::mkdir(scratch.c_str(), 0755);
    const std::string doc_path = scratch + "/result.json";
    std::vector<std::string> args = {
        "idlewave_bench",
        "--workload=" + name,
        "--seed=" + std::to_string(cfg.seed),
        "--seconds=" + num(cfg.seconds),
        "--threads=" + std::to_string(cfg.threads),
        "--scratch=" + scratch,
        "--json=" + doc_path};
    if (cfg.trace) args.push_back("--trace");
    if (cfg.smoke) args.push_back("--smoke-size");
    const int code = wait_child(spawn_self(std::move(args)));
    if (code != 0) {
      std::cerr << "idlewave_bench: workload " << name << " exited with "
                << code << "\n";
      status_all = 1;
      continue;
    }
    std::ifstream in(doc_path);
    std::stringstream text;
    text << in.rdbuf();
    const json::Value doc = json::parse(text.str(), doc_path);
    const json::Value* wl = doc.find("workloads");
    if (wl == nullptr || wl->find(name) == nullptr)
      throw std::runtime_error(doc_path + ": no result for " + name);
    merged.emplace_back(name, to_json(*wl->find(name)));
  }
  if (!json_path.empty())
    write_file(json_path, document(cfg, json_object(merged)));
  std::cout << "idlewave_bench: " << merged.size() << "/"
            << workload_names().size() << " workloads passed every check\n";
  return status_all;
}

int bench_main(int argc, char** argv) {
  if (const int rc = refuse_if_instrumented("idlewave_bench")) return rc;
  const Cli cli(argc, argv);
  cli.allow_only({"workload", "seed", "seconds", "trace", "all", "smoke",
                  "smoke-size", "json", "scratch", "threads", "setup-probe"});
  RunConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(cli.get_or("seed", std::int64_t{1}));
  cfg.seconds = cli.get_or("seconds", 10.0);
  // One worker thread by default: on a shared host a pass on several
  // threads times the scheduler as much as the simulator.
  cfg.threads = static_cast<int>(cli.get_or("threads", std::int64_t{1}));
  if (cfg.threads < 1) throw std::invalid_argument("--threads must be >= 1");
  cfg.trace = cli.has("trace") || cli.has("smoke");
  cfg.smoke = cli.has("smoke") || cli.has("smoke-size");
  cfg.scratch = cli.get_or("scratch", std::string{"."});
  cfg.golden_dir = IW_BENCH_GOLDEN_DIR;
  const std::string json_path = cli.get_or("json", std::string{});
  if (cfg.seconds < 0.0) throw std::invalid_argument("--seconds must be >= 0");
  ::mkdir(cfg.scratch.c_str(), 0755);
  const Declaration decl = load_declaration(IW_BENCH_DECLARATION);

  if (cli.has("all") || cli.has("smoke")) return run_all(cfg, json_path);
  cfg.workload = cli.get_or("workload", std::string{});
  if (std::find(workload_names().begin(), workload_names().end(),
                cfg.workload) == workload_names().end())
    throw std::invalid_argument("--workload must be one of catalog_campaign, "
                                "decay_long, verify_corpus, service_mix");
  if (cli.has("setup-probe")) {
    // A timed set-up of the parent run: the line tells it when we are ready.
    const bool ok = run_setup(
        cfg, static_cast<int>(cli.get_or("setup-probe", std::int64_t{0})));
    std::cout << (ok ? "ready" : "failed") << std::endl;
    return ok ? 0 : 1;
  }
  return run_one(cfg, decl, json_path);
}

}  // namespace

int main(int argc, char** argv) {
  return iw::bench::guarded_main(bench_main, argc, argv);
}
