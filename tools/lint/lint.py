#!/usr/bin/env python3
"""idlewave project lint: structural rules the compiler cannot enforce.

Rules (each line of output is `path:line: [rule] message`):

  banned-construct   std::function / std::unordered_map / std::shared_ptr in
                     the hot-path trees (src/sim/, src/mpi/, src/service/ —
                     the daemon shares the sweep worker pool). These layers
                     were flattened deliberately (PR 1/PR 4): type-erased
                     dispatch, hashing and refcounts on the per-event or
                     per-message path are regressions, not style. Exceptions
                     live in tools/lint/allowlist.txt with a reason.
  source-registration  every src/**/*.cpp appears in src/CMakeLists.txt and
                     vice versa (the library lists sources explicitly; an
                     unlisted file silently never links), and every
                     tests/**/*.cpp contains a TEST macro and produces a
                     unique auto-registered target name.
  include-hygiene    every header under src/ uses `#pragma once` (before any
                     other preprocessor directive) and never an #ifndef
                     include guard — one convention, enforced.
  golden-schema      every tests/golden/*.csv declares the schema-version
                     header `# iw-golden schema=<v> scenario=<stem>
                     points=<n>`, where <stem> matches the filename and <n>
                     matches the data-row count (verify/golden.cpp rejects
                     drift at load time; this catches it at review time).
  transport-config-validate  every field of the TransportConfig policy
                     structs (NicModel, EagerPolicy, RendezvousPolicy in
                     src/mpi/transport_config.hpp) is referenced as
                     `<group>.<field>` inside TransportConfig::validate()
                     (src/mpi/transport_config.cpp) — a knob the validator
                     never looks at is a knob that can silently hold garbage.
  stats-in-registry  every field of Transport::Stats and
                     Transport::PoolStats (src/mpi/transport.hpp) is
                     referenced as `.<field>` in the unified metrics
                     publisher (src/obs/metrics.cpp) — a counter the
                     registry never exports is invisible to every metrics
                     consumer and rots silently.
  soa-hot-structs    the struct-of-arrays hot state (src/mpi/trace.hpp,
                     src/mpi/process.hpp, src/core/cluster.hpp) must never
                     grow per-rank heap objects: nested vectors, vectors of
                     strings, node-based containers (deque/list) and smart
                     pointers anywhere — also wrapped in a struct that a
                     vector then holds — re-introduce a heap allocation per
                     rank and break the fixed memory-per-rank budget the
                     machine-scale path depends on. Rank state stays flat
                     slabs plus row descriptors.
  src-reachability   every src/ file is reachable through #include chains
                     from a non-test target (examples/, bench/,
                     idlewave_bench/); a .cpp counts as reached with its
                     header. Code only tests reach is a seam no golden,
                     bench or example exercises. Exceptions live in
                     tools/lint/allowlist.txt as `<path> src-reachability`,
                     each with the ROADMAP item that resolves it. An entry
                     is stale, and flagged, once its file is gone or a
                     non-test target reaches it, so the list only shrinks
                     by deleting entries.

Exit status: 0 clean, 1 violations found, 2 internal error.

`--self-test` seeds one violation per rule into a temp tree and requires the
runner to flag each (and to stay quiet on a clean miniature tree) — so a
broken rule fails CI instead of rotting into always-green.
"""

from __future__ import annotations

import argparse
import re
import sys
import tempfile
from pathlib import Path

BANNED = ("std::function", "std::unordered_map", "std::shared_ptr")
HOT_TREES = ("src/sim", "src/mpi", "src/service")
GOLDEN_HEADER = re.compile(
    r"^# iw-golden schema=(\d+) scenario=([A-Za-z0-9_]+) points=(\d+)$")


def strip_comments(text: str) -> str:
    """Removes //, /* */ comments and string/char literals, preserving line
    structure so reported line numbers stay correct."""
    out: list[str] = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | str | chr
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                i += 2
                continue
            if c == '"':
                state = "str"
                i += 1
                continue
            if c == "'":
                state = "chr"
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append(c)
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                i += 2
                continue
            if c == "\n":
                out.append(c)
        elif state in ("str", "chr"):
            if c == "\\":
                i += 2
                continue
            if (state == "str" and c == '"') or (state == "chr" and c == "'"):
                state = "code"
            elif c == "\n":  # unterminated literal; never valid C++, recover
                state = "code"
                out.append(c)
        i += 1
    return "".join(out)


def load_allowlist(repo: Path) -> set[tuple[str, str]]:
    """(relative path, construct or rule) pairs: exemptions from
    banned-construct, and from src-reachability."""
    allow: set[tuple[str, str]] = set()
    path = repo / "tools" / "lint" / "allowlist.txt"
    if not path.is_file():
        return allow
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise SystemExit(f"allowlist.txt: malformed entry: {raw!r}")
        allow.add((parts[0], parts[1]))
    return allow


def check_banned_constructs(repo: Path) -> list[str]:
    problems = []
    allow = load_allowlist(repo)
    for tree in HOT_TREES:
        for path in sorted((repo / tree).rglob("*")):
            if path.suffix not in (".hpp", ".cpp", ".h"):
                continue
            rel = path.relative_to(repo).as_posix()
            code = strip_comments(path.read_text())
            for lineno, line in enumerate(code.splitlines(), start=1):
                for construct in BANNED:
                    if construct not in line:
                        continue
                    if (rel, construct) in allow:
                        continue
                    problems.append(
                        f"{rel}:{lineno}: [banned-construct] {construct} in a "
                        f"hot-path tree (allowlist: tools/lint/allowlist.txt)")
    return problems


def check_source_registration(repo: Path) -> list[str]:
    problems = []
    cml = repo / "src" / "CMakeLists.txt"
    listed = set(re.findall(r"^\s+([\w/]+\.cpp)$", cml.read_text(), re.M))
    on_disk = {p.relative_to(repo / "src").as_posix()
               for p in (repo / "src").rglob("*.cpp")}
    for missing in sorted(on_disk - listed):
        problems.append(
            f"src/{missing}:1: [source-registration] not listed in "
            f"src/CMakeLists.txt — it will never be linked into the library")
    for stale in sorted(listed - on_disk):
        problems.append(
            f"src/CMakeLists.txt:1: [source-registration] lists src/{stale} "
            f"which does not exist")

    # Tests: the build glob auto-registers every tests/**/*.cpp; require each
    # to actually define tests, and require the path->target transformation
    # (slashes and dots to underscores) to stay collision-free.
    targets: dict[str, str] = {}
    for path in sorted((repo / "tests").rglob("*.cpp")):
        rel = path.relative_to(repo).as_posix()
        text = path.read_text()
        if not re.search(r"\b(TEST|TEST_F|TEST_P|TYPED_TEST)\s*\(", text):
            problems.append(
                f"{rel}:1: [source-registration] contains no TEST macro — it "
                f"builds an executable that exercises nothing")
        target = rel[len("tests/"):].replace("/", "_").replace(".cpp", "")
        if target in targets:
            problems.append(
                f"{rel}:1: [source-registration] auto-registered target name "
                f"'{target}' collides with {targets[target]}")
        else:
            targets[target] = rel
    return problems


def check_include_hygiene(repo: Path) -> list[str]:
    problems = []
    for path in sorted((repo / "src").rglob("*.hpp")):
        rel = path.relative_to(repo).as_posix()
        first_directive = None
        guard_line = None
        for lineno, line in enumerate(
                strip_comments(path.read_text()).splitlines(), start=1):
            stripped = line.strip()
            if not stripped.startswith("#"):
                continue
            if first_directive is None:
                first_directive = (lineno, stripped)
            if re.match(r"#\s*ifndef\s+\w+_(HPP|H)\b", stripped):
                guard_line = lineno
            break_after = False
            if first_directive and guard_line:
                break_after = True
            if break_after:
                break
        if first_directive is None or first_directive[1] != "#pragma once":
            where = first_directive[0] if first_directive else 1
            problems.append(
                f"{rel}:{where}: [include-hygiene] first preprocessor "
                f"directive must be '#pragma once'")
        if guard_line is not None:
            problems.append(
                f"{rel}:{guard_line}: [include-hygiene] #ifndef include "
                f"guard — this repo uses '#pragma once' exclusively")
    return problems


def check_golden_schema(repo: Path) -> list[str]:
    problems = []
    for path in sorted((repo / "tests" / "golden").glob("*.csv")):
        rel = path.relative_to(repo).as_posix()
        lines = path.read_text().splitlines()
        if not lines:
            problems.append(f"{rel}:1: [golden-schema] empty golden file")
            continue
        m = GOLDEN_HEADER.match(lines[0])
        if not m:
            problems.append(
                f"{rel}:1: [golden-schema] first line must be "
                f"'# iw-golden schema=<v> scenario=<name> points=<n>', "
                f"got: {lines[0]!r}")
            continue
        if m.group(2) != path.stem:
            problems.append(
                f"{rel}:1: [golden-schema] scenario '{m.group(2)}' does not "
                f"match filename stem '{path.stem}'")
        data_rows = max(0, len([l for l in lines[1:] if l.strip()]) - 1)
        if int(m.group(3)) != data_rows:
            problems.append(
                f"{rel}:1: [golden-schema] header declares "
                f"points={m.group(3)} but the file holds {data_rows} "
                f"data rows")
    return problems


# (struct name, field prefix inside validate()) for the grouped config.
CONFIG_GROUPS = (
    ("NicModel", "nic"),
    ("EagerPolicy", "eager"),
    ("RendezvousPolicy", "rendezvous"),
)


def struct_body(code: str, name: str, rel: str) -> tuple[int, str]:
    """Returns (first line number, body text) of `struct <name> { ... }`."""
    m = re.search(rf"\bstruct\s+{name}\s*{{", code)
    if not m:
        raise SystemExit(f"{rel}: struct {name} not found")
    depth, i = 1, m.end()
    while i < len(code) and depth:
        depth += {"{": 1, "}": -1}.get(code[i], 0)
        i += 1
    return code.count("\n", 0, m.start()) + 1, code[m.end():i - 1]


def struct_fields(body: str) -> list[str]:
    """Data-member names declared in a struct body (functions excluded)."""
    fields = []
    for raw in body.split(";"):
        # An operator (`bool operator==(...) const = default`) is a member
        # function whose name holds the '=' that would end a field's name.
        if re.search(r"\boperator\b", raw):
            continue
        decl = raw.split("=")[0].strip()
        if not decl or "(" in decl or "{" in decl:
            continue
        name = decl.split()[-1]
        if name.isidentifier():
            fields.append(name)
    return fields


def check_transport_config_validate(repo: Path) -> list[str]:
    hpp = repo / "src" / "mpi" / "transport_config.hpp"
    cpp = repo / "src" / "mpi" / "transport_config.cpp"
    rel_hpp = hpp.relative_to(repo).as_posix()
    if not hpp.is_file() or not cpp.is_file():
        return [f"{rel_hpp}:1: [transport-config-validate] "
                f"transport_config.{'hpp' if not hpp.is_file() else 'cpp'} "
                f"is missing — the grouped config and its validator must "
                f"exist as a pair"]
    header = strip_comments(hpp.read_text())
    source = strip_comments(cpp.read_text())
    m = re.search(r"TransportConfig::validate\(\)\s*const\s*{", source)
    if not m:
        return [f"{cpp.relative_to(repo).as_posix()}:1: "
                f"[transport-config-validate] TransportConfig::validate() "
                f"definition not found"]
    depth, i = 1, m.end()
    while i < len(source) and depth:
        depth += {"{": 1, "}": -1}.get(source[i], 0)
        i += 1
    body = source[m.end():i - 1]

    problems = []
    for struct, prefix in CONFIG_GROUPS:
        lineno, fields = struct_body(header, struct, rel_hpp)
        for field in struct_fields(fields):
            if f"{prefix}.{field}" not in body:
                problems.append(
                    f"{rel_hpp}:{lineno}: [transport-config-validate] "
                    f"{struct}::{field} is never referenced in "
                    f"TransportConfig::validate() — add a check (or an "
                    f"explicit mention of {prefix}.{field} saying why any "
                    f"value is acceptable)")
    return problems


# Transport stat structs that must surface in the metrics registry.
STATS_STRUCTS = ("Stats", "PoolStats")


def check_stats_in_registry(repo: Path) -> list[str]:
    hpp = repo / "src" / "mpi" / "transport.hpp"
    cpp = repo / "src" / "obs" / "metrics.cpp"
    rel_hpp = hpp.relative_to(repo).as_posix()
    if not hpp.is_file() or not cpp.is_file():
        missing = rel_hpp if not hpp.is_file() else "src/obs/metrics.cpp"
        return [f"{missing}:1: [stats-in-registry] missing — the transport "
                f"stats and the metrics publisher must exist as a pair"]
    header = strip_comments(hpp.read_text())
    source = strip_comments(cpp.read_text())

    problems = []
    for struct in STATS_STRUCTS:
        lineno, body = struct_body(header, struct, rel_hpp)
        for field in struct_fields(body):
            if not re.search(rf"\.\s*{field}\b", source):
                problems.append(
                    f"{rel_hpp}:{lineno}: [stats-in-registry] "
                    f"Transport::{struct}::{field} is never referenced in "
                    f"src/obs/metrics.cpp — publish it into the unified "
                    f"metrics registry (add a MetricId and an add()/set_max() "
                    f"in MetricsRegistry::publish)")
    return problems


SOA_HOT_FILES = (
    "src/mpi/trace.hpp",
    "src/mpi/process.hpp",
    "src/core/cluster.hpp",
)
SOA_BANNED = re.compile(
    r"std::vector\s*<\s*std::\s*(vector|string|deque|list|map|unordered_map)\b"
    r"|std::(deque|list|unique_ptr|shared_ptr)\s*<")


def check_soa_hot_structs(repo: Path) -> list[str]:
    """Per-rank heap objects in the SoA hot state."""
    problems = []
    for rel in SOA_HOT_FILES:
        path = repo / rel
        if not path.is_file():
            continue
        text = strip_comments(path.read_text())
        for lineno, line in enumerate(text.splitlines(), 1):
            hit = SOA_BANNED.search(line)
            if hit:
                problems.append(
                    f"{rel}:{lineno}: [soa-hot-structs] per-rank heap "
                    f"object ({hit.group(0).strip()}...) in an SoA hot "
                    f"struct — rank state must stay flat slabs plus row "
                    f"descriptors; hold values, or hoist the container into "
                    f"a shared slab or an object pool")
    return problems


REACHABILITY_ROOTS = ("examples", "bench", "idlewave_bench")
INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.M)


def resolve_include(repo: Path, includer: Path, name: str) -> Path | None:
    """The file a quoted include names: next to the includer first, then
    under src/ and each root directory (the targets' include paths)."""
    for base in (includer.parent, repo / "src",
                 *(repo / d for d in REACHABILITY_ROOTS)):
        candidate = (base / name).resolve()
        if candidate.is_file():
            return candidate
    return None


def check_src_reachability(repo: Path) -> list[str]:
    """src/ files that no example, bench or benchmark target includes."""
    allow = {path for path, what in load_allowlist(repo)
             if what == "src-reachability"}
    pending = [p.resolve() for d in REACHABILITY_ROOTS
               for p in sorted((repo / d).rglob("*"))
               if p.suffix in (".hpp", ".cpp")]
    reached: set[Path] = set()
    while pending:
        path = pending.pop()
        if path in reached:
            continue
        reached.add(path)
        for name in INCLUDE.findall(path.read_text()):
            target = resolve_include(repo, path, name)
            if target is not None:
                pending.append(target)
                # A header's definitions live in its .cpp, linked with it.
                source = target.with_suffix(".cpp")
                if target.suffix == ".hpp" and source.is_file():
                    pending.append(source)
    problems = []
    present: set[str] = set()
    for path in sorted((repo / "src").rglob("*")):
        if path.suffix not in (".hpp", ".cpp"):
            continue
        rel = path.relative_to(repo).as_posix()
        present.add(rel)
        if path.resolve() in reached or rel in allow:
            continue
        problems.append(
            f"{rel}:1: [src-reachability] no example, bench or benchmark "
            f"target includes this file, so only tests exercise it — give "
            f"it a non-test user, delete it, or allowlist it with the "
            f"ROADMAP item that resolves it")
    # Stale exemptions: an entry must keep naming a file only tests reach.
    allowlist = repo / "tools" / "lint" / "allowlist.txt"
    for rel in sorted(allow):
        if rel not in present:
            why = "names a file that no longer exists"
        elif (repo / rel).resolve() in reached:
            why = "names a file a non-test target now reaches"
        else:
            continue
        line = next(i for i, raw in enumerate(
            allowlist.read_text().splitlines(), 1)
            if raw.split("#", 1)[0].split()[:1] == [rel])
        problems.append(
            f"tools/lint/allowlist.txt:{line}: [src-reachability] stale "
            f"entry: {rel} {why} — delete the entry")
    return problems


RULES = {
    "banned-construct": check_banned_constructs,
    "source-registration": check_source_registration,
    "include-hygiene": check_include_hygiene,
    "golden-schema": check_golden_schema,
    "transport-config-validate": check_transport_config_validate,
    "stats-in-registry": check_stats_in_registry,
    "soa-hot-structs": check_soa_hot_structs,
    "src-reachability": check_src_reachability,
}


def run_lint(repo: Path) -> list[str]:
    problems: list[str] = []
    for check in RULES.values():
        problems.extend(check(repo))
    return problems


# --------------------------------------------------------------------------
# Self-test: a miniature clean tree must pass; one seeded violation per rule
# must fail with that rule's tag.
# --------------------------------------------------------------------------

CLEAN_HPP = "#pragma once\n\nnamespace iw {}\n"


def make_clean_tree(root: Path) -> None:
    (root / "src" / "sim").mkdir(parents=True)
    (root / "src" / "mpi").mkdir(parents=True)
    (root / "tests" / "golden").mkdir(parents=True)
    (root / "tools" / "lint").mkdir(parents=True)
    (root / "src" / "sim" / "calendar.hpp").write_text(CLEAN_HPP)
    (root / "src" / "sim" / "calendar.cpp").write_text(
        '#include "sim/calendar.hpp"\n'
        "// a comment mentioning std::function must not trip the rule\n"
        'const char* kNote = "std::shared_ptr in a string is fine";\n')
    (root / "src" / "mpi" / "transport_config.hpp").write_text(
        "#pragma once\nnamespace iw::mpi {\n"
        "struct NicModel {\n  int injection_depth = 0;\n"
        "  bool operator==(const NicModel&) const = default;\n};\n"
        "struct EagerPolicy {\n  int credit_window = 0;\n};\n"
        "struct RendezvousPolicy {\n  int flavor = 0;\n};\n"
        "struct TransportConfig {\n  NicModel nic;\n  EagerPolicy eager;\n"
        "  RendezvousPolicy rendezvous;\n  void validate() const;\n};\n}\n")
    (root / "src" / "mpi" / "transport_config.cpp").write_text(
        '#include "mpi/transport_config.hpp"\n'
        "namespace iw::mpi {\n"
        "void TransportConfig::validate() const {\n"
        "  (void)nic.injection_depth;\n"
        "  (void)eager.credit_window;\n"
        "  (void)rendezvous.flavor;\n"
        "}\n}\n")
    (root / "src" / "mpi" / "trace.hpp").write_text(
        "#pragma once\n#include <vector>\nnamespace iw::mpi {\n"
        "class Trace {\n"
        "  std::vector<double> seg_slab_;\n"
        "  std::vector<int> row_offsets_;\n"
        "};\n}\n")
    (root / "src" / "obs").mkdir(parents=True)
    (root / "src" / "mpi" / "transport.hpp").write_text(
        "#pragma once\nnamespace iw::mpi {\n"
        "class Transport {\n public:\n"
        "  struct Stats {\n    unsigned long eager_sends = 0;\n  };\n"
        "  struct PoolStats {\n    unsigned long allocations = 0;\n  };\n"
        "};\n}\n")
    (root / "src" / "obs" / "metrics.cpp").write_text(
        '#include "mpi/transport.hpp"\n'
        "namespace iw::obs {\n"
        "unsigned long publish(const iw::mpi::Transport::Stats& s,\n"
        "                      const iw::mpi::Transport::PoolStats& p) {\n"
        "  return s.eager_sends + p.allocations;\n"
        "}\n}\n")
    (root / "src" / "CMakeLists.txt").write_text(
        "add_library(idlewave STATIC\n  sim/calendar.cpp\n"
        "  mpi/transport_config.cpp\n  obs/metrics.cpp\n)\n")
    (root / "tests" / "sim_test.cpp").write_text(
        "TEST(Mini, Works) {}\n")
    (root / "tests" / "golden" / "mini.csv").write_text(
        "# iw-golden schema=1 scenario=mini points=1\n"
        "index,np\n0,4\n")
    # One example reaches every src/ file: a header directly, the metrics
    # source through the header it defines.
    (root / "src" / "obs" / "metrics.hpp").write_text(CLEAN_HPP)
    (root / "examples").mkdir()
    (root / "examples" / "mini.cpp").write_text(
        '#include "sim/calendar.hpp"\n#include "mpi/transport_config.hpp"\n'
        '#include "mpi/trace.hpp"\n#include "mpi/transport.hpp"\n'
        '#include "obs/metrics.hpp"\nint main() { return 0; }\n')


# Each self-test case seeds one violation; a rule may have several cases
# (`<rule>/<variant>`), and every case must be flagged with its rule's tag.
SELF_TEST_CASES = (*RULES, "soa-hot-structs/wrapped-smart-pointer",
                   "src-reachability/stale-missing",
                   "src-reachability/stale-reached")


def seed_violation(root: Path, case: str) -> None:
    if case == "banned-construct":
        (root / "src" / "mpi" / "bad.hpp").write_text(
            "#pragma once\n#include <functional>\n"
            "using Fn = std::function<void()>;\n")
    elif case == "source-registration":
        (root / "src" / "sim" / "orphan.cpp").write_text("int orphan() { return 1; }\n")
    elif case == "include-hygiene":
        (root / "src" / "sim" / "guarded.hpp").write_text(
            "#ifndef GUARDED_HPP\n#define GUARDED_HPP\n#endif\n")
    elif case == "golden-schema":
        (root / "tests" / "golden" / "drift.csv").write_text(
            "# iw-golden schema=1 scenario=drift points=5\nindex,np\n0,4\n")
    elif case == "transport-config-validate":
        # A new knob lands in the header but validate() never looks at it.
        hpp = root / "src" / "mpi" / "transport_config.hpp"
        hpp.write_text(hpp.read_text().replace(
            "  int injection_depth = 0;\n",
            "  int injection_depth = 0;\n  int unchecked_knob = 7;\n"))
    elif case == "stats-in-registry":
        # A new stats counter lands in the transport but the metrics
        # publisher never exports it.
        hpp = root / "src" / "mpi" / "transport.hpp"
        hpp.write_text(hpp.read_text().replace(
            "    unsigned long eager_sends = 0;\n",
            "    unsigned long eager_sends = 0;\n"
            "    unsigned long ghost_counter = 0;\n"))
    elif case == "src-reachability":
        # A header that only tests would include.
        (root / "src" / "sim" / "orphan.hpp").write_text(CLEAN_HPP)
    elif case == "src-reachability/stale-missing":
        # The file went, its exemption stayed.
        (root / "tools" / "lint" / "allowlist.txt").write_text(
            "src/sim/gone.hpp src-reachability\n")
    elif case == "src-reachability/stale-reached":
        # An example reaches the file, so the exemption covers nothing.
        (root / "tools" / "lint" / "allowlist.txt").write_text(
            "# reason\nsrc/sim/calendar.hpp src-reachability\n")
    elif case == "soa-hot-structs":
        # A per-rank history vector-of-vectors sneaks into the trace SoA.
        hpp = root / "src" / "mpi" / "trace.hpp"
        hpp.write_text(hpp.read_text().replace(
            "  std::vector<double> seg_slab_;\n",
            "  std::vector<double> seg_slab_;\n"
            "  std::vector<std::vector<double>> per_rank_history_;\n"))
    elif case == "soa-hot-structs/wrapped-smart-pointer":
        # A per-rank owning pointer hides inside a struct the process then
        # keeps in a vector: no container nesting on any one line.
        (root / "src" / "mpi" / "process.hpp").write_text(
            "#pragma once\n#include <memory>\n#include <vector>\n"
            "namespace iw::mpi {\nclass Model;\nclass Process {\n"
            "  struct Source {\n    std::unique_ptr<Model> model;\n  };\n"
            "  std::vector<Source> sources_;\n};\n}\n")
    else:
        raise AssertionError(f"no seeder for case {case}")


def self_test() -> int:
    failures = []
    with tempfile.TemporaryDirectory(prefix="iw-lint-selftest-") as tmp:
        clean = Path(tmp) / "clean"
        clean.mkdir()
        make_clean_tree(clean)
        baseline = run_lint(clean)
        if baseline:
            failures.append(
                "clean miniature tree reported problems:\n  "
                + "\n  ".join(baseline))
        for case in SELF_TEST_CASES:
            rule = case.split("/")[0]
            tree = Path(tmp) / case.replace("/", "-")
            tree.mkdir()
            make_clean_tree(tree)
            seed_violation(tree, case)
            found = run_lint(tree)
            if not any(f"[{rule}]" in p for p in found):
                failures.append(
                    f"seeded {case} violation was not flagged "
                    f"(got: {found or 'nothing'})")
    if failures:
        print("lint self-test FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"lint self-test OK: {len(RULES)} rules caught all "
          f"{len(SELF_TEST_CASES)} seeded violations and stayed quiet on a "
          f"clean tree")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--repo", type=Path,
        default=Path(__file__).resolve().parent.parent.parent,
        help="repository root (default: two directories up from this script)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify each rule catches a seeded violation")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args()

    if args.list_rules:
        for rule in RULES:
            print(rule)
        return 0
    if args.self_test:
        return self_test()

    problems = run_lint(args.repo)
    for p in problems:
        print(p)
    if problems:
        print(f"\nlint: {len(problems)} problem(s) found", file=sys.stderr)
        return 1
    print(f"lint: clean ({len(RULES)} rules)")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SystemExit:
        raise
    except Exception as exc:  # internal error: distinct exit code
        print(f"lint: internal error: {exc}", file=sys.stderr)
        sys.exit(2)
