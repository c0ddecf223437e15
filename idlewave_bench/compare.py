#!/usr/bin/env python3
"""Compares idlewave_bench results of a parent and a change, pair by pair.

    python3 idlewave_bench/compare.py --parent p01.json ... p10.json \\
        --change c01.json ... c10.json [--out summary.json]

Each file is a result document written by `idlewave_bench --json=...` (one
workload or --all) or by `run.py --json ...`. Per workload, the i-th parent
file and the i-th change file holding it form a pair: run them alternately
(parent first in odd pairs, change first in even ones) with the same seed.
At least ten pairs per workload are required.

For every workload and metric it prints both sides' medians and quartiles,
the change's win fraction (ties count for neither side) and a verdict:

  improved    the change wins >= 9/10 of the pairs and the medians differ,
              in its favour, by more than the parent's interquartile range;
  regressed   the change's median is worse than the parent's by more than
              the bound BENCHMARK.json declares for the metric;
  unresolved  either side's interquartile range is wider than the bound;
  unchanged   anything else.

Per-layer metrics have no bound, so they are only ever improved, unresolved
(when either side's spread exceeds 25%) or unchanged. The comparison fails
(exit code 1) on any regression, any result with failed checks, and any
difference, within a pair, in records_fingerprint or in an exact count.
Standard library only.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Simulated quantities: deterministic for a seed, so a speed-only change
# must leave them identical.
EXACT = ("sim.events_per_point", "sim.calendar_peak",
         "mpi.messages_per_point", "mpi.rendezvous_share",
         "mpi.unexpected_per_message", "service.cache_hit_ratio",
         "service.batches_per_job")
LAYER_SPREAD_LIMIT = 0.25
MIN_PAIRS = 10


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("bench") != "idlewave_bench":
        sys.exit("compare.py: %s is not an idlewave_bench result" % path)
    return doc


def metrics(entry):
    return {row["metric"]: row for row in entry["e2e"] + entry["layers"]}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, better, bound):
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if (c < p if better == "lower" else c > p))
    win_frac = wins / len(pairs)
    med_p, med_c = statistics.median(parent), statistics.median(change)
    q1p, q3p = quartiles(parent)
    q1c, q3c = quartiles(change)
    gain = (med_p - med_c) if better == "lower" else (med_c - med_p)
    limit = bound if bound is not None else LAYER_SPREAD_LIMIT
    spread = max((q3p - q1p) / abs(med_p) if med_p else 0.0,
                 (q3c - q1c) / abs(med_c) if med_c else 0.0)
    if win_frac >= 0.9 and gain > q3p - q1p:
        v = "improved"
    elif bound is not None and -gain > bound * abs(med_p):
        v = "regressed"
    elif spread > limit:
        v = "unresolved"
    else:
        v = "unchanged"
    return {"parent_median": med_p, "parent_q1": q1p, "parent_q3": q3p,
            "change_median": med_c, "change_q1": q1c, "change_q3": q3c,
            "win_fraction": win_frac, "bound": bound, "verdict": v}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    ap.add_argument("--benchmark",
                    default=os.path.join(os.path.dirname(HERE),
                                         "BENCHMARK.json"))
    ap.add_argument("--out", help="write the verdicts as JSON")
    args = ap.parse_args()

    with open(args.benchmark) as f:
        declared = json.load(f)
    better = {m["name"]: m["better"]
              for m in declared["end_to_end"] + declared["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}

    all_parents = [load(p) for p in args.parent]
    all_changes = [load(c) for c in args.change]
    failures = []
    summary = {}
    workloads = sorted(set().union(
        *(set(d["workloads"]) for d in all_parents + all_changes)))
    for w in workloads:
        # The i-th parent and the i-th change result holding workload w
        # form pair i.
        parents = [d for d in all_parents if w in d["workloads"]]
        changes = [d for d in all_changes if w in d["workloads"]]
        if len(parents) != len(changes) or len(parents) < MIN_PAIRS:
            sys.exit("compare.py: %s has %d parent and %d change results; "
                     "need at least %d pairs" % (w, len(parents),
                                                 len(changes), MIN_PAIRS))
        for i, (p, c) in enumerate(zip(parents, changes)):
            pe, ce = p["workloads"][w], c["workloads"][w]
            for side, entry in (("parent", pe), ("change", ce)):
                if not entry["correct"]:
                    failures.append("%s pair %d: %s run failed its checks"
                                    % (w, i + 1, side))
            if p["seed"] != c["seed"]:
                continue
            if pe["records_fingerprint"] != ce["records_fingerprint"]:
                failures.append("%s seed %s: records_fingerprint %s -> %s"
                                % (w, p["seed"], pe["records_fingerprint"],
                                   ce["records_fingerprint"]))
            pm, cm = metrics(pe), metrics(ce)
            for name in EXACT:
                if name in pm and name in cm and \
                        pm[name]["value"] != cm[name]["value"]:
                    failures.append("%s seed %s: exact count %s %r -> %r"
                                    % (w, p["seed"], name, pm[name]["value"],
                                       cm[name]["value"]))
        names = [n for n in metrics(parents[0]["workloads"][w])
                 if all(n in metrics(d["workloads"][w])
                        for d in parents + changes)]
        print("%s (%d pairs)" % (w, len(parents)))
        print("  %-32s %26s %26s %6s  %s" % ("metric", "parent median [q1,q3]",
                                             "change median [q1,q3]", "wins",
                                             "verdict"))
        summary[w] = {"pairs": len(parents)}
        for name in names:
            pv = [metrics(d["workloads"][w])[name]["value"] for d in parents]
            cv = [metrics(d["workloads"][w])[name]["value"] for d in changes]
            v = verdict(pv, cv, better.get(name, "lower"), bounds.get(name))
            summary[w][name] = v
            if v["verdict"] == "regressed":
                failures.append("%s: %s regressed" % (w, name))
            print("  %-32s %10.4g [%6.4g,%6.4g] %10.4g [%6.4g,%6.4g]"
                  " %5.0f%%  %s"
                  % (name, v["parent_median"], v["parent_q1"], v["parent_q3"],
                     v["change_median"], v["change_q1"], v["change_q3"],
                     100 * v["win_fraction"], v["verdict"]))
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workloads": summary,
                       "failures": failures}, f, indent=1)
            f.write("\n")
    for msg in failures:
        print("FAIL: " + msg)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
