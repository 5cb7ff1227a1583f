#!/usr/bin/env python3
"""Compare two sets of benchmark results (report only).

    python3 htbench/compare.py BASE NEW [--benchmark BENCHMARK.json]

BASE and NEW are result files written by run.py (.bench_build/results/*.json)
or directories holding them. For every (workload, end-to-end metric) the
report gives each side's median and quartiles over its runs and flags a move
only when the new median is worse or better than the base median by more
than the metric's bound in BENCHMARK.json. Per-layer counts and the pinned
simulated outcome are deterministic for a seed, so they are compared exactly
and every difference is listed. The exit code is 0 whatever the report says.
"""

import argparse
import glob
import json
import os
import statistics
import sys

DEFAULT_BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                 "BENCHMARK.json")


def load_results(path):
    """Every run record under `path` (a file or a directory of files)."""
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    records = []
    for name in files:
        with open(name) as f:
            record = json.load(f)
        if "result" in record and "manifest" in record:
            records.append(record)
    return records


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(base, new, better, bound):
    """'worse', 'better' or '' for a move of the medians against the bound."""
    if base == 0:
        return ""
    change = (new - base) / abs(base)
    if better == "lower":
        change = -change
    if change < -bound:
        return "worse"
    if change > bound:
        return "better"
    return ""


def group(records, trace):
    """{workload: {metric: [values]}} over the runs with the given trace flag."""
    out = {}
    for r in records:
        res = r["result"]
        if res["trace"] != trace:
            continue
        per = out.setdefault(res["workload"], {})
        for name, m in res["metrics"].items():
            per.setdefault(name, []).append(m["value"])
    return out


def exact_by_seed(records, pick):
    """{(workload, seed): {name: value}} of deterministic values; a name whose
    runs disagree within one side maps to None."""
    out = {}
    for r in records:
        res = r["result"]
        key = (res["workload"], res["seed"])
        seen = out.setdefault(key, {})
        for name, value in pick(res).items():
            if name in seen and seen[name] != value:
                seen[name] = None
            else:
                seen.setdefault(name, value)
    return out


def layer_counts(res):
    if res["trace"] != 1:
        return {}
    return {k: m["value"] for k, m in res["metrics"].items() if m["unit"] == "count"}


def manifests(records):
    seen = []
    for r in records:
        m = r["manifest"]
        line = "%s x%s, %s, %s, sha %s" % (m.get("cpu_model"), m.get("nproc"),
                                           m.get("compiler_version"), m.get("build_type"),
                                           str(m.get("git_sha"))[:12])
        if line not in seen:
            seen.append(line)
    return seen


def report(base, new, bench, out):
    flagged = 0
    for side, records in (("base", base), ("new", new)):
        for line in manifests(records):
            out.write("%-4s host: %s\n" % (side, line))

    out.write("\nend-to-end (median [q1, q3] over runs; flagged only beyond the bound)\n")
    out.write("%-12s %-16s %5s %34s %34s %8s  %s\n" % (
        "workload", "metric", "bound", "base", "new", "change", "verdict"))
    gb, gn = group(base, 0), group(new, 0)
    for workload in sorted(set(gb) & set(gn)):
        for spec in bench["end_to_end"]:
            name = spec["name"]
            vb, vn = gb[workload].get(name), gn[workload].get(name)
            if not vb or not vn:
                continue
            qb, qn = quartiles(vb), quartiles(vn)
            v = verdict(qb[1], qn[1], spec["better"], spec["bound"])
            noisy = any(q[1] and (q[2] - q[0]) / abs(q[1]) > spec["bound"] for q in (qb, qn))
            if v == "worse":
                flagged += 1
            label = {"worse": "REGRESSION", "better": "improved"}.get(v, "")
            if noisy:
                label = (label + " (spread above bound: unresolved)").strip()
            change = (qn[1] - qb[1]) / abs(qb[1]) if qb[1] else 0.0
            out.write("%-12s %-16s %5.2f %12.6g [%9.4g,%9.4g] n=%-2d %12.6g [%9.4g,%9.4g] n=%-2d"
                      " %+7.1f%%  %s\n" % (workload, name, spec["bound"], qb[1], qb[0], qb[2],
                                           len(vb), qn[1], qn[0], qn[2], len(vn),
                                           100.0 * change, label))

    out.write("\nper-layer timings (median over traced runs, no bound)\n")
    tb, tn = group(base, 1), group(new, 1)
    for workload in sorted(set(tb) & set(tn)):
        for spec in bench["per_layer"]:
            name = spec["name"]
            if spec["unit"] == "count" or name not in tb[workload] or name not in tn[workload]:
                continue
            mb, mn = statistics.median(tb[workload][name]), statistics.median(tn[workload][name])
            out.write("%-12s %-28s %14.6g %14.6g\n" % (workload, name, mb, mn))

    out.write("\nexact differences (per-layer counts and simulated outcome, same seed)\n")
    differences = 0
    for title, pick in (("count", layer_counts), ("outcome", lambda res: res["outcome"])):
        eb, en = exact_by_seed(base, pick), exact_by_seed(new, pick)
        for key in sorted(set(eb) & set(en)):
            for name in sorted(set(eb[key]) | set(en[key])):
                a, b = eb[key].get(name), en[key].get(name)
                if a != b:
                    differences += 1
                    out.write("%-12s seed %-6s %-8s %-28s %s -> %s\n" % (
                        key[0], key[1], title, name, a, b))
    if differences == 0:
        out.write("none\n")
    out.write("\n%d end-to-end regression(s) beyond bound, %d exact difference(s)\n" % (
        flagged, differences))
    return flagged, differences


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark", default=DEFAULT_BENCHMARK)
    args = parser.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)
    base, new = load_results(args.base), load_results(args.new)
    if not base or not new:
        print("compare: no result records in %s" % (args.base if not base else args.new),
              file=sys.stderr)
        return 2
    report(base, new, bench, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
