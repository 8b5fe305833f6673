#!/usr/bin/env python3
"""Enforce bench acceptance bars from a --json-out metrics file.

The benches already gate their own exit codes, but those gates live inside
C++ and are invisible to reviewers; this script makes the bars explicit,
greppable, and reusable against any committed baseline:

    scripts/check_bench_bars.py bench_exec.json
    scripts/check_bench_bars.py bench_exec.json --baseline BENCH_exec.json

Default bars (the executor bench):

    bench_exec_batch_speedup   >= 8.0  columnar batch vs per-row ExecutePlan
    bench_exec_hot_path_clones == 0    cached serving clones no PlanNodes

Gauge and counter names are the canonical snake_case names the JSON
exports carry (counters end in "_total").

Custom bars: --min gauge:value (repeatable), --zero gauge (repeatable)
replace the defaults entirely when given.

Baseline comparison prints per-gauge deltas against the committed numbers;
it is informational by default because CI hardware differs from the machine
that produced the baseline. Pass --max-regress 0.5 to additionally fail if
a speedup-style gauge (anything ending in "speedup" or "_rps") drops below
that fraction of the baseline.

Exit code: 0 iff every bar (and, if requested, every regression check)
holds. Stdlib only.
"""

import argparse
import json
import sys


def load_gauges(path):
    with open(path) as f:
        doc = json.load(f)
    metrics = doc.get("metrics", doc)
    gauges = dict(metrics.get("gauges", {}))
    # Counters can serve as bars too (e.g. plan_node_clones_total).
    for name, value in metrics.get("counters", {}).items():
        gauges.setdefault(name, value)
    return gauges


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", help="bench --json-out file to check")
    parser.add_argument("--baseline", help="committed baseline json to diff")
    parser.add_argument(
        "--min", action="append", default=[], metavar="GAUGE:VALUE",
        help="bar: gauge must be >= value (replaces default bars)")
    parser.add_argument(
        "--zero", action="append", default=[], metavar="GAUGE",
        help="bar: gauge must be exactly 0 (replaces default bars)")
    parser.add_argument(
        "--max-regress", type=float, default=None, metavar="FRACTION",
        help="fail if a speedup/_rps gauge falls below FRACTION * baseline")
    args = parser.parse_args()

    mins = [(name, float(value)) for spec in args.min
            for name, value in [spec.rsplit(":", 1)]]
    zeros = list(args.zero)
    if not mins and not zeros:
        mins = [("bench_exec_batch_speedup", 8.0)]
        zeros = ["bench_exec_hot_path_clones"]

    gauges = load_gauges(args.results)
    failures = []

    for name, bar in mins:
        value = gauges.get(name)
        if value is None:
            failures.append(f"missing gauge {name}")
            continue
        status = "ok" if value >= bar else "FAIL"
        print(f"{status:>4}  {name} = {value:.4g}  (bar: >= {bar:g})")
        if value < bar:
            failures.append(f"{name} = {value:.4g} < {bar:g}")
    for name in zeros:
        value = gauges.get(name)
        if value is None:
            failures.append(f"missing gauge {name}")
            continue
        status = "ok" if value == 0 else "FAIL"
        print(f"{status:>4}  {name} = {value:g}  (bar: == 0)")
        if value != 0:
            failures.append(f"{name} = {value:g} != 0")

    if args.baseline:
        base = load_gauges(args.baseline)
        print(f"\nvs baseline {args.baseline}:")
        for name in sorted(set(gauges) & set(base)):
            cur, ref = gauges[name], base[name]
            if not isinstance(cur, (int, float)) or not ref:
                continue
            ratio = cur / ref
            print(f"      {name}: {cur:.4g} vs {ref:.4g}  ({ratio:.2f}x)")
            if (args.max_regress is not None
                    and (name.endswith("speedup") or name.endswith("_rps"))
                    and ratio < args.max_regress):
                failures.append(
                    f"{name} regressed to {ratio:.2f}x of baseline "
                    f"(floor {args.max_regress:g}x)")

    if failures:
        print("\nbench bars FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nall bench bars hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
