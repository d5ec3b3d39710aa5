#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric and query by query.

Usage:

    python3 perfbench/compare.py BASE.txt NEW.txt

Each file holds the standard output of one or more untraced runs of
perfbench/run.py (--trace 0), concatenated, for example:

    for s in 1 2 3 4 5 6 7 8 9 10; do
      python3 perfbench/run.py --workload lubm-warm --seed $s \\
        --seconds 10 --trace 0 >> base.txt
    done

For every workload and end-to-end metric it prints each side's median
and quartiles over the runs and flags a move beyond the metric's bound
in BENCHMARK.json. It then prints every query's ratio of medians
(new / base, from the per-run query medians scaled to the reference
host speed as the end-to-end times are) and names the worst one.
Exits 1 if any end-to-end metric regressed beyond its bound.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def load_runs(path):
    """Pair each result line with the detail line printed before it."""
    runs = {}
    detail = None
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                obj = json.loads(line)
            except ValueError:
                continue
            if "detail" in obj:
                detail = obj["detail"]
            elif "metrics" in obj and detail is not None:
                if not detail.get("trace"):
                    scale = detail["read_scale"]
                    queries = {q: v["median"] * scale
                               for q, v in detail["queries"].items()}
                    runs.setdefault(detail["workload"], []).append(
                        {"metrics": obj["metrics"], "queries": queries}
                    )
                detail = None
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv):
    if len(argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    spec = load_spec()
    base, new = load_runs(argv[1]), load_runs(argv[2])
    regressed = False
    for wl in sorted(set(base) & set(new)):
        print(f"== {wl}: {len(base[wl])} base runs, {len(new[wl])} new runs")
        print(f"  {'metric':18s} {'base q1/med/q3':>30s} {'new q1/med/q3':>30s}"
              f" {'new/base':>9s}")
        for m in spec["end_to_end"]:
            name = m["name"]
            b = [r["metrics"][name]["value"] for r in base[wl] if name in r["metrics"]]
            n = [r["metrics"][name]["value"] for r in new[wl] if name in r["metrics"]]
            if not b or not n:
                continue
            bq, nq = quartiles(b), quartiles(n)
            ratio = nq[1] / bq[1] if bq[1] else float("inf")
            worse = ratio - 1 if m["better"] == "lower" else 1 - ratio
            flag = ""
            if worse > m["bound"]:
                flag = f"  REGRESSION (bound {m['bound']:.0%})"
                regressed = True
            elif -worse > m["bound"]:
                flag = "  better by more than the bound"
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
            print(f"  {name:18s} {fmt(bq):>30s} {fmt(nq):>30s} {ratio:9.3f}{flag}")
        qids = sorted(set().union(*(r["queries"] for r in base[wl]))
                      & set().union(*(r["queries"] for r in new[wl])))
        worst = None
        print(f"  {'query':8s} {'base ms':>12s} {'new ms':>12s} {'new/base':>9s}")
        for q in qids:
            bm = statistics.median(r["queries"][q]
                                   for r in base[wl] if q in r["queries"])
            nm = statistics.median(r["queries"][q]
                                   for r in new[wl] if q in r["queries"])
            ratio = nm / bm if bm else float("inf")
            print(f"  {q:8s} {bm:12.4g} {nm:12.4g} {ratio:9.3f}")
            if worst is None or ratio > worst[1]:
                worst = (q, ratio)
        if worst:
            print(f"  worst query: {worst[0]} at {worst[1]:.3f}x of base")
    for wl in sorted(set(base) ^ set(new)):
        print(f"== {wl}: present on one side only")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
