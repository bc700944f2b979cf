"""Compare two result sets of the benchmark.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are directories of run records (``perfbench/out`` of two
checkouts) or record files.  For each workload and metric the tool
prints both sides' median and quartiles, the paired win fraction of NEW
(runs paired by seed, ties counting for neither side) and a label:

``regressed``   an end-to-end median got worse by more than its bound;
``unresolved``  the run-to-run spread (quartile distance over median) of
                either side is wider than the bound, and not every NEW
                run beats every BASE run;
``improved``    NEW wins at least 9 in 10 pairs and the medians differ
                by more than BASE's quartile distance;
``worsened``    the same rule the other way (per-layer metrics, which
                have no bound);
``unchanged``   none of the above.

End-to-end bounds and each metric's direction come from BENCHMARK.json.
Exits 1 when any end-to-end metric regressed.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> list[dict]:
    """Run records under *path* (a directory or one record file)."""
    paths = (
        sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    )
    records = []
    for name in paths:
        if name.endswith(".trace.json"):
            continue
        with open(name) as handle:
            record = json.load(handle)
        if "result" in record and "workload" in record:
            records.append(record)
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def judge(base: list[tuple[int, float]], new: list[tuple[int, float]],
          better: str, bound: float | None) -> dict:
    """Statistics and label for one workload x metric."""
    sign = 1.0 if better == "lower" else -1.0  # sign * value: lower is better
    base_v = [value for _, value in base]
    new_v = [value for _, value in new]
    b1, b_med, b3 = quartiles(base_v)
    n1, n_med, n3 = quartiles(new_v)
    new_by_seed = dict(new)
    pairs = [(value, new_by_seed[seed]) for seed, value in base if seed in new_by_seed]
    if not pairs:  # no seed in common: pair the runs in seed order
        pairs = list(zip([v for _, v in sorted(base)], [v for _, v in sorted(new)]))
    wins = sum(1 for b, n in pairs if sign * n < sign * b)
    losses = sum(1 for b, n in pairs if sign * n > sign * b)
    spread = max(
        (b3 - b1) / abs(b_med) if b_med else 0.0,
        (n3 - n1) / abs(n_med) if n_med else 0.0,
    )
    worse = sign * (n_med - b_med) / abs(b_med) if b_med else sign * (n_med - b_med)
    all_better = max(sign * v for v in new_v) < min(sign * v for v in base_v)
    gap = abs(n_med - b_med)
    if bound is not None and spread > bound and not all_better:
        label = "unresolved"
    elif bound is not None and worse > bound:
        label = "regressed"
    elif wins >= 0.9 * len(pairs) and gap > b3 - b1 and sign * (n_med - b_med) < 0:
        label = "improved"
    elif bound is None and losses >= 0.9 * len(pairs) and gap > b3 - b1 and worse > 0:
        label = "worsened"
    else:
        label = "unchanged"
    return {
        "base": (b1, b_med, b3, len(base_v)),
        "new": (n1, n_med, n3, len(new_v)),
        "win_frac": wins / len(pairs),
        "pairs": len(pairs),
        "change": (n_med - b_med) / abs(b_med) if b_med else 0.0,
        "label": label,
    }


def series(records: list[dict], trace: int) -> dict[tuple[str, str], list[tuple[int, float]]]:
    out: dict[tuple[str, str], list[tuple[int, float]]] = {}
    for record in records:
        if record["trace"] != trace or not record["result"]["correct"]:
            continue
        for metric, entry in record["result"]["metrics"].items():
            out.setdefault((record["workload"], metric), []).append(
                (record["seed"], entry["value"])
            )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Compare two benchmark result sets.")
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args(argv)

    with open(args.benchmark) as handle:
        spec = json.load(handle)
    base, new = load(args.base), load(args.new)
    regressed = False
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        metrics = {entry["name"]: entry for entry in spec[kind]}
        base_series, new_series = series(base, trace), series(new, trace)
        keys = sorted(set(base_series) & set(new_series))
        if not keys:
            continue
        print(f"== {kind} ==")
        print(f"{'workload':<28}{'metric':<30}{'base q1/med/q3 (n)':>36} "
              f"{'new q1/med/q3 (n)':>36}{'change':>9}{'wins':>7}  label")
        for workload, metric in keys:
            entry = metrics.get(metric)
            if entry is None:
                continue
            verdict = judge(
                base_series[workload, metric], new_series[workload, metric],
                entry["better"], entry.get("bound"),
            )
            regressed |= verdict["label"] == "regressed"
            cells = [
                "{:.4g}/{:.4g}/{:.4g} ({})".format(*verdict[side]) for side in ("base", "new")
            ]
            print(f"{workload:<28}{metric:<30}{cells[0]:>36} {cells[1]:>36}"
                  f"{verdict['change']:>+9.1%}{verdict['win_frac']:>7.0%}  {verdict['label']}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
