"""Smoke test of the benchmark at a tiny input scale.

    python3 perfbench/smoke.py

For every workload, one untraced and one traced run at 5% of the
workload's input size check that:

* every job's output passed the oracle / reference-digest check;
* every end-to-end metric (untraced) and every per-layer metric (traced)
  named in BENCHMARK.json is produced, with BENCHMARK.json's unit;
* traced spans nest: each span has its parent in the trace and lies
  inside the parent's interval;
* layer self times plus unattributed time account for the job span.

Then one command-line run checks the printed result line.  Exits 1 on
the first failed check.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCALE_FACTOR = 0.05
SECONDS = 0.5


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)


def check_nesting(workload: str, events: list[dict]) -> None:
    by_id = {event["args"]["id"]: event for event in events}
    slack_us = 1.0
    for event in events:
        parent_id = event["args"]["parent"]
        if event["name"] == "job":
            check(parent_id is None, f"{workload}: job span has a parent")
            continue
        parent = by_id.get(parent_id)
        check(parent is not None, f"{workload}: {event['name']} span has no parent in the trace")
        check(
            parent["ts"] - slack_us <= event["ts"]
            and event["ts"] + event["dur"] <= parent["ts"] + parent["dur"] + slack_us,
            f"{workload}: {event['name']} span escapes its parent {parent['name']}",
        )


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import run
    from workloads import WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    check(
        [w["name"] for w in spec["workloads"]] == list(WORKLOADS),
        "BENCHMARK.json workloads differ from workloads.py",
    )
    for workload in WORKLOADS:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            record = run.run_workload(workload, 7, SECONDS, trace, SCALE_FACTOR)
            result = record["result"]
            check(result["correct"] and result["failed"] == 0,
                  f"{workload} trace={int(trace)}: {record['errors']}")
            produced = {name: entry["unit"] for name, entry in result["metrics"].items()}
            expected = {entry["name"]: entry["unit"] for entry in spec[kind]}
            check(produced == expected,
                  f"{workload} trace={int(trace)}: metrics differ from BENCHMARK.json {kind}: "
                  f"missing {sorted(set(expected) - set(produced))}, "
                  f"extra {sorted(set(produced) - set(expected))}")
            if trace:
                check(record["accounting_ok"], f"{workload}: self times do not sum to the job span")
                check_nesting(workload, record["chrome_trace"]["traceEvents"])
            print(f"ok  {workload:<28} trace={int(trace)}  jobs={result['attempted']}")

    cli = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "join-process-net",
         "--seed", "7", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=180,
    )
    check(cli.returncode == 0, f"command line run failed: {cli.stderr[-2000:]}")
    last = json.loads(cli.stdout.strip().splitlines()[-1])
    check(sorted(last) == ["attempted", "correct", "failed", "metrics"] and last["correct"],
          f"command line result line is wrong: {last}")
    print("ok  command line result line")
    return 0


if __name__ == "__main__":
    sys.exit(main())
