"""One wall-clock benchmark for the repro MapReduce engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The seed generates the workload's
input; the program only sees the generated data.  Load is a closed
loop: this process submits one job at a time through the public
``LocalJobRunner().run(job)`` and waits for it.

* Set-up (input generation, job construction and one cold job) runs
  three times; ``setup_s`` is the median.
* The first cold job's output is checked against the app's oracle and
  its digest becomes the reference; every later job's digest must equal
  it.  A job that raises or gives another digest counts as failed.
* ``--trace 0`` times untraced jobs for ``--seconds`` and reports the
  end-to-end metrics.  Their times are given at a reference machine
  speed (see :func:`at_reference`); the raw wall-clock medians are
  printed beside them and kept in the record.  ``--trace 1`` alternates untraced and traced jobs
  for ``--seconds`` and reports the per-layer metrics (see
  ``layers.py``), a per-layer self-time table and a Chrome trace.

Each run writes its full record, stamped with the environment, to
``perfbench/out/``.  The last line on stdout is the result as one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

SETUPS = 3
#: At least two untraced and two traced jobs per run.
MIN_JOBS = 4
#: The speed probe's time at the reference machine speed.
PROBE_REF_S = 0.020

#: End-to-end metrics: name -> (unit, better).
END_TO_END: dict[str, tuple[str, str]] = {
    "job_s": ("s", "lower"),
    "records_per_s": ("1/s", "higher"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}


def _cpu_seconds() -> float:
    """CPU of this process plus its reaped children (pool workers are
    joined inside each job, so a job's workers count in its delta)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def speed_probe() -> float:
    """Seconds for a fixed pure-Python loop (median of three), taken
    just before every job while no program code runs."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        counts: dict[int, int] = {}
        for i in range(100_000):
            counts[i % 5000] = counts.get(i % 5000, 0) + i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def at_reference(seconds: float, probe_s: float) -> float:
    """*seconds* measured when the probe took *probe_s*, scaled to the
    reference speed at which it takes :data:`PROBE_REF_S`.

    The CPUs of a shared host change speed with their neighbours' load.
    On a 2-vCPU VM (Intel Xeon) the median ``wordcount-serial`` job took
    3.52 s over one ten-seed set and 2.88 s over the next, and the probe
    moved with it; job time over probe time moved by 2.6%.  So the
    end-to-end times are reported at the reference speed.  The program
    does not run while the probe does: it runs in this process between
    jobs."""
    return seconds * PROBE_REF_S / probe_s


def _rss_mb() -> float:
    with open("/proc/self/statm") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 1e6


def env_stamp() -> dict:
    """What a later reader needs to judge a number from this run."""
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    try:
        probe = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        lines = probe.stdout.split()
        if probe.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    # The checkout the benchmark runs in need not be a git repository, so
    # the source itself is digested too.
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "cpu_model": cpu_model,
    }


class JobLoop:
    """Runs jobs one at a time and checks every output."""

    def __init__(self) -> None:
        from repro.engine.runner import LocalJobRunner

        self.runner_cls = LocalJobRunner
        self.reference: str | None = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.probes_s: list[float] = []

    def run(self, job, tracer=None, seq: int = 0, oracle_app=None):
        """One job: returns ``(wall_s, cpu_s, probe_s, result)``; result
        is ``None`` when the job raised or its output is wrong.  Until a
        reference digest exists, *oracle_app*'s oracle checks the output
        and a passing output's digest becomes the reference."""
        self.attempted += 1
        probe = speed_probe()
        self.probes_s.append(probe)
        gc.collect()
        cpu0 = _cpu_seconds()
        start = time.perf_counter()
        try:
            if tracer is None:
                result = self.runner_cls().run(job)
            else:
                with tracer.job_span(seq):
                    result = self.runner_cls().run(job)
        except Exception as exc:  # noqa: BLE001 - counted as a failed job
            self.failed += 1
            self.errors.append(f"job {self.attempted}: {exc!r}")
            return time.perf_counter() - start, _cpu_seconds() - cpu0, probe, None
        wall = time.perf_counter() - start
        cpu = _cpu_seconds() - cpu0
        if self.reference is None and oracle_app is not None:
            from workloads import normalise

            if normalise(oracle_app.app_name, result.output_pairs()) == oracle_app.oracle():
                self.reference = result.output_digest()
        if result.output_digest() != self.reference:
            self.failed += 1
            against = "reference digest" if self.reference else "app's oracle"
            self.errors.append(f"job {self.attempted}: output differs from the {against}")
            return wall, cpu, probe, None
        return wall, cpu, probe, result


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale_factor: float = 1.0) -> dict:
    """Set up, measure and check one workload; returns the run record.

    Temporary files (process-backend spill directories, the trace
    spool) go to a directory under ``perfbench/out`` that is removed
    before returning."""
    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"tmp-{os.getpid()}-", dir=OUT)
    tempfile.tempdir = scratch
    try:
        return _measure(name, seed, seconds, trace, scale_factor)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(scratch, ignore_errors=True)


def _measure(name: str, seed: int, seconds: float, trace: bool, scale_factor: float) -> dict:
    import layers
    from repro.engine.counters import Counter
    from spans import Tracer, chrome_trace
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    loop = JobLoop()
    stamp = env_stamp()
    stamp["loadavg_before"] = os.getloadavg()
    stamp["rss_mb_start"] = _rss_mb()
    stamp["gc_objects_start"] = len(gc.get_objects())

    # Set-up: generation and construction, then the cold job (timed
    # without the speed probe and GC pass that precede every job).
    setups: list[tuple[float, float]] = []  # (seconds, probe_s)
    input_records = None
    for _ in range(SETUPS):
        start = time.perf_counter()
        app = workload.build(seed, scale_factor)
        built = time.perf_counter() - start
        wall, _cpu, probe, result = loop.run(app.job, oracle_app=app)
        setups.append((built + wall, probe))
        if result is not None:
            input_records = result.counters.get(Counter.MAP_INPUT_RECORDS)
    del result
    tracer = Tracer(tempfile.mkdtemp(prefix="spool-")) if trace else None

    # Successful jobs, untraced and traced: (wall_s, cpu_s, probe_s).
    timed: dict[bool, list[tuple[float, float, float]]] = {False: [], True: []}
    result_rows: list[dict] = []
    traced_seqs: list[int] = []
    deadline = time.perf_counter() + seconds
    seq = 0
    while seq < MIN_JOBS or time.perf_counter() < deadline:
        traced = trace and seq % 2 == 1
        if traced:
            layers.install(tracer, app.job)
        try:
            wall, cpu, probe, result = loop.run(app.job, tracer if traced else None, seq)
        finally:
            if traced:
                tracer.uninstall()
        seq += 1
        if result is None:
            continue
        timed[traced].append((wall, cpu, probe))
        if traced:
            traced_seqs.append(seq - 1)
            continue
        if trace:
            result_rows.append(layers.result_facts(result, wall, workload.workers))
        del result

    stamp["loadavg_after"] = os.getloadavg()
    stamp["rss_mb_end"] = _rss_mb()
    stamp["gc_objects_end"] = len(gc.get_objects())
    stamp["speed_probe_s"] = loop.probes_s
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "scale_factor": scale_factor,
        "stamp": stamp,
        "jobs_s": [wall for wall, _, _ in timed[False]],
        "traced_jobs_s": [wall for wall, _, _ in timed[True]],
        "setups_s": [seconds for seconds, _ in setups],
    }
    metrics: dict[str, float] = {}
    untraced = timed[False]
    if not trace and untraced:
        peak_kb = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        ref_walls = [at_reference(wall, probe) for wall, _, probe in untraced]
        metrics = {
            "job_s": statistics.median(ref_walls),
            "records_per_s": statistics.median(input_records / wall for wall in ref_walls),
            "cpu_s": statistics.median(at_reference(cpu, probe) for _, cpu, probe in untraced),
            "peak_rss_mb": peak_kb / 1024,
            "setup_s": statistics.median(at_reference(*setup) for setup in setups),
        }
        record["raw"] = {
            "job_s": statistics.median(wall for wall, _, _ in untraced),
            "cpu_s": statistics.median(cpu for _, cpu, _ in untraced),
            "setup_s": statistics.median(seconds for seconds, _ in setups),
            "probe_s": statistics.median(probe for _, _, probe in untraced),
        }
    elif trace and result_rows and timed[True]:
        spans, hot = tracer.collect()
        by_job: dict[int, list[dict]] = {}
        for span in spans:
            by_job.setdefault(span["job"], []).append(span)
        traced_rows = [
            layers.traced_job_facts(by_job[job], hot.get(job, {})) for job in traced_seqs
        ]
        rows = [*result_rows, *traced_rows]
        for metric in layers.PER_LAYER:
            values = [row[metric] for row in rows if metric in row]
            if values:
                metrics[metric] = statistics.median(values)
        metrics["trace.overhead_frac"] = statistics.median(
            at_reference(wall, probe) for wall, _, probe in timed[True]
        ) / statistics.median(at_reference(wall, probe) for wall, _, probe in untraced)
        record["self_time_table"] = layers.self_time_table(traced_rows)
        record["accounting_ok"] = _accounting_ok(workload, traced_rows)
        if not record["accounting_ok"]:
            loop.errors.append("traced self times do not account for the job span")
        record["chrome_trace"] = chrome_trace(spans, hot)

    record["errors"] = loop.errors[:20]
    units = layers.PER_LAYER if trace else END_TO_END
    record["result"] = {
        "correct": loop.failed == 0 and bool(metrics) and record.get("accounting_ok", True),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {
            metric: {"value": value, "unit": units[metric][0]}
            for metric, value in metrics.items()
        },
    }
    record["jobs_failed_frac"] = loop.failed / loop.attempted
    return record


def _accounting_ok(workload, rows: list[dict]) -> bool:
    """Layer self times plus unattributed time must equal the job span
    when one thread does all the work, and may only exceed it (by the
    work that ran in parallel) otherwise."""
    for row in rows:
        slack = 0.001 * row["job.traced_s"]
        if row["trace.overlap_s"] < -slack:
            return False
        if workload.workers == 1 and row["trace.overlap_s"] > slack:
            return False
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import repro
    except ImportError as exc:
        print(f"cannot import the program from {ROOT}/src: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(os.path.join(ROOT, "src")):
        print(f"imported repro from {repro.__file__}, not from this checkout", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))

    base = os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}"
    )
    chrome = record.pop("chrome_trace", None)
    if chrome is not None:
        with open(base + ".trace.json", "w") as handle:
            json.dump(chrome, handle)
        record["chrome_trace_file"] = os.path.relpath(base + ".trace.json", ROOT)
    with open(base + ".json", "w") as handle:
        json.dump(record, handle, indent=1)

    result = record["result"]
    stamp = record["stamp"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"nproc {stamp['nproc']}  python {stamp['python']}  "
          f"commit {stamp['git_commit'] or 'n/a'}  src {stamp['src_sha256'][:12]}")
    print(f"cpu {stamp['cpu_model']}  load {stamp['loadavg_before']} -> {stamp['loadavg_after']}")
    print(f"jobs attempted {result['attempted']}  failed {result['failed']}  "
          f"jobs_failed_frac {record['jobs_failed_frac']:.4f}")
    for error in record["errors"]:
        print(f"  error: {error}")
    print("job wall seconds: " + " ".join(f"{wall:.3f}" for wall in record["jobs_s"]))
    for metric, value in record.get("raw", {}).items():
        print(f"raw wall-clock {metric:<19} {value:>14.6g} s")
    if record.get("self_time_table"):
        print(record["self_time_table"])
    for metric, entry in result["metrics"].items():
        print(f"{metric:<34} {entry['value']:>14.6g} {entry['unit']}")
    print(f"record: {os.path.relpath(base + '.json', ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
