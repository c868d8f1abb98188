"""latrep benchmark driver.

    python3 perfbench/run.py --workload {genus,scan,local,reps,all} \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each repetition runs in a fresh worker
process (``worker.py``), one after another: a closed loop with one client,
one process and one thread, so latrep's module caches start empty each time
as they do for a CLI call.

The seed fixes the inputs of each repetition k = 0, 1, ...  Every time
reported is wall time.

``--trace 0`` repeats the workload until ``--seconds`` have passed (at least
``MIN_REPS`` times) and reports the end-to-end metrics: medians over the
repetitions, and item latency percentiles over the items of all of them.

``--trace 1`` alternates an untraced and a traced worker on the inputs of
repetition 0 until ``--seconds`` have passed (at least ``MIN_TRACED_PAIRS``
times) and
reports the per-layer metrics of ``tracer.py``: exact counts from the
traced run, the median self time of each layer, and the tracing overhead.
Counts and outputs must repeat exactly between the traced workers, and the
traced outputs must equal the untraced ones.

A workload gets ``RUN_LIMIT_S`` seconds.  When a worker would not end in
that time at the pace of the slowest one so far, it is not started, and a
worker still running then is killed; if an earlier worker has ended, the
metrics come from the workers that ended and the record is marked
``incomplete``, so a large slowdown is still measured.

Every run writes a record (machine, versions, commit, seed and the values
of each repetition) to ``perfbench/results/``; a traced run also writes the
spans of its first traced worker there.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is non-zero, with no result line, when a worker
cannot run, for example in a directory without latrep's sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

WORKLOADS = ("genus", "scan", "local", "reps")
MIN_REPS = 3
MIN_TRACED_PAIRS = 2  # two traced workers, to check that counts repeat
RUN_LIMIT_S = 170  # per workload

END_TO_END = {"setup_s": "s", "run_s": "s", "item_p50_ms": "ms",
              "item_p90_ms": "ms", "peak_rss_mb": "MiB"}


class WorkerError(RuntimeError):
    pass


class WorkerTimeout(WorkerError):
    pass


def spawn(workload: str, seed: int, rep: int, trace: int, deadline: float,
          spans: Path | None = None) -> dict:
    """Run one worker to completion, by ``deadline`` (a ``time.monotonic``
    reading), and return its result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--rep", str(rep), "--trace", str(trace)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerTimeout(f"{workload} run exceeded {RUN_LIMIT_S} s") from exc
    if proc.returncode != 0:
        raise WorkerError(f"{workload} worker exited with {proc.returncode}:\n"
                          + proc.stderr[-2000:])
    return json.loads(proc.stdout.splitlines()[-1])


def repeat(seconds: float, min_reps: int, deadline: float, step) -> bool:
    """Call ``step(k)`` for k = 0, 1, ... until ``seconds`` have passed and
    it has been called at least ``min_reps`` times.  Return False early when
    ``deadline`` comes first: a step is not started when it would not end
    by then at the pace of the slowest step so far, and a step that times
    out after an earlier one ended is dropped.  A first step that times out
    raises."""
    start, k, longest = time.monotonic(), 0, 0.0
    while k < min_reps or time.monotonic() - start < seconds:
        t0 = time.monotonic()
        if k and t0 + longest > deadline:
            return False
        try:
            step(k)
        except WorkerTimeout:
            if not k:
                raise
            return False
        longest = max(longest, time.monotonic() - t0)
        k += 1
    return True


def percentile(values, q: int) -> float:
    """The q-th percentile, as ``statistics.quantiles`` (exclusive) gives it."""
    return statistics.quantiles(values, n=100)[q - 1]


def measure(workload: str, seed: int, seconds: float, deadline: float):
    reps: list[dict] = []
    complete = repeat(
        seconds, MIN_REPS, deadline,
        lambda k: reps.append(spawn(workload, seed, k, 0, deadline)))
    items = [x for r in reps for x in r["items_s"]]
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "run_s": statistics.median(r["run_s"] for r in reps),
        "item_p50_ms": 1000 * statistics.median(items),
        "item_p90_ms": 1000 * percentile(items, 90),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    metrics = {name: {"value": metrics[name], "unit": unit}
               for name, unit in END_TO_END.items()}
    return metrics, reps, [], complete


RATIOS = (".yield", ".hit_ratio", "trace_overhead", "undecided_frac",
          "failed_frac")


def layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    return "ratio" if name.endswith(RATIOS) else "count"


def measure_traced(workload: str, seed: int, seconds: float,
                   deadline: float):
    RESULTS.mkdir(exist_ok=True)
    spans = RESULTS / f"spans-{workload}-seed{seed}.jsonl"
    plain: list[dict] = []
    traced: list[dict] = []

    def pair(k: int) -> None:
        plain.append(spawn(workload, seed, 0, 0, deadline))
        traced.append(spawn(workload, seed, 0, 1, deadline,
                            spans if k == 0 else None))

    complete = repeat(seconds, MIN_TRACED_PAIRS, deadline, pair)

    problems = []
    first = traced[0]["layers"]
    if any({n: v for n, v in t["layers"].items() if not n.endswith(".self_s")}
           != {n: v for n, v in first.items() if not n.endswith(".self_s")}
           for t in traced):
        problems.append("per-layer counts differ between traced runs")
    if len({r["digest"] for r in plain + traced}) != 1:
        problems.append("traced and untraced outputs differ")

    values = {name: statistics.median(t["layers"][name] for t in traced)
              if name.endswith(".self_s") else value
              for name, value in first.items()}
    runs = plain + traced
    attempted = sum(r["attempted"] for r in runs)
    values["trace_overhead"] = statistics.median(
        t["run_s"] / p["run_s"] for p, t in zip(plain, traced))
    values["undecided_frac"] = sum(r["info"].get("undecided", 0)
                                   for r in runs) / attempted
    values["failed_frac"] = sum(r["failed"] for r in runs) / attempted
    layers = {name: {"value": value, "unit": layer_unit(name)}
              for name, value in values.items()}
    return layers, runs, problems, complete


def git_commit() -> str | None:
    """HEAD of the checkout's git directory, read from its files."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        import sympy
        sympy_version = sympy.__version__
    except ImportError:
        sympy_version = None
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "sympy": sympy_version,
            "commit": git_commit()}


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    measure_fn = measure_traced if trace else measure
    metrics, runs, problems, complete = measure_fn(
        workload, seed, seconds, time.monotonic() + RUN_LIMIT_S)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    notes = [f"worker {k}: {n}" for k, r in enumerate(runs) for n in r["notes"]]
    correct = failed == 0 and not problems
    if not complete:
        notes.insert(0, f"incomplete: {RUN_LIMIT_S} s limit reached after "
                        f"{len(runs)} workers")
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "incomplete": not complete, "machine": machine(),
              "runs": [{k: v for k, v in r.items() if k != "items_s"}
                       for r in runs],
              "problems": problems + notes, "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for line in problems + notes[:10]:
        print(f"{workload}: {line}", file=sys.stderr)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "latrep" / "__init__.py").is_file():
        print(f"no latrep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace)
                   for w in names}
    except WorkerError as exc:
        print(exc, file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    for w, res in results.items():
        for name, m in res["metrics"].items():
            print(f"{w:6s} {name:50s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items()
                    for name, m in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
