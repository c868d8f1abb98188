"""One benchmark worker: a fresh process, so latrep's module caches start
empty as they do for a CLI call.

    python3 perfbench/worker.py --workload W --seed N --rep K --trace 0|1 \
        --spawned T [--spans PATH]

``--spawned`` is the CLOCK_MONOTONIC reading taken by the parent just before
it started this process; set-up time runs from there until latrep is
imported and the inputs are generated.  Every time reported (set-up, timed
phase, items, phases and trace spans) is wall time.  The result is one JSON
object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import sys
import time
from pathlib import Path


HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def import_latrep():
    """Import latrep from this checkout's ``src`` and nowhere else."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import latrep
    if Path(latrep.__file__).resolve().parent != ROOT / "src" / "latrep":
        raise ImportError(f"latrep imported from {latrep.__file__}, "
                          f"not from {ROOT / 'src'}")
    return latrep


def input_rng(workload: str, seed: int, rep: int) -> random.Random:
    """The random source of the inputs of repetition ``rep`` of a run with
    ``seed``; string seeds are hashed with SHA-512, so this does not depend
    on PYTHONHASHSEED."""
    return random.Random(f"{workload}:{seed}:{rep}")


def digest(outputs) -> str:
    """Fingerprint of a workload's plain-data outputs, to compare a traced
    and an untraced run of the same inputs."""
    return hashlib.sha256(repr(outputs).encode()).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rep", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)
    import_latrep()
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]()
    inputs = workload.inputs(input_rng(args.workload, args.seed, args.rep))
    setup_s = monotonic() - args.spawned

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer().install()
    t0 = time.perf_counter()
    try:
        outputs, intervals, info = workload.run(inputs, tracer)
    finally:
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed, notes = workload.check(inputs, outputs)
    phases = info.pop("phases", {})
    result = {
        "setup_s": setup_s, "run_s": t1 - t0, "peak_rss_mb": peak_rss_mb,
        "attempted": len(inputs), "failed": failed, "notes": notes,
        "items_s": [b - a for a, b in intervals],
        "phases_s": {name: b - a for name, (a, b) in phases.items()},
        "info": info, "digest": digest(outputs)}
    if tracer is not None:
        result["layers"] = tracer.stats()
        result["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
