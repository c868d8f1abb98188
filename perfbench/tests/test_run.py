"""The time limit of run.py and its refusal to run without latrep's
sources."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
import run

PERFBENCH = Path(__file__).resolve().parent.parent


def steps(durations):
    """A step that sleeps ``durations[k]``, or times out on ``None``."""
    done = []

    def step(k):
        if durations[k] is None:
            raise run.WorkerTimeout("timeout")
        time.sleep(durations[k])
        done.append(k)
    return done, step


def test_repeat_runs_at_least_min_reps():
    done, step = steps([0.0] * 5)
    assert run.repeat(0, 3, time.monotonic() + 60, step)
    assert done == [0, 1, 2]


def test_repeat_does_not_start_a_step_that_would_pass_the_deadline():
    done, step = steps([0.2] * 5)
    assert not run.repeat(0, 3, time.monotonic() + 0.3, step)
    assert done == [0]


def test_repeat_drops_a_late_step_but_not_the_first():
    done, step = steps([0.0, None, 0.0])
    assert not run.repeat(0, 3, time.monotonic() + 60, step)
    assert done == [0]
    with pytest.raises(run.WorkerTimeout):
        run.repeat(0, 3, time.monotonic() + 60, steps([None])[1])


def test_run_fails_without_latrep_sources(tmp_path):
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "genus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
