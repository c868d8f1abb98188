"""Tests of the outside-in tracer: self-time arithmetic, restoring the
wrapped functions, traced runs giving the same outputs as untraced, and
BENCHMARK.json naming every metric the benchmark reports."""

import itertools
import json
import random
import sys
import types
from pathlib import Path

import latrep
import pytest
from run import END_TO_END, layer_unit
from tracer import TARGETS, Tracer, self_times, span_stats
from workloads import WORKLOADS


@pytest.fixture
def fake_package():
    """``fakepkg.a.outer`` calls ``inner`` twice and ``fakepkg.b.leaf``,
    which ``a`` imported by name, the way latrep's modules import each
    other."""
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")
    pkg.a, pkg.b = a, b
    exec("def leaf(x):\n    return x + 1\n", b.__dict__)
    a.leaf = b.leaf
    exec("def inner(x):\n    return leaf(x)\n"
         "def outer(x):\n    return inner(x) + inner(x)\n", a.__dict__)
    sys.modules.update({"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b})
    yield a, b
    for name in ("fakepkg", "fakepkg.a", "fakepkg.b"):
        del sys.modules[name]


def test_self_time_of_synthetic_nested_calls(fake_package):
    a, b = fake_package
    ticks = itertools.count()
    tracer = Tracer(targets=[("a", "outer"), ("a", "inner"), ("b", "leaf")],
                    package="fakepkg", clock=lambda: float(next(ticks)))
    before = dict(vars(a)), dict(vars(b))
    with tracer:
        assert a.outer(1) == 4
    # clock readings: outer 0..9, inner 1..4 and 5..8, leaf 2..3 and 6..7
    assert [(s[0], s[1], s[2], s[3]) for s in tracer.spans] == [
        (0, 0, 9, -1), (1, 1, 4, 0), (2, 2, 3, 1), (1, 5, 8, 0), (2, 6, 7, 3)]
    assert self_times(tracer.spans) == [3, 2, 1, 2, 1]
    assert (dict(vars(a)), dict(vars(b))) == before


def test_span_stats_counts_outcomes_and_ratios():
    names = [f"{m}.{f}" for m, f in TARGETS]
    fid = names.index
    # [fn, start, end, parent, item, outcome]
    spans = [
        [fid("enumeration.find_representations"), 0.0, 10.0, -1, 0, 1],
        [fid("enumeration.Embedding.build"), 1.0, 3.0, 0, 0, None],
        [fid("matrices.saturate"), 1.5, 2.5, 1, 0, None],
        [fid("enumeration.Embedding.build"), 4.0, 5.0, 0, 0, None],
        [fid("enumeration.Embedding.build"), 11.0, 12.0, -1, 1, None],
        [fid("genus.is_isometric"), 13.0, 14.0, -1, 2, True],
        [fid("genus.is_isometric"), 14.0, 16.0, -1, 2, False],
        [fid("localrep.represents_over_Zp"), 16.0, 17.0, -1, 3, "undecided"],
    ]
    stats = span_stats(spans, names)
    assert stats["enumeration.find_representations.self_s"] == 7.0
    assert stats["enumeration.Embedding.build.calls"] == 3
    assert stats["enumeration.Embedding.build.self_s"] == 3.0
    assert stats["matrices.saturate.self_s"] == 1.0
    # one embedding kept out of the two builds inside the search
    assert stats["enumeration.find_representations.yield"] == 0.5
    assert stats["genus.is_isometric.hit_ratio"] == 0.5
    assert stats["localrep.represents_over_Zp.undecided"] == 1
    assert stats["localrep.represents_over_Zp.representable"] == 0
    assert stats["genus.enumerate_genus.calls"] == 0


def _bindings():
    """Every module attribute of latrep that names a traced function."""
    originals = set()
    for mod, attr in TARGETS:
        owner = sys.modules[f"latrep.{mod}"]
        if "." not in attr:
            originals.add(getattr(owner, attr))
    out = {}
    for name, module in sys.modules.items():
        if name == "latrep" or name.startswith("latrep."):
            for key, value in vars(module).items():
                if any(value is f for f in originals):
                    out[name, key] = value
    out["Embedding.build"] = latrep.Embedding.__dict__["build"]
    return out


def test_originals_restored_and_cross_module_calls_caught():
    before = _bindings()
    S = latrep.GramMatrix([[2, 1, 0], [1, 2, 0], [0, 0, 1]])
    with Tracer() as tracer:
        assert latrep.genus.lll_reduce is not before["latrep.genus", "lll_reduce"]
        record = latrep.enumerate_genus(S, 5)
    assert record.complete
    assert _bindings() == before

    names = tracer.names
    calls = {n: 0 for n in names}
    for span in tracer.spans:
        calls[names[span[0]]] += 1
    assert calls["genus.enumerate_genus"] == 1
    # genus calls enumeration.lll_reduce and padic.jordan_decomposition,
    # both bound into genus by ``from ... import``
    assert calls["enumeration.lll_reduce"] > 0
    assert calls["padic.jordan_decomposition"] > 0
    root = names.index("genus.enumerate_genus")
    assert all(s[3] >= 0 for s in tracer.spans if s[0] != root)


SMALL = {
    "genus": {"CASES": [(3, 2), (3, 3), (5, 2)]},
    "scan": {"BOUND": 6},
    "local": {"DRAWS": 40},
    "reps": {"T_MAX": 8},
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_and_untraced_outputs_identical(name):
    workload = WORKLOADS[name]()
    for attr, value in SMALL[name].items():
        setattr(workload, attr, value)
    inputs = workload.inputs(random.Random(7))
    plain, _, _ = workload.run(inputs)
    with Tracer() as tracer:
        traced, _, _ = workload.run(inputs, tracer)
    assert traced == plain
    assert tracer.spans
    # spans before the first item (the genus closure of a scan) have item -1
    assert {s[4] for s in tracer.spans} <= set(range(-1, len(inputs)))


def test_benchmark_json_lists_every_reported_metric():
    bench = json.loads((Path(__file__).resolve().parents[2]
                        / "BENCHMARK.json").read_text())
    names = [f"{m}.{f}" for m, f in TARGETS]
    reported = list(span_stats([], names)) + [
        "trace_overhead", "undecided_frac", "failed_frac"]
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (name, layer_unit(name)) for name in reported]
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(
        END_TO_END.items())
