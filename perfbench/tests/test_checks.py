"""Each workload's output check accepts the library's answers and rejects a
deliberately wrong one; the arithmetic oracles agree with brute force."""

import random
from itertools import product
from math import gcd

import pytest
import reference
from workloads import WORKLOADS, ItemError, random_unimodular


def small(name, **attrs):
    workload = WORKLOADS[name]()
    for attr, value in attrs.items():
        setattr(workload, attr, value)
    return workload


def test_random_unimodular_is_unimodular():
    rng = random.Random(3)
    for n in range(2, 7):
        U = random_unimodular(rng, n)
        assert abs(reference._naive_det(U)) == 1


def test_r4_primitive_matches_brute_force():
    for t in range(1, 21):
        box = range(-5, 6)
        count = sum(1 for x in product(box, repeat=4)
                    if sum(v * v for v in x) == t and gcd(*x) == 1)
        assert reference.r4_primitive(t) == count, t


def test_genus_check_rejects_extra_class_and_incomplete():
    workload = small("genus", CASES=[(3, 2), (5, 3)])
    inputs = workload.inputs(random.Random(1))
    outputs, _, _ = workload.run(inputs)
    assert workload.check(inputs, outputs) == (0, [])
    assert workload.check(inputs, [(True, 2), outputs[1]])[0] == 1
    assert workload.check(inputs, [(False, 1), outputs[1]])[0] == 1
    assert workload.check(inputs, [ItemError("boom"), outputs[1]])[0] == 1


def test_scan_check_rejects_wrong_rows():
    workload = small("scan")
    targets = workload.inputs(random.Random(1))[:3]
    good = [(t, True, t[0], 1, 1, False) for t in targets]
    assert workload.check(targets, good)[0] == 0
    wrong_mu = [good[0], (targets[1], True, targets[1][0] + 1, 1, 1, False),
                good[2]]
    assert workload.check(targets, wrong_mu)[0] == 1
    exception = [good[0], good[1], (targets[2], True, targets[2][0], 1, 0, True)]
    assert workload.check(targets, exception)[0] == 1
    assert workload.check(targets, good[:2])[0] == 1
    # a full-size scan with one local_ok row lost fails the row count
    all_targets = workload.inputs(random.Random(1))
    rows = [(t, k < workload.LOCAL_OK - 1, t[0] if k < workload.LOCAL_OK - 1
             else None, 1, 1, False) for k, t in enumerate(all_targets)]
    assert workload.check(all_targets, rows)[0] >= 1


def test_local_check_rejects_bad_witness_status_and_false_negative():
    workload = small("local", DRAWS=60)
    inputs = workload.inputs(random.Random(5))
    outputs, _, info = workload.run(inputs)
    assert workload.check(inputs, outputs) == (0, [])
    assert info["undecided"] == 0

    k = next(i for i, o in enumerate(outputs) if o[0] == "representable")
    status, witness, precision = outputs[k]
    bumped = [list(row) for row in witness]
    bumped[0][0] += 1
    for bad in [(status, bumped, precision), ("maybe", witness, precision),
                (status, witness, 3 * precision), ItemError("boom")]:
        wrong = list(outputs)
        wrong[k] = bad
        assert workload.check(inputs, wrong)[0] == 1, bad

    # a representable instance reported as not representable is caught by
    # the oracle, and an undecided certificate counts as failed
    for bad in [("not_representable", None, precision),
                ("undecided", None, precision)]:
        wrong = list(outputs)
        wrong[k] = bad
        assert workload.check(inputs, wrong)[0] == 1, bad


def test_reps_check_rejects_count_off_by_one_and_bad_vectors():
    workload = small("reps", T_MAX=6)
    inputs = workload.inputs(random.Random(2))
    outputs, _, _ = workload.run(inputs)
    assert workload.check(inputs, outputs) == (0, [])
    k = 4  # t = 5: r4*(5)/2 = 24 representations up to sign
    assert len(outputs[k]) == reference.r4_primitive(5) // 2
    for bad in [outputs[k][:-1],                            # one short
                outputs[k] + [tuple(-v for v in outputs[k][0])],  # sign twin
                [tuple(2 * v for v in outputs[k][0])] + outputs[k][1:]]:
        wrong = list(outputs)
        wrong[k] = bad
        assert workload.check(inputs, wrong)[0] == 1


@pytest.mark.parametrize("witness_ok", [True, False])
def test_local_witness_ok_on_exact_witness(witness_ok):
    # I2 represents 2 by (1, 1); (1, 0) has norm 1
    X = [[1], [1]] if witness_ok else [[1], [0]]
    assert reference.local_witness_ok(
        3, [[1, 0], [0, 1]], [[2]], 1, "representable", X, None) is witness_ok
