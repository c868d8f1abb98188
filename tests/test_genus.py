import random
from fractions import Fraction
from math import factorial

import pytest
from oracles import automorphism_count_oracle, random_pos_def_entries

from latrep.enumeration import lattice_minimum, lll_reduce, vectors_of_norm
from latrep.genus import (_automorphisms, _lift_isotropic, _neighbor_gram,
                          _projective_points, automorphism_group_order,
                          enumerate_genus, is_isometric, p_neighbors,
                          represented_by_all_classes)
from latrep.matrices import (GramMatrix, IntMatrix, det, gram_of_columns,
                             is_positive_definite)

rng = random.Random(2718)

E8 = GramMatrix([
    [2, -1, 0, 0, 0, 0, 0, 0],
    [-1, 2, -1, 0, 0, 0, 0, 0],
    [0, -1, 2, -1, 0, 0, 0, 0],
    [0, 0, -1, 2, -1, 0, 0, 0],
    [0, 0, 0, -1, 2, -1, 0, -1],
    [0, 0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, 0, -1, 2, 0],
    [0, 0, 0, 0, -1, 0, 0, 2]])


def random_pos_def(n, spread=3):
    while True:
        B = [[rng.randint(-spread, spread) for _ in range(n)] for _ in range(n)]
        G = [[sum(B[k][i] * B[k][j] for k in range(n)) for j in range(n)]
             for i in range(n)]
        for i in range(n):
            G[i][i] += rng.randint(1, 2)
        S = GramMatrix(G)
        if is_positive_definite(S):
            return S


def random_unimodular(n, steps=10):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        f = rng.randint(-2, 2)
        for k in range(n):
            m[i][k] += f * m[j][k]
    return IntMatrix(m)


def test_is_isometric_positive_cases():
    for _ in range(12):
        n = rng.randint(2, 4)
        S = random_pos_def(n)
        U = random_unimodular(n)
        S2 = gram_of_columns(S, U)
        W = is_isometric(S, S2)
        assert W is not None
        assert gram_of_columns(S, W).entries == S2.entries


def test_is_isometric_negative_cases():
    assert is_isometric(GramMatrix.diagonal([1, 1]),
                        GramMatrix.diagonal([1, 4])) is None
    # same determinant, same minimum, different forms
    A2 = GramMatrix([[2, 1], [1, 2]])
    other = GramMatrix.diagonal([1, 3])
    assert is_isometric(A2, other) is None
    with pytest.raises(ValueError):
        is_isometric(GramMatrix.identity(2), GramMatrix.identity(3))


def test_p_neighbors_requirements():
    S = GramMatrix.identity(3)
    with pytest.raises(ValueError):
        p_neighbors(S, 2)
    with pytest.raises(ValueError):
        p_neighbors(GramMatrix.diagonal([3, 1, 1]), 3)


def test_p_neighbors_stay_in_genus():
    S = GramMatrix([[2, 0, 0], [0, 2, 1], [0, 1, 4]])  # det 14
    for p in (3, 5):
        for nb in p_neighbors(S, p):
            assert det(nb) == det(S)
            assert is_positive_definite(nb)


def test_genus_single_class_small():
    for n in (2, 3, 4, 5):
        record = enumerate_genus(GramMatrix.identity(n), 3)
        assert record.complete
        assert len(record.classes) == 1


def test_genus_record_dict():
    record = enumerate_genus(GramMatrix.identity(2), 5)
    d = record.to_dict()
    assert d["schema_version"] == 1
    assert d["complete"] is True
    assert d["prime_used"] == 5
    assert len(d["classes"]) == 1
    assert d["mass_expected"] == d["mass_found"] == "1/8"
    assert d["mass_certified"] is True


def test_certified_closure_stops_at_the_mass(monkeypatch):
    import latrep.genus

    # class number 1: the seed alone makes up the mass, so no neighbor is
    # built and the auxiliary prime is not walked
    def no_walk(S, p):
        raise AssertionError("neighbors built")

    monkeypatch.setattr(latrep.genus, "_neighbors", no_walk)
    record = enumerate_genus(GramMatrix.identity(6), 3, aux_prime=5)
    assert record.mass_certified and record.classes == (GramMatrix.identity(6),)
    assert record.provenance == ()
    with pytest.raises(ValueError):  # the primes are still checked
        enumerate_genus(GramMatrix.identity(6), 3, aux_prime=2)


def test_uncertified_closure_above_the_conductor_bound(monkeypatch):
    import latrep.mass

    S = GramMatrix.diagonal([1, 17])
    certified = enumerate_genus(S, 3)
    assert certified.mass_certified
    assert certified.mass_expected == Fraction(1, 2)  # 1/4 + 1/4
    monkeypatch.setattr(latrep.mass, "_MAX_CONDUCTOR", 16)
    record = enumerate_genus(S, 3)
    assert record.mass_expected is None and not record.mass_certified
    assert record.classes == certified.classes and record.complete
    assert record.to_dict()["mass_expected"] is None
    with pytest.raises(ValueError):
        latrep.mass.genus_mass(S)


def test_genus_nontrivial_two_classes():
    # det-17 binary forms: x^2 + 17y^2 and 2x^2 + 2xy + 9y^2 lie in one
    # genus with two classes (classical class number 2 discriminant)
    S = GramMatrix.diagonal([1, 17])
    record = enumerate_genus(S, 3)
    assert record.complete
    assert len(record.classes) == 2
    reps = [tuple(sorted((c.entries[0][0], c.entries[1][1])))
            for c in record.classes]
    mins = sorted(lattice_minimum(c) for c in record.classes)
    assert mins == [1, 2]


def test_represented_by_all_classes():
    record = enumerate_genus(GramMatrix.diagonal([1, 17]), 3)
    # 1 is represented by x^2 + 17y^2 but not by 2x^2 + 2xy + 9y^2
    out = represented_by_all_classes(record, GramMatrix.diagonal([1]), 1)
    assert sorted(out.values()) == [False, True]
    # 2 is represented by the second class only
    out2 = represented_by_all_classes(record, GramMatrix.diagonal([2]), 1)
    assert sorted(out2.values()) == [False, True]
    # 18 = 2*3^2 is represented by the second class only imprimitively
    out18 = represented_by_all_classes(record, GramMatrix.diagonal([18]), 1)
    assert sorted(out18.values()) == [False, True]
    out18c = represented_by_all_classes(record, GramMatrix.diagonal([18]), 3)
    assert all(out18c.values())
    # 21 = 4 + 17 = 2*4 + 4 + 9 is primitively represented by both
    out21 = represented_by_all_classes(record, GramMatrix.diagonal([21]), 1)
    assert all(out21.values())


def test_incomplete_genus_raises():
    record = enumerate_genus(GramMatrix.diagonal([1, 17]), 3, class_cap=1)
    assert not record.complete
    with pytest.raises(ValueError):
        represented_by_all_classes(record, GramMatrix.diagonal([1]), 1)


def test_is_isometric_seeded_pairs():
    # pairs isometric by construction must never be reported as distinct
    local = random.Random(31337)
    for _ in range(60):
        n = local.randint(3, 6)
        while True:
            B = [[local.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            G = [[sum(B[k][i] * B[k][j] for k in range(n)) + (i == j)
                  for j in range(n)] for i in range(n)]
            S = GramMatrix(G)
            if is_positive_definite(S):
                break
        U = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(8):
            i, j = local.sample(range(n), 2)
            f = local.choice((-1, 1))
            U[i] = [x + f * y for x, y in zip(U[i], U[j])]
        S2 = gram_of_columns(S, IntMatrix(U))
        W = is_isometric(S, S2)
        assert W is not None
        assert gram_of_columns(S, W).entries == S2.entries


def test_genus_isometric_classes_merged():
    # each genus has one class; an isometry test with false negatives
    # listed a second, isometric representative
    for entries, p in (([[9, -3, 3], [-3, 5, -1], [3, -1, 2]], 5),
                       ([[12, -4, 2], [-4, 6, -3], [2, -3, 5]], 3)):
        record = enumerate_genus(GramMatrix(entries), p)
        assert record.complete
        assert len(record.classes) == 1


def test_genus_check_uses_invariants_at_two():
    # the 2-adic Jordan symbol of a neighbor is computed in another basis;
    # a basis-dependent symbol made this closure fail its genus check
    record = enumerate_genus(GramMatrix.diagonal([1, 2, 4, 8]), 3)
    assert record.complete
    assert sorted(lattice_minimum(c) for c in record.classes) == [1, 2]
    assert all(det(c) == 64 for c in record.classes)


def test_new_class_outside_the_genus_raises(monkeypatch):
    # the genus symbol is checked once per new class, not per neighbour;
    # a symbol that tells E8 + I1 apart from I9 must still stop the closure
    import latrep.genus
    symbol = latrep.genus._genus_symbol

    def marked(S, splits):
        return symbol(S, splits) + (len(vectors_of_norm(S, 1).vectors),)

    monkeypatch.setattr(latrep.genus, "_genus_symbol", marked)
    with pytest.raises(AssertionError, match="neighbor left the genus"):
        enumerate_genus(GramMatrix.identity(9), 3)


def test_e8_genus_and_kissing():
    assert lattice_minimum(E8) == 2
    assert len(vectors_of_norm(E8, 2).vectors) == 120  # 240 up to sign
    record = enumerate_genus(E8, 3)
    assert record.complete
    assert len(record.classes) == 1


def test_automorphism_group_orders():
    E8_I1 = GramMatrix([list(row) + [0] for row in E8.entries] + [[0] * 8 + [1]])
    cases = [(GramMatrix.identity(n), 2 ** n * factorial(n)) for n in range(1, 10)]
    cases += [(E8, 696_729_600), (GramMatrix([[2, 1], [1, 2]]), 12),
              (E8_I1, 1_393_459_200),
              (GramMatrix([[3, 1, 0], [1, 4, 1], [0, 1, 6]]), 2)]  # only +-1
    for S, order in cases:
        assert automorphism_group_order(S) == order
        gens = _automorphisms(S)[1]
        assert gens
        for g in gens:
            assert gram_of_columns(S, g).entries == S.entries


def test_automorphism_orders_match_brute_force():
    rand = random.Random(4242)
    done = 0
    while done < 60:
        n = rand.randint(2, 5)
        if done % 2:
            rows = random_pos_def_entries(rand, n, spread=1, bump=2)
        else:
            # a diagonal with repeated entries, glued by a few +-1 entries,
            # so that the groups are larger than {+-1}
            rows = [[rand.choice((1, 2, 2, 3)) if i == j else 0
                     for j in range(n)] for i in range(n)]
            for _ in range(rand.randint(0, 2)):
                i, j = rand.sample(range(n), 2)
                rows[i][j] = rows[j][i] = rand.choice((-1, 1))
            if not is_positive_definite(GramMatrix(rows)):
                continue
        assert automorphism_group_order(GramMatrix(rows)) == \
            automorphism_count_oracle(rows), rows
        done += 1


def _p_neighbors_every_line(S, p):
    """The p-neighbor list built from every isotropic line: the neighbor
    of each line, LLL-reduced, keeping the first of each isometry class."""
    out = []
    for x0 in _projective_points(p, S.n):
        Sx = [sum(a * b for a, b in zip(row, x0)) for row in S.entries]
        if sum(a * b for a, b in zip(x0, Sx)) % p:
            continue
        x, Sx = _lift_isotropic(S, list(x0), Sx, p)
        reduced, _ = lll_reduce(_neighbor_gram(S, x, Sx, p))
        if any(reduced.entries == r.entries
               or is_isometric(reduced, r) is not None for r in out):
            continue
        out.append(reduced)
    return out


def test_p_neighbors_one_per_isometry_class():
    # building one neighbor per Aut(S)-orbit of lines gives the same list,
    # in the same order, as building one per line
    cases = [(GramMatrix.identity(n), p) for n, p in ((4, 3), (5, 3), (6, 3), (4, 5))]
    cases += [(GramMatrix([[2, 1], [1, 2]]), 5),
              (GramMatrix([[2, 0, 0], [0, 2, 1], [0, 1, 4]]), 5)]
    rand = random.Random(8080)
    while len(cases) < 16:
        S = GramMatrix(random_pos_def_entries(rand, rand.randint(3, 5),
                                              spread=1, bump=2))
        p = next(p for p in (3, 5, 7) if det(S) % p)
        cases.append((S, p))
    for S, p in cases:
        assert [r.entries for r in p_neighbors(S, p)] == \
            [r.entries for r in _p_neighbors_every_line(S, p)], (S, p)
