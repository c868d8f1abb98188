import random
import time
from fractions import Fraction
from math import prod

import pytest
import sympy

from latrep.matrices import GramMatrix, det
from latrep.padic import (Place, REAL, complement_isotropic,
                          hasse_invariant, hilbert_symbol, is_isotropic,
                          is_local_square, jordan_decomposition, legendre,
                          ord_p, space_invariants, squarefree_class)

from oracles import (diagonal_invariants, fraction_diagonal_oracle,
                     fraction_jordan_oracle, hilbert_class_oracle,
                     hilbert_oracle, random_pos_def_entries)

rng = random.Random(97)


def places_for(*values):
    out = {REAL, Place.finite(2)}
    for v in values:
        v = Fraction(v)
        for q in sympy.factorint(abs(v.numerator * v.denominator)).keys():
            out.add(Place.finite(q))
    return out


def test_ord_and_unit_part():
    assert ord_p(12, 2) == 2
    assert ord_p(Fraction(3, 8), 2) == -3
    with pytest.raises(ValueError):
        ord_p(0, 2)
    for p in (1, 0, -1):  # no finite valuation: p = 1 would never return
        with pytest.raises(ValueError):
            ord_p(3, p)


def test_squarefree_class():
    assert squarefree_class(50) == 2
    assert squarefree_class(-4) == -1
    assert squarefree_class(Fraction(2, 3)) == 6
    with pytest.raises(ValueError):
        squarefree_class(0)


def test_place_finite_rejects_zero():
    assert Place.finite(7).p == 7 and Place(0) == REAL
    with pytest.raises(ValueError):
        Place.finite(0)
    with pytest.raises(ValueError):
        Place.finite(4)


def test_legendre():
    for p in (3, 5, 7, 11, 13):
        residues = {pow(a, 2, p) for a in range(1, p)}
        for a in range(1, p):
            assert legendre(a, p) == (1 if a in residues else -1)


def test_hilbert_real():
    assert hilbert_symbol(-1, -1, REAL) == -1
    assert hilbert_symbol(-1, 2, REAL) == 1
    assert hilbert_symbol(3, 5, REAL) == 1


def test_hilbert_bilinearity():
    for v in (REAL, Place.finite(2), Place.finite(3), Place.finite(5)):
        for _ in range(60):
            a = rng.choice([x for x in range(-20, 21) if x])
            b = rng.choice([x for x in range(-20, 21) if x])
            c = rng.choice([x for x in range(-20, 21) if x])
            assert (hilbert_symbol(a, b * c, v) ==
                    hilbert_symbol(a, b, v) * hilbert_symbol(a, c, v))
            assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)


def test_hilbert_square_invariance():
    for v in (REAL, Place.finite(2), Place.finite(7)):
        for a in (-6, -1, 2, 3, 10):
            assert hilbert_symbol(a, a * a, v) == 1
            if a != 1:
                assert hilbert_symbol(a, -a, v) == 1
            assert hilbert_symbol(a, 1 - a, v) == 1 if a != 1 else True


def test_hilbert_reciprocity():
    for a in range(-30, 31):
        for b in range(-30, 31):
            if a == 0 or b == 0:
                continue
            prod = 1
            for v in places_for(a, b):
                prod *= hilbert_symbol(a, b, v)
            assert prod == 1, (a, b)


def test_hilbert_of_rationals_matches_oracle_on_num_den():
    """(a, b)_p for signed rationals with denominators equals the search on
    the integers num*den, which lie in the same square classes."""
    draw = random.Random(4242)
    for p in (2, 3, 5, 7):
        for _ in range(60):
            a, b = (Fraction(draw.choice([x for x in range(-60, 61) if x]),
                             draw.randint(1, 60)) for _ in range(2))
            na, nb = a.numerator * a.denominator, b.numerator * b.denominator
            got = hilbert_symbol(a, b, Place.finite(p)) == 1
            assert got == hilbert_class_oracle(na, nb, p), (a, b, p)
            if p < 5 and ord_p(na, p) <= 1 and ord_p(nb, p) <= 1:
                # the plain search at its default precision, where it is cheap
                assert got == hilbert_oracle(na, nb, p), (a, b, p)


def test_int_inputs_build_no_fraction(monkeypatch):
    import latrep.matrices as matrices
    import latrep.padic as padic

    assert not hasattr(matrices, "Fraction")

    def no_fraction(*args):
        raise AssertionError("Fraction built from an int input")

    monkeypatch.setattr(padic, "Fraction", no_fraction)
    v = Place.finite(3)
    assert hilbert_symbol(3, -6, v) == hilbert_symbol(-6, 3, v)
    assert is_local_square(12, Place.finite(2)) is False
    assert hasse_invariant([1, 2, 3, 6], v) in (1, -1)
    assert space_invariants(GramMatrix.diagonal([1, 2, 3])).det_class == 6
    assert squarefree_class(-50) == -2
    S = GramMatrix([[2, 1, 0], [1, 2, 3], [0, 3, -6]])
    assert space_invariants(S).det_class == squarefree_class(det(S))
    # p = 2 splits off the even 2x2 block on e1, e2; p = 3 diagonalizes
    assert [(c.scale, c.rank, c.even) for c in
            jordan_decomposition(S, 2).components] == [(0, 2, True), (2, 1, False)]
    assert [(c.scale, c.rank) for c in
            jordan_decomposition(S, 3).components] == [(0, 1), (1, 2)]
    assert complement_isotropic(space_invariants(GramMatrix.identity(5)), S, v)


def test_hilbert_matches_solvability_oracle():
    rand = random.Random(97)
    for _ in range(40):
        p = rand.choice([2, 3, 5])
        a = rand.choice([x for x in range(-9, 10) if x])
        b = rand.choice([x for x in range(-9, 10) if x])
        expect = hilbert_oracle(a, b, p)
        assert (hilbert_symbol(a, b, Place.finite(p)) == 1) == expect, (a, b, p)


def test_hilbert_oracle_strips_even_powers():
    """The default search precision is set after even powers of p are
    removed: (7, -8)_2 = (7, -2)_2 = -1 searches mod 2^9, not mod 2^13."""
    for a, b, p in ((7, -8, 2), (-8, 7, 2), (3, 32, 2), (-1, 32, 2),
                    (2, 27, 3), (-3, 18, 3), (6, 75, 5), (-1, 48, 2)):
        assert (hilbert_symbol(a, b, Place.finite(p)) == 1) == \
            hilbert_oracle(a, b, p), (a, b, p)
    assert hilbert_symbol(7, -8, Place.finite(2)) == -1


def test_is_local_square():
    assert is_local_square(9, Place.finite(2))
    assert not is_local_square(2, Place.finite(2))
    assert not is_local_square(3, Place.finite(2))
    assert is_local_square(17, Place.finite(2))
    assert is_local_square(4, Place.finite(3))
    assert not is_local_square(3, Place.finite(3))
    assert is_local_square(2, REAL)
    assert not is_local_square(-2, REAL)


def test_invariants_independent_of_diagonalization():
    # same space, two different diagonal presentations
    inv1 = diagonal_invariants([1, 1, 1])
    inv2 = diagonal_invariants([4, 9, 25])
    assert inv1 == inv2
    inv3 = diagonal_invariants([2, 3, 6])
    assert inv3.det_class == 1
    assert space_invariants(GramMatrix.diagonal([2, 3, 6])) == inv3


def test_space_invariants_congruence_invariant():
    from latrep.matrices import IntMatrix, gram_of_columns
    S = GramMatrix([[2, 1, 0], [1, 4, 1], [0, 1, 6]])
    U = IntMatrix([[1, 2, 0], [0, 1, 1], [0, 0, 1]])
    assert space_invariants(S) == space_invariants(gram_of_columns(S, U))


def _seeded_symmetric(draw, n):
    """A nonsingular symmetric integer matrix of rank n: positive definite,
    or (as often) indefinite with an even or a zero diagonal."""
    while True:
        if draw.random() < 0.5:
            S = GramMatrix(random_pos_def_entries(draw, n))
        else:
            rows = [[draw.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            zero = draw.random() < 0.3
            S = GramMatrix([[0 if zero and i == j else rows[i][j] + rows[j][i]
                             for j in range(n)] for i in range(n)])
        if det(S) != 0:
            return S


def test_space_invariants_match_fraction_oracle():
    """The integer diagonal of the fraction-free elimination against the
    Fraction congruence diagonalisation: the same space invariants, and
    the same Hasse symbols of T in complement_isotropic."""
    draw = random.Random(2026)
    for _ in range(150):
        S = _seeded_symmetric(draw, draw.randint(1, 6))
        diag = fraction_diagonal_oracle([list(r) for r in S.entries])
        assert space_invariants(S) == diagonal_invariants(diag), S.entries
        amb = space_invariants(GramMatrix.identity(S.n + 2))
        ints = GramMatrix.diagonal([x.numerator * x.denominator for x in diag])
        for q in (2, 3, 5):
            v = Place.finite(q)
            assert complement_isotropic(amb, S, v) == \
                complement_isotropic(amb, ints, v), (S.entries, q)


def test_jordan_matches_fraction_oracle():
    """Scales, ranks, types and unit blocks, entry for entry, against the
    Fraction elimination with the same pivot rule."""
    draw = random.Random(1019)
    for _ in range(200):
        S = _seeded_symmetric(draw, draw.randint(1, 6))
        for p in (2, 3, 5, 7, 11):
            got = [(c.scale, c.rank, [list(r) for r in c.unit_block.entries],
                    c.even) for c in jordan_decomposition(S, p).components]
            assert got == fraction_jordan_oracle(
                [list(r) for r in S.entries], p), (S.entries, p)


def test_hasse_multiplicativity_with_det():
    # eps(diag(a) + diag(rest)) = eps(rest) * (a, det(rest))_v
    for v in (Place.finite(2), Place.finite(3), REAL):
        for _ in range(30):
            d = [rng.choice([x for x in range(-10, 11) if x]) for _ in range(3)]
            a = rng.choice([x for x in range(-10, 11) if x])
            lhs = hasse_invariant([a] + d, v)
            rhs = hasse_invariant(d, v) * hilbert_symbol(a, d[0] * d[1] * d[2], v)
            assert lhs == rhs


def isotropy_oracle(diag, p, k=7):
    """Exhaustive search for a primitive zero of sum d_i x_i^2 mod p^k."""
    from itertools import product
    m = p ** k
    n = len(diag)
    for xs in product(range(m), repeat=n):
        if all(x % p == 0 for x in xs):
            continue
        if sum(d * x * x for d, x in zip(diag, xs)) % m == 0:
            return True
    return False


def test_isotropy_against_oracle_small():
    cases = [
        ([1, 1], 5), ([1, -1], 5), ([1, 1], 2), ([1, -1], 2),
        ([1, 1, 1], 7), ([1, 1, -1], 3), ([1, 2, -3], 3), ([2, 3], 5),
    ]
    for diag, p in cases:
        inv = diagonal_invariants(diag)
        k = 6 if p == 2 else 3
        assert is_isotropic(inv, Place.finite(p)) == isotropy_oracle(diag, p, k), \
            (diag, p)


def test_isotropy_rank5_always():
    for _ in range(20):
        diag = [rng.choice([x for x in range(-8, 9) if x]) for _ in range(5)]
        inv = diagonal_invariants(diag)
        for p in (2, 3, 5, 7):
            assert is_isotropic(inv, Place.finite(p))


def test_isotropy_real():
    assert not is_isotropic(diagonal_invariants([1, 1, 1]), REAL)
    assert is_isotropic(diagonal_invariants([1, -1]), REAL)


def test_space_invariants_factor_only_det():
    """A Gram A^t A + I with 24-digit det, whose diagonal over Q has a
    product of about 150 digits: only det(S) is factored.  The symbols
    match the Fraction diagonalisation at the places of 2 det(S) and obey
    Hilbert reciprocity."""
    draw = random.Random(1)
    A = [[draw.randint(-100, 100) for _ in range(6)] for _ in range(6)]
    S = GramMatrix([[sum(A[k][i] * A[k][j] for k in range(6)) + (i == j)
                     for j in range(6)] for i in range(6)])
    start = time.perf_counter()
    inv = space_invariants(S)
    assert time.perf_counter() - start < 10
    d = det(S)
    assert len(str(d)) == 24
    assert inv.det_class == squarefree_class(d)
    diag = fraction_diagonal_oracle([list(r) for r in S.entries])
    places = {REAL, Place.finite(2)} | {Place.finite(q) for q in sympy.factorint(d)}
    assert {v for v, _ in inv.hasse} <= places
    for v in places:
        assert inv.hasse_at(v) == hasse_invariant(diag, v), v
    assert prod(e for _, e in inv.hasse) == 1


def test_jordan_reassembly_invariants():
    for _ in range(40):
        n = rng.randint(1, 4)
        while True:
            rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            sym = [[rows[i][j] + rows[j][i] for j in range(n)] for i in range(n)]
            S = GramMatrix(sym)
            if det(S) != 0:
                break
        for p in (2, 3, 5):
            split = jordan_decomposition(S, p)
            assert sum(c.rank for c in split.components) == n
            assert sum(c.scale * c.rank for c in split.components) == \
                ord_p(det(S), p)
            scales = [c.scale for c in split.components]
            assert scales == sorted(scales)
            for c in split.components:
                assert ord_p(det(c.unit_block), p) == 0


def test_jordan_known_splittings():
    split = jordan_decomposition(GramMatrix.diagonal([1, 2, 4, 8]), 2)
    assert [(c.scale, c.rank) for c in split.components] == \
        [(0, 1), (1, 1), (2, 1), (3, 1)]
    # hyperbolic-plane shape at 2: one even 2x2 block of scale 0
    H = GramMatrix([[0, 1], [1, 0]])
    split = jordan_decomposition(H, 2)
    assert [(c.scale, c.rank, c.even) for c in split.components] == [(0, 2, True)]
    split3 = jordan_decomposition(GramMatrix.diagonal([3, 9, 1]), 3)
    assert [(c.scale, c.rank) for c in split3.components] == \
        [(0, 1), (1, 1), (2, 1)]
