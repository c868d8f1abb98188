import random

import pytest

from oracles import (complement_isotropic_oracle, draw_local_instance,
                     local_rep_oracle, random_pos_def_entries)

from latrep.localrep import (NOT_REPRESENTABLE, REPRESENTABLE, UNDECIDED,
                             _smith_valuations, auto_isotropy_shortcut,
                             represents_locally_everywhere, represents_over_Zp)
from latrep.matrices import (GramMatrix, IntMatrix, det, gram_of_columns,
                             is_positive_definite, smith_normal_form)
from latrep.padic import (Place, REAL, complement_isotropic, ord_p,
                          space_invariants)

rng = random.Random(31337)

I3 = GramMatrix.identity(3)
I4 = GramMatrix.identity(4)
I5 = GramMatrix.identity(5)


def random_pos_def(n, spread=2):
    while True:
        B = [[rng.randint(-spread, spread) for _ in range(n)] for _ in range(n)]
        G = [[sum(B[k][i] * B[k][j] for k in range(n)) for j in range(n)]
             for i in range(n)]
        for i in range(n):
            G[i][i] += rng.randint(1, 2)
        S = GramMatrix(G)
        if is_positive_definite(S):
            return S


def test_certificate_shape():
    cert = represents_over_Zp(I3, GramMatrix.diagonal([5]), 2)
    assert cert.status == REPRESENTABLE
    assert cert.witness is not None
    d = cert.to_dict()
    assert d["schema_version"] == 1
    assert d["place"] == "2"


def test_primitive_three_squares_at_two():
    # primitively representable over Z_2 iff t mod 8 not in {0, 4, 7}
    for t in range(1, 41):
        cert = represents_over_Zp(I3, GramMatrix.diagonal([t]), 2, 1)
        assert cert.status != UNDECIDED
        assert cert.representable == (t % 8 not in (0, 4, 7)), t


def test_imprimitivity_unlocks_at_two():
    # 4 = (2e)^2 needs divisor 2; allowed when c is even
    for c, expect in [(1, False), (2, True), (4, True), (3, False)]:
        cert = represents_over_Zp(I3, GramMatrix.diagonal([4]), 2, c)
        assert cert.representable == expect, c
    # the same at an odd prime, from the search alone: x^2 + y^2 + 3z^2 = 9
    # forces x = y = 0 mod 3 (-1 is not a square mod 3) and then z = 0
    # mod 3, so every solution has divisor 3
    S = GramMatrix.diagonal([1, 1, 3])
    for c, expect in [(1, NOT_REPRESENTABLE), (3, REPRESENTABLE)]:
        cert = represents_over_Zp(S, GramMatrix.diagonal([9]), 3, c,
                                  try_global=False)
        assert cert.status == expect, c


def test_odd_prime_unimodular_always_representable():
    for p in (3, 5, 7):
        for t in (1, 2, 3, 5, 10, 12):
            cert = represents_over_Zp(I3, GramMatrix.diagonal([t]), p, 1)
            assert cert.representable, (p, t)


def test_rank2_target():
    T = GramMatrix([[2, 1], [1, 2]])
    cert = represents_over_Zp(I4, T, 2, 1)
    assert cert.representable
    cert3 = represents_over_Zp(I4, T, 3, 1)
    assert cert3.representable


def test_refutation_without_global_path():
    cert = represents_over_Zp(I3, GramMatrix.diagonal([7]), 2, 1,
                              try_global=False)
    assert cert.status == NOT_REPRESENTABLE
    assert cert.witness is None


def test_smith_valuations_match_integer_smith_form():
    """Valuations by elimination over Z/p^k against the integer Smith form,
    capped at k with a zero divisor read as k: the nonzero divisors are
    padded to min(rows, cols) with k."""
    draw = random.Random(5551)
    for trial in range(400):
        p, k = draw.choice((2, 3, 5)), draw.randint(1, 6)
        n = draw.randint(1, 5)
        m = draw.randint(1, n)
        pk = p ** k
        cols = [[draw.choice((draw.randint(-9, 9), p * draw.randint(-9, 9),
                              pk * draw.randint(-3, 3)))
                 for _ in range(n)] for _ in range(m)]
        kind = trial % 4
        if kind == 1:  # a zero column
            cols[draw.randrange(m)] = [0] * n
        elif kind == 2 and m >= 2:  # rank-deficient: last column dependent
            a, b = draw.randint(-3, 3), draw.randint(-3, 3)
            cols[-1] = [a * x + b * y for x, y in zip(cols[0], cols[-2])]
        elif kind == 3:  # one column with every entry divisible by p^k
            j = draw.randrange(m)
            cols[j] = [pk * draw.randint(-3, 3) for _ in range(n)]
        X = IntMatrix.from_columns(cols)
        divisors = smith_normal_form(X)
        expect = tuple(min(ord_p(d, p), k) for d in divisors) + \
            (k,) * (min(n, m) - len(divisors))
        assert _smith_valuations(cols, p, k) == expect, (cols, p, k)
    assert _smith_valuations([[0, 0, 0], [0, 0, 0]], 3, 4) == (4, 4)
    assert _smith_valuations([[8, 4], [0, 16]], 2, 3) == (2, 3)

    # one column has one divisor, the gcd of its entries: a zero column,
    # mixed valuations, and a least valuation at and beyond the cap k
    for p, k, col, expect in [(3, 4, [0, 0, 0], 4), (2, 5, [8, -12, 0, 40], 2),
                              (5, 3, [250, -125, 0], 3),
                              (2, 2, [8, -16, 24], 2)]:
        divisors = smith_normal_form(IntMatrix.from_columns([col]))
        assert (min(ord_p(divisors[0], p), k) if divisors else k) == expect
        assert _smith_valuations([col], p, k) == (expect,)


def test_witness_mod_pN_is_a_solution():
    """The search matches every entry of X^t S X mod p^N at N = 2e + 1, so
    ord_p det(X^t S X) = ord_p det T <= e: the Hensel margin holds by
    construction."""
    draw = random.Random(7013)
    cases = [(2, I4.entries, ((6,),), 1, 5)]
    cases += [draw_local_instance(draw, rank=1) for _ in range(300)]
    cases += [draw_local_instance(draw, rank=2, extra=0, cap=1_000_000)
              for _ in range(100)]
    searched = 0
    for p, S_rows, T_rows, c, N in cases:
        S, T = GramMatrix(S_rows), GramMatrix(T_rows)
        cert = represents_over_Zp(S, T, p, c, try_global=False)
        assert cert.status != UNDECIDED, (S_rows, T_rows, p, c)
        if cert.method != "search" or not cert.representable:
            continue
        searched += 1
        assert cert.precision == N, (S_rows, T_rows, p, c)
        G = gram_of_columns(S, cert.witness)
        assert all((g - t) % p ** N == 0
                   for grow, trow in zip(G.entries, T.entries)
                   for g, t in zip(grow, trow))
        assert ord_p(det(G), p) == ord_p(det(T), p), (S_rows, T_rows, p, c)
        # the valuations come from the last column's prune at precision
        # ord_p(c) + 1; they must be those of the witness's own divisors
        assert cert.divisor_valuations == tuple(
            ord_p(d, p) for d in smith_normal_form(cert.witness))
    assert searched > 200


def test_imprimitive_witness_valuations_in_draws():
    """Draws with T scaled by p^2 and c = p^2 admit imprimitive witnesses,
    so the prune passes nonzero valuations on; they must still be those
    of the witness's own divisors."""
    draw = random.Random(7013)
    imprimitive = 0
    for _ in range(100):
        p, S_rows, T_rows, _, _ = draw_local_instance(draw, rank=1)
        S, T = GramMatrix(S_rows), GramMatrix([[p * p * T_rows[0][0]]])
        cert = represents_over_Zp(S, T, p, p * p, node_budget=200_000,
                                  try_global=False)
        assert cert.status != UNDECIDED, (S_rows, T_rows, p)
        if cert.method != "search" or not cert.representable:
            continue
        assert cert.divisor_valuations == tuple(
            ord_p(d, p) for d in smith_normal_form(cert.witness))
        imprimitive += any(cert.divisor_valuations)
    assert imprimitive > 0


@pytest.mark.parametrize("S, T, p, c, expect", [
    (I3, [[16]], 2, 4, (2,)),
    (I3, [[36]], 3, 9, (1,)),
    (GramMatrix.diagonal([1, 1, 3]), [[9]], 3, 3, (1,)),
    (I4, [[4, 2], [2, 4]], 2, 2, (0, 1)),
])
def test_witness_valuations_pinned(S, T, p, c, expect):
    cert = represents_over_Zp(S, GramMatrix(T), p, c, try_global=False)
    assert cert.method == "search" and cert.representable
    assert cert.divisor_valuations == expect
    assert tuple(ord_p(d, p)
                 for d in smith_normal_form(cert.witness)) == expect


def test_node_budget_gives_undecided():
    # tiny budget forces an honest undecided, never a wrong boolean.  One
    # unit per candidate, taken before the candidate is checked: the
    # witness of diag(15) in I4 at p = 2 is reached with 11 units
    for budget in range(12):
        cert = represents_over_Zp(I4, GramMatrix.diagonal([15]), 2, 1,
                                  node_budget=budget, try_global=False)
        if budget < 11:
            assert cert.status == UNDECIDED and cert.method == "budget", budget
        else:
            assert cert.status == REPRESENTABLE and cert.method == "search"


A3 = GramMatrix([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])


@pytest.mark.parametrize("S, T, p, c, columns, valuations, first_decided", [
    # rank 1: past the prune the remaining digits come from one Newton lift
    (I3, [[9]], 3, 1, [(175, 1, 1)], (0,), 19),
    (I3, [[50]], 5, 1, [(0, 2536, 2)], (0,), 13),
    (GramMatrix.diagonal([1, 2, 2]), [[5]], 2, 1, [(1, 1, 1)], (0,), 15),
    (I3, [[12]], 2, 2, [(2, 2, 2)], (1,), 15),
    # rank 2: the second column's level-0 scan has a linear constraint
    (I4, [[3, 1], [1, 3]], 3, 1, [(0, 1, 1, 1), (0, 1, 1, 2)], (0, 0), 30),
    (A3, [[2, 1], [1, 2]], 3, 1, [(0, 0, 1), (0, 1, 1)], (0, 0), 12),
])
def test_search_witness_and_budget_boundary_pinned(S, T, p, c, columns,
                                                   valuations, first_decided):
    """The witness and the least budget that decides, as the level-by-level
    walk gave them: the lift charges one node per forced digit, and the
    level-0 scan one per candidate, taken before its check."""
    T = GramMatrix(T)
    cert = represents_over_Zp(S, T, p, c, try_global=False)
    assert cert.method == "search" and cert.representable
    assert cert.witness.columns() == columns
    assert cert.divisor_valuations == valuations
    G = gram_of_columns(S, cert.witness)
    assert all((g - t) % p ** cert.precision == 0
               for grow, trow in zip(G.entries, T.entries)
               for g, t in zip(grow, trow))
    starved = represents_over_Zp(S, T, p, c, node_budget=first_decided - 1,
                                 try_global=False)
    assert starved.status == UNDECIDED and starved.method == "budget"
    assert represents_over_Zp(S, T, p, c, node_budget=first_decided,
                              try_global=False) == cert


def test_equal_rank_decided_from_determinants():
    # det(X)^2 det S = det T, and 7 is no square at 7 or at 2; at 7 the
    # search alone ran out of its node budget
    T = GramMatrix.diagonal([1, 1, 7])
    for p in (2, 7):
        cert = represents_over_Zp(I3, T, p, try_global=False)
        assert cert.status == NOT_REPRESENTABLE and cert.method == "determinant"
    assert represents_over_Zp(I3, T, 3, try_global=False).representable
    draw = random.Random(1213)
    methods = []
    while len(methods) < 30:
        p, S_rows, T_rows, c, N = draw_local_instance(draw, rank=2, extra=0,
                                                      cap=1_000_000)
        if len(S_rows) != 2:
            continue
        S, T = GramMatrix(S_rows), GramMatrix(T_rows)
        cert = represents_over_Zp(S, T, p, c, try_global=False)
        methods.append(cert.method)
        expect = local_rep_oracle(S_rows, T_rows, p, c, N, pair_cap=1_000_000)
        assert cert.status != UNDECIDED
        if expect != "unknown":
            assert cert.representable == (expect == "representable"), \
                (S_rows, T_rows, p, c, cert.method, expect)
    assert set(methods) == {"determinant", "search"}


def test_equal_rank_unimodular_refutation_is_the_first():
    """At an odd prime l outside 2 c det S det T both lattices are
    unimodular, and T is represented at l iff det S det T is a square mod
    l; the certificate names the first l where it is not."""
    draw = random.Random(3301)
    refuted = 0
    while refuted < 25:
        S_rows = random_pos_def_entries(draw, 2)
        T_rows = random_pos_def_entries(draw, 2)
        S, T = GramMatrix(S_rows), GramMatrix(T_rows)
        certs = represents_locally_everywhere(S, T)
        found = [v.p for v, cert in certs.items() if cert.method == "unimodular"]
        if not found:
            continue
        refuted += 1
        (ell,) = found
        assert local_rep_oracle(S_rows, T_rows, ell, 1, 1) == "not_representable"
        bad = 2 * det(S) * det(T)
        for q in range(3, ell, 2):
            if bad % q and all(q % r for r in range(3, q, 2)):
                assert local_rep_oracle(S_rows, T_rows, q, 1, 1) == \
                    "representable", (S_rows, T_rows, q)


def test_locally_everywhere_three_squares():
    for t in (1, 2, 3, 5, 6, 35):
        certs = represents_locally_everywhere(I3, GramMatrix.diagonal([t]), 1)
        assert REAL in certs
        assert all(c.status == REPRESENTABLE for c in certs.values()), t
    for t in (7, 15, 23):
        certs = represents_locally_everywhere(I3, GramMatrix.diagonal([t]), 1)
        bad = [p for p, c in certs.items() if c.status != REPRESENTABLE]
        assert bad == [Place.finite(2)], t


def test_locally_everywhere_rejects_indefinite():
    with pytest.raises(ValueError):
        represents_locally_everywhere(GramMatrix.diagonal([1, -1]),
                                      GramMatrix.diagonal([1]), 1)


def test_equal_rank_det_class_obstruction():
    # S = I2 vs T = diag(1, 3): equal rank, det classes 1 vs 3 differ at 3
    certs = represents_locally_everywhere(GramMatrix.identity(2),
                                          GramMatrix.diagonal([1, 3]), 1)
    assert any(c.status == NOT_REPRESENTABLE for c in certs.values())


def test_randomized_against_exhaustive_oracle():
    for _ in range(25):
        p, S_rows, T_rows, c, N = draw_local_instance(rng)
        S, T = GramMatrix(S_rows), GramMatrix(T_rows)
        cert = represents_over_Zp(S, T, p, c)
        assert cert.status != UNDECIDED
        expect = local_rep_oracle(S_rows, T_rows, p, c, N + 2,
                                  pair_cap=4_000_000)
        assert expect != "unknown", (S.entries, T.entries, p, c)
        assert cert.representable == (expect == "representable"), \
            (S.entries, T.entries, p, c, cert.status, expect)


def complement_isotropic_at_q(S, X, q):
    """Is the orthogonal complement of X's column span in S isotropic over
    Q_q?"""
    return complement_isotropic(space_invariants(S), gram_of_columns(S, X),
                                Place.finite(q))


def test_complement_isotropic_at_q():
    # image e1 in I5: complement is I4, isotropic at every odd prime but
    # anisotropic at 2 (quaternion norm form)
    X = IntMatrix([[1], [0], [0], [0], [0]])
    assert complement_isotropic_at_q(I5, X, 3)
    assert not complement_isotropic_at_q(I5, X, 2)
    # image e1 in I3: complement I2, anisotropic at 3 ((-1) non-square)
    X3 = IntMatrix([[1], [0], [0]])
    assert not complement_isotropic_at_q(I3, X3, 3)
    assert complement_isotropic_at_q(I3, X3, 5)


def test_complement_isotropic_matches_oracle():
    """The invariant route against the witness route of the oracle: an
    integer kernel, a Fraction diagonalisation and Hilbert symbols by
    search, on plain lists."""
    draw = random.Random(6006)
    for trial in range(1200):
        n = draw.randint(3, 7)
        m = draw.randint(1, n - 1)
        S_rows = (random_pos_def_entries(draw, n, spread=1, bump=3)
                  if trial % 4 else
                  [[draw.randint(1, 12) if i == j else 0 for j in range(n)]
                   for i in range(n)])
        while True:
            X_rows = [[draw.randint(-2, 2) for _ in range(m)] for _ in range(n)]
            X = IntMatrix(X_rows)
            if det(gram_of_columns(GramMatrix(S_rows), X)) != 0:
                break
        q = draw.choice((2, 3, 5, 7))
        expect = complement_isotropic_oracle(S_rows, X_rows, q)
        assert complement_isotropic_at_q(GramMatrix(S_rows), X, q) == expect, \
            (S_rows, X_rows, q)


def test_auto_isotropy_shortcut():
    assert auto_isotropy_shortcut(GramMatrix.identity(6),
                                  GramMatrix.diagonal([1]), 3)  # m <= n-5
    assert auto_isotropy_shortcut(I5, GramMatrix.diagonal([5]), 3)  # units, gap 4
    assert not auto_isotropy_shortcut(I5, GramMatrix.diagonal([3]), 3)
    assert not auto_isotropy_shortcut(I4, GramMatrix.diagonal([1, 1]), 3)
    # unit discriminants do not force isotropy at 2: the complements I3 of
    # diag(1) in I4 and of diag(1, 1) in I5 are anisotropic over Q_2
    assert not auto_isotropy_shortcut(I4, GramMatrix.diagonal([1]), 2)
    assert not auto_isotropy_shortcut(I5, GramMatrix.diagonal([1, 1]), 2)
