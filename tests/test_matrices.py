import random
from fractions import Fraction

import pytest
import sympy
from sympy.matrices.normalforms import invariant_factors

from oracles import determinantal_divisors, fraction_det

from latrep.matrices import (GramMatrix, IntMatrix, _det_bareiss, adjugate,
                             column_hnf, gram_of_columns, inner_product,
                             invert_unimodular, is_positive_definite,
                             parse_gram, saturate, smith_normal_form,
                             solve_integer_columns)

rng = random.Random(20260823)


def random_int_matrix(rows, cols, lo=-6, hi=6):
    return IntMatrix([[rng.randint(lo, hi) for _ in range(cols)]
                      for _ in range(rows)])


def random_unimodular(n, steps=12):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    if n == 1:
        return IntMatrix(m)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        f = rng.randint(-3, 3)
        for k in range(n):
            m[i][k] += f * m[j][k]
    return IntMatrix(m)


def naive_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * naive_det(minor)
    return total


def test_det_matches_cofactor_expansion():
    for _ in range(60):
        n = rng.randint(1, 5)
        m = random_int_matrix(n, n)
        rows = [list(r) for r in m.entries]
        assert _det_bareiss(rows) == naive_det(rows)


def test_gram_rejects_asymmetric():
    with pytest.raises(ValueError):
        GramMatrix([[1, 2], [3, 1]])


def test_entries_must_be_integers():
    # integral values of any numeric type are kept as ints; a non-integral
    # entry raises instead of being truncated
    S = GramMatrix([[Fraction(4, 2), 1.0], [sympy.Integer(1), 3]])
    assert S.entries == ((2, 1), (1, 3))
    assert all(type(x) is int for row in S.entries for x in row)
    for bad in (2.5, Fraction(5, 2)):
        with pytest.raises(ValueError):
            GramMatrix([[bad]])
        with pytest.raises(ValueError):
            IntMatrix([[1, bad]])
    with pytest.raises(ValueError):
        parse_gram("[[2.5, 1], [1, 2]]")


@pytest.mark.parametrize("cls", [GramMatrix, IntMatrix])
def test_constructor_contract(cls):
    """Int-valued entries of any numeric type (and bool) become ints, in
    any row of any shape; non-integral entries and ragged rows raise."""
    for k, odd in enumerate((Fraction(6, 3), 2.0, sympy.Integer(2), True)):
        rows = [[5, 1, 0], [1, 4, -1], [0, -1, 3]]
        i, j = k % 3, (k + 1) % 3
        rows[i][j] = rows[j][i] = odd
        M = cls(tuple(map(tuple, rows)))
        assert M.entries[i][j] == M.entries[j][i] == int(odd)
        assert all(type(x) is int for row in M.entries for x in row)
        assert cls(M.entries) == M
    for bad in (2.5, Fraction(5, 2)):
        for i, j in ((0, 0), (1, 2), (2, 2)):
            rows = [[5, 1, 0], [1, 4, -1], [0, -1, 3]]
            rows[i][j] = rows[j][i] = bad
            with pytest.raises(ValueError):
                cls(rows)
    for ragged in ([[1, 0], [0]], [[1], [0, 1]], [[2, 1], [1, 2], [0]]):
        with pytest.raises(ValueError):
            cls(ragged)
    if cls is GramMatrix:
        for asym in ([[1, 2], [3, 1]], [[1, 0, 0], [0, 1, 0], [1, 0, 1]],
                     [[1, 0]], [[1, 0], [0, 1], [0, 0]]):
            with pytest.raises(ValueError):
                GramMatrix(asym)
    else:
        assert IntMatrix([[1, 0]]).transpose().entries == ((1,), (0,))


def test_from_columns_and_products():
    with pytest.raises(ValueError):
        IntMatrix.from_columns([])
    with pytest.raises(ValueError):
        IntMatrix.from_columns([(1, 2), (3,)])
    with pytest.raises(ValueError):
        IntMatrix.from_columns([(1, 2.5)])
    X = IntMatrix.from_columns([(1, Fraction(2)), (3, 4), (5, 6)])
    assert X.entries == ((1, 3, 5), (2, 4, 6))
    assert X.columns() == [(1, 2), (3, 4), (5, 6)]
    assert X.transpose().entries == ((1, 2), (3, 4), (5, 6))
    draw = random.Random(515)
    for _ in range(100):
        r, k, c = (draw.randint(1, 5) for _ in range(3))
        A = [[draw.randint(-9, 9) for _ in range(k)] for _ in range(r)]
        B = [[draw.randint(-9, 9) for _ in range(c)] for _ in range(k)]
        AB = IntMatrix(A) @ IntMatrix(B)
        assert AB.entries == tuple(
            tuple(sum(A[i][t] * B[t][j] for t in range(k)) for j in range(c))
            for i in range(r))
        assert IntMatrix.from_columns(IntMatrix(A).columns()) == IntMatrix(A)
    with pytest.raises(ValueError):
        IntMatrix([[1, 2]]) @ IntMatrix([[1, 2]])


def test_inner_product_and_value():
    S = GramMatrix([[2, 1], [1, 4]])
    assert S.value([1, 0]) == 2
    assert S.value([1, 1]) == 8
    assert inner_product(S, [1, 0], [0, 1]) == 1


def _check_smith(X):
    divisors = smith_normal_form(X)
    for a, b in zip(divisors, divisors[1:]):
        assert b % a == 0
    assert all(d > 0 for d in divisors)
    return divisors


def _sympy_divisors(X):
    return tuple(abs(d) for d in invariant_factors(sympy.Matrix(X.to_lists()))
                 if d != 0)


def test_smith_form_properties():
    for _ in range(50):
        _check_smith(random_int_matrix(rng.randint(1, 4), rng.randint(1, 4)))
    # shapes up to 7x7 with entries in [-6, 6], against sympy's divisors
    draw = random.Random(77)
    for k in range(60):
        r, c = (7, 7) if k % 3 == 0 else (draw.randint(1, 7), draw.randint(1, 7))
        X = IntMatrix([[draw.randint(-6, 6) for _ in range(c)] for _ in range(r)])
        assert _check_smith(X) == _sympy_divisors(X)


def test_elementary_divisors_match_smith_form():
    """smith_normal_form gives sympy's nonzero invariant factors on 2,100
    seeded matrices: every shape up to 7 x 7, with zero rows and columns,
    rank deficiency, negative and large entries.  On the matrices of at
    most 4 x 4 it also gives the quotients of the determinantal divisors,
    which need no sympy."""
    draw = random.Random(2100)
    kinds = ("small", "zero-lines", "deficient", "large", "sparse")
    count = small = 0
    for rep in range(43):
        for r in range(1, 8):
            for c in range(1, 8):
                kind = kinds[(rep + r + c) % len(kinds)]
                hi = 10 ** 12 if kind == "large" else 6
                a = [[draw.randint(-hi, hi) if kind != "sparse" or
                      draw.random() < 0.3 else 0 for _ in range(c)]
                     for _ in range(r)]
                if kind == "zero-lines":
                    for row in draw.sample(range(r), draw.randint(0, r - 1)):
                        a[row] = [0] * c
                    for col in draw.sample(range(c), draw.randint(0, c - 1)):
                        for row in a:
                            row[col] = 0
                elif kind == "deficient" and r > 1:
                    # the last row a combination of the others
                    f = [draw.randint(-3, 3) for _ in range(r - 1)]
                    a[-1] = [sum(fi * row[j] for fi, row in zip(f, a))
                             for j in range(c)]
                X = IntMatrix(a)
                got = smith_normal_form(X)
                assert got == _sympy_divisors(X), a
                if r <= 4 and c <= 4:
                    assert got == determinantal_divisors(a), a
                    small += 1
                count += 1
    assert count >= 2000 and small == 688
    assert smith_normal_form(IntMatrix([[0, 0], [0, 0]])) == ()
    assert smith_normal_form(IntMatrix([[4, 0], [0, 6], [0, 0]])) == (2, 12)


def test_smith_form_entries_stay_small():
    """A 7x7 matrix whose Smith form once grew U to hundreds of bits and
    ran for minutes; the divisors must match sympy's."""
    X = IntMatrix([(-1, 1, 6, 5, -3, 4, 3), (2, -4, -6, -1, 4, -5, 2),
                   (-4, 2, 4, 4, 1, -1, 6), (5, -5, 3, -6, 1, -3, 0),
                   (4, -4, 0, 5, -3, -5, -3), (-1, -1, 4, -3, 6, 4, 1),
                   (5, 1, -1, 1, 4, 6, 4)])
    assert _check_smith(X) == _sympy_divisors(X) == (1, 1, 1, 1, 1, 1, 898066)


def test_smith_example():
    assert smith_normal_form(IntMatrix([[2, 0], [0, 3]])) == (1, 6)


def test_invert_unimodular_roundtrip():
    for _ in range(30):
        n = rng.randint(1, 5)
        U = random_unimodular(n)
        V = invert_unimodular(U)
        assert (U @ V).entries == IntMatrix.identity(n).entries


def test_invert_unimodular_with_zero_leading_minors():
    # row swaps in the fraction-free elimination; without them these raised
    cases = [IntMatrix([[0, 1], [1, 0]]), IntMatrix([[0, -1], [1, 3]]),
             IntMatrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]]),
             IntMatrix([[1, 1, 0], [1, 1, 1], [0, 1, 0]])]
    for _ in range(30):
        n = rng.randint(2, 5)
        perm = list(range(n))
        while perm[0] == 0:
            rng.shuffle(perm)
        P = IntMatrix([[rng.choice((-1, 1)) * (j == perm[i]) for j in range(n)]
                       for i in range(n)])
        cases.append(P @ random_unimodular(n))  # zero top-left entry
    for U in cases:
        n = U.rows
        V = invert_unimodular(U)
        assert (U @ V).entries == IntMatrix.identity(n).entries
        assert (V @ U).entries == IntMatrix.identity(n).entries


def test_invert_unimodular_rejects_non_unimodular():
    for M in ([[2, 0], [0, 1]], [[0, 2], [1, 0]], [[0, 0], [1, 0]],
              [[1, 2], [2, 4]], [[1, 0, 0], [0, 1, 0]]):
        with pytest.raises(ValueError):
            invert_unimodular(IntMatrix(M))


def test_adjugate_matches_cofactors():
    """adj(M) M = det(M) I against cofactor expansion, also when leading
    minors vanish; singular matrices raise."""
    for _ in range(200):
        n = rng.randint(1, 5)
        rows = [[rng.choice((0, 0, rng.randint(-4, 4))) for _ in range(n)]
                for _ in range(n)]
        d = naive_det(rows)
        if d == 0:
            with pytest.raises(ValueError):
                adjugate(IntMatrix(rows))
            continue
        adj, det_m = adjugate(IntMatrix(rows))
        assert det_m == d
        cof = [[(-1) ** (i + j) * naive_det([r[:i] + r[i + 1:] for k, r in
                                             enumerate(rows) if k != j])
                if n > 1 else 1 for j in range(n)] for i in range(n)]
        assert [list(r) for r in adj] == cof


def test_saturate_idempotent_and_contains():
    for _ in range(40):
        n = rng.randint(2, 5)
        r = rng.randint(1, n)
        B = random_int_matrix(n, r)
        if len(smith_normal_form(B)) < r:
            continue  # rank-deficient draw
        sat = saturate(B)
        assert sat.cols == r
        # saturation contains the original columns integrally
        assert solve_integer_columns(sat, B) is not None
        # idempotent on the nose (canonical HNF basis)
        assert saturate(sat).entries == sat.entries
        # index of B in its saturation = product of elementary divisors
        coords = solve_integer_columns(sat, B)
        assert abs(fraction_det(coords.entries)) == 1 or \
            smith_normal_form(coords) == smith_normal_form(B)


def test_saturation_of_scaled_basis():
    X = IntMatrix([[2, 0], [0, 3], [0, 0]])
    sat = saturate(X)
    assert sat.entries == ((1, 0), (0, 1), (0, 0))


def test_column_hnf_canonical_under_column_ops():
    for _ in range(40):
        n = rng.randint(2, 5)
        r = rng.randint(1, n)
        B = random_int_matrix(n, r)
        if len(smith_normal_form(B)) < r:
            continue
        U = random_unimodular(r)
        assert column_hnf(B).entries == column_hnf(B @ U).entries


def test_solve_integer_columns():
    # X outside the column span of B has no solution, not a least-squares one
    B = IntMatrix([[1], [0]])
    assert solve_integer_columns(B, IntMatrix([[1], [1]])) is None
    assert solve_integer_columns(B, IntMatrix([[3], [0]])).entries == ((3,),)
    for _ in range(60):
        n = rng.randint(1, 5)
        r = rng.randint(1, n)
        B = random_int_matrix(n, r)
        if len(smith_normal_form(B)) < r:
            continue
        A = random_int_matrix(r, rng.randint(1, 3))
        X = B @ A
        assert solve_integer_columns(B, X) == A
        # 2B A' = X has the rational solution A / 2 only
        B2 = IntMatrix([[2 * x for x in row] for row in B.entries])
        expect = A if all(x % 2 == 0 for row in A.entries for x in row) else None
        if expect is not None:
            expect = IntMatrix([[x // 2 for x in row] for row in A.entries])
        assert solve_integer_columns(B2, X) == expect
        # a column moved off the span of B
        off = [list(row) for row in X.entries]
        off[rng.randrange(n)][0] += 1
        widened = IntMatrix([list(rb) + [ro[0]] for rb, ro in zip(B.entries, off)])
        if len(smith_normal_form(widened)) > r:
            assert solve_integer_columns(B, IntMatrix(off)) is None


def test_positive_definite():
    assert is_positive_definite(GramMatrix([[2, 1], [1, 2]]))
    assert not is_positive_definite(GramMatrix([[1, 2], [2, 1]]))
    assert not is_positive_definite(GramMatrix.diagonal([1, 0]))


def test_parse_gram_text_and_json():
    S = parse_gram("2\n2 1\n1 2\n")
    assert S.entries == ((2, 1), (1, 2))
    S2 = parse_gram("[[2, 1], [1, 2]]")
    assert S2.entries == S.entries
    with pytest.raises(ValueError):
        parse_gram("2\n1 0\n")


def test_gram_of_columns():
    S = GramMatrix.identity(3)
    X = IntMatrix([[1, 0], [1, 1], [0, 1]])
    G = gram_of_columns(S, X)
    assert G.entries == ((2, 1), (1, 2))
