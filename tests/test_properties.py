"""Property tests: results must not change under a GL_n(Z) change of basis."""

import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import fraction_det

from latrep.enumeration import lattice_minimum
from latrep.genus import _genus_symbol, automorphism_group_order, is_isometric
from latrep.matrices import (GramMatrix, IntMatrix, _det_bareiss, det,
                             gram_of_columns, invert_unimodular,
                             is_positive_definite)
from latrep.padic import (Place, complement_isotropic, jordan_decomposition,
                          space_invariants)
from latrep.reports import check_theorem_hypotheses

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


def unimodular(draw, n):
    """A matrix in GL_n(Z) from signs and elementary moves."""
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    moves = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                    st.sampled_from((-1, 1))),
                          max_size=3 * n))
    for i, j, f in moves:
        if i != j:
            U[i] = [x + f * y for x, y in zip(U[i], U[j])]
        else:
            U[i] = [f * x for x in U[i]]
    return IntMatrix(U)


@st.composite
def lattice_and_basis_change(draw):
    """A positive definite Gram B^t B + D (D a positive diagonal) of rank
    2..5, and a unimodular U built from signs and elementary moves."""
    n = draw(st.integers(2, 5))
    entries = st.integers(-2, 2)
    B = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                      min_size=n, max_size=n))
    D = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    S = GramMatrix([[sum(B[k][i] * B[k][j] for k in range(n)) + (D[i] if i == j else 0)
                     for j in range(n)] for i in range(n)])
    return S, unimodular(draw, n)


@st.composite
def embedding_and_basis_changes(draw):
    """A small positive definite S of rank 4..6, the columns X (entries
    -1..1, rank m = 1..2) of a sublattice, a prime q, and basis changes U of
    S and V of T = X^t S X."""
    n = draw(st.integers(4, 6))
    B = draw(st.lists(st.lists(st.integers(-1, 1), min_size=n, max_size=n),
                      min_size=n, max_size=n))
    D = draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
    S = GramMatrix([[sum(B[k][i] * B[k][j] for k in range(n)) + (D[i] if i == j else 0)
                     for j in range(n)] for i in range(n)])
    m = draw(st.integers(1, 2))
    X = IntMatrix(draw(st.lists(st.lists(st.integers(-1, 1), min_size=m, max_size=m),
                                min_size=n, max_size=n)))
    assume(det(gram_of_columns(S, X)) != 0)
    q = draw(st.sampled_from((2, 3, 5, 7)))
    return S, X, q, unimodular(draw, n), unimodular(draw, m)


@PROPERTY_SETTINGS
@given(embedding_and_basis_changes())
def test_condition_i_unchanged_by_basis_changes(case):
    """X2 = U^-1 X V represents T2 = V^t T V in S2 = U^t S U; condition (i)
    and the complement isotropy must not see either basis change."""
    S, X, q, U, V = case
    S2 = gram_of_columns(S, U)
    X2 = invert_unimodular(U) @ X @ V
    T, T2 = gram_of_columns(S, X), gram_of_columns(S2, X2)
    assert T2.entries == gram_of_columns(T, V).entries
    assert (complement_isotropic(space_invariants(S), T, Place.finite(q))
            == complement_isotropic(space_invariants(S2), T2, Place.finite(q)))
    r, r2 = (check_theorem_hypotheses(A, B, q, 1, 1, 0) for A, B in ((S, T), (S2, T2)))
    assert r.condition_i_ok == r2.condition_i_ok
    assert (r.condition_i["complement_isotropic_at_q"]
            == r2.condition_i["complement_isotropic_at_q"])


@PROPERTY_SETTINGS
@given(lattice_and_basis_change())
def test_is_isometric_finds_verified_witness(case):
    S, U = case
    S2 = gram_of_columns(S, U)
    W = is_isometric(S, S2)
    assert W is not None
    assert abs(fraction_det(W.entries)) == 1
    assert gram_of_columns(S, W).entries == S2.entries


@PROPERTY_SETTINGS
@given(lattice_and_basis_change())
def test_automorphism_group_order_unchanged_by_basis_change(case):
    S, U = case
    assert (automorphism_group_order(gram_of_columns(S, U))
            == automorphism_group_order(S))


@PROPERTY_SETTINGS
@given(lattice_and_basis_change())
def test_invariants_unchanged_by_basis_change(case):
    S, U = case
    S2 = gram_of_columns(S, U)
    assert lattice_minimum(S2) == lattice_minimum(S)
    assert space_invariants(S2) == space_invariants(S)
    primes = sorted({2} | set(sympy.factorint(det(S))))
    assert (_genus_symbol(S2, [jordan_decomposition(S2, p) for p in primes])
            == _genus_symbol(S, [jordan_decomposition(S, p) for p in primes]))


@st.composite
def symmetric_matrix(draw):
    """A symmetric integer n x n matrix, n = 1..6: either with independent
    entries (mostly indefinite) or B^t B + D with B of r <= n rows and D a
    diagonal with entries in -1..2 (semidefinite when r < n and D = 0)."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        upper = draw(st.lists(st.integers(-4, 4), min_size=n * n, max_size=n * n))
        return [[upper[min(i, j) * n + max(i, j)] for j in range(n)]
                for i in range(n)]
    r = draw(st.integers(0, n))
    B = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                      min_size=r, max_size=r))
    D = draw(st.lists(st.integers(-1, 2), min_size=n, max_size=n))
    return [[sum(B[k][i] * B[k][j] for k in range(r)) + (D[i] if i == j else 0)
             for j in range(n)] for i in range(n)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(symmetric_matrix())
def test_positive_definite_iff_leading_minors_positive(rows):
    minors = [_det_bareiss([row[:k] for row in rows[:k]])
              for k in range(1, len(rows) + 1)]
    assert is_positive_definite(GramMatrix(rows)) == all(m > 0 for m in minors)
