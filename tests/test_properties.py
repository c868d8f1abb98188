"""Property tests: results must not change under a GL_n(Z) change of basis."""

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from latrep.enumeration import lattice_minimum
from latrep.genus import _genus_symbol, is_isometric
from latrep.matrices import (GramMatrix, IntMatrix, _det_bareiss, det,
                             det_int, gram_of_columns, is_positive_definite)
from latrep.padic import space_invariants

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


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
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    moves = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                    st.sampled_from((-1, 1))),
                          max_size=3 * n))
    for i, j, f in moves:
        if i != j:
            U[i] = [x + f * y for x, y in zip(U[i], U[j])]
        else:
            U[i] = [f * x for x in U[i]]
    return S, IntMatrix(U)


@PROPERTY_SETTINGS
@given(lattice_and_basis_change())
def test_is_isometric_finds_verified_witness(case):
    S, U = case
    S2 = gram_of_columns(S, U)
    W = is_isometric(S, S2)
    assert W is not None
    assert abs(det_int(W)) == 1
    assert gram_of_columns(S, W).entries == S2.entries


@PROPERTY_SETTINGS
@given(lattice_and_basis_change())
def test_invariants_unchanged_by_basis_change(case):
    S, U = case
    S2 = gram_of_columns(S, U)
    assert lattice_minimum(S2) == lattice_minimum(S)
    assert space_invariants(S2) == space_invariants(S)
    primes = sorted({2} | set(sympy.factorint(det(S))))
    assert _genus_symbol(S2, primes) == _genus_symbol(S, primes)


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
