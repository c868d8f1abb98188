import random
from fractions import Fraction
from operator import mul

import pytest

from oracles import (box_minimum, box_vectors, box_vectors_of_norm,
                     filtered_representations_oracle, fraction_det,
                     fraction_gram_schmidt, random_pos_def_entries,
                     reference_lll)

from latrep.enumeration import (Embedding, _column_search,
                                _constrained_candidates, _kernel_frame,
                                extend_representation,
                                find_representations,
                                lattice_minimum, lll_reduce, vectors_of_norm)
from latrep.matrices import (GramMatrix, IntMatrix, det, elementary_divisors,
                             gram_of_columns, invert_unimodular,
                             is_positive_definite, saturate,
                             solve_integer_columns)

rng = random.Random(4242)


def random_pos_def(n, spread=4):
    """B^t B + small diagonal for a random integer B: always positive
    definite."""
    while True:
        B = [[rng.randint(-spread, spread) for _ in range(n)] for _ in range(n)]
        G = [[sum(B[k][i] * B[k][j] for k in range(n)) for j in range(n)]
             for i in range(n)]
        for i in range(n):
            G[i][i] += rng.randint(1, 3)
        S = GramMatrix(G)
        if is_positive_definite(S):
            return S


def random_unimodular(n, steps=10):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    if n == 1:
        return IntMatrix(m)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        f = rng.randint(-2, 2)
        for k in range(n):
            m[i][k] += f * m[j][k]
    return IntMatrix(m)


def test_lll_preserves_class():
    for _ in range(25):
        n = rng.randint(2, 5)
        S = random_pos_def(n)
        reduced, U = lll_reduce(S)
        assert abs(fraction_det(U.entries)) == 1
        assert gram_of_columns(S, U).entries == reduced.entries
        assert det(reduced) == det(S)


@pytest.mark.parametrize("n", range(1, 10))
def test_lll_matches_reference(n):
    """Integral LLL against the Fraction LLL that rebuilds Gram-Schmidt
    after every step: reduced, unimodular, and identical output."""
    draw = random.Random(1000 + n)
    for case in range(6):
        delta = (Fraction(3, 4), Fraction(99, 100))[case % 2]
        S = GramMatrix(random_pos_def_entries(draw, n, spread=(2, 5)[case % 3 == 2],
                                              bump=3))
        reduced, U = lll_reduce(S, delta)
        assert abs(fraction_det(U.entries)) == 1
        assert gram_of_columns(S, U).entries == reduced.entries
        mu, norms = fraction_gram_schmidt(reduced.entries)
        assert all(abs(mu[k][j]) <= Fraction(1, 2)
                   for k in range(n) for j in range(k))
        assert all(norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]
                   for k in range(1, n))
        G_ref, U_ref = reference_lll(S.entries, delta)
        assert reduced.entries == tuple(map(tuple, G_ref))
        assert U.entries == tuple(map(tuple, U_ref))


def test_minimum_against_box_oracle():
    for _ in range(30):
        n = rng.randint(2, 4)
        S = random_pos_def(n)
        assert lattice_minimum(S) == box_minimum(S.entries)


def test_vectors_of_norm_against_box_oracle():
    for _ in range(25):
        n = rng.randint(2, 4)
        S = random_pos_def(n)
        for t in rng.sample(range(1, 15), 4):
            got = sorted(vectors_of_norm(S, t).vectors)
            assert got == box_vectors_of_norm(S.entries, t), (S.entries, t)


def test_minimum_invariant_under_basis_change():
    for _ in range(15):
        n = rng.randint(2, 4)
        S = random_pos_def(n)
        U = random_unimodular(n)
        assert lattice_minimum(S) == lattice_minimum(gram_of_columns(S, U))


def test_embedding_build_verifies():
    S = GramMatrix.identity(3)
    X = IntMatrix([[1], [1], [0]])
    emb = Embedding.build(S, GramMatrix.diagonal([2]), X)
    assert emb.imprimitivity_bound == 1
    with pytest.raises(ValueError):
        Embedding.build(S, GramMatrix.diagonal([3]), X)


def test_embedding_divisors_match_saturation_route():
    """The divisors read off X equal those of X's coordinates in its
    saturation, for primitive and imprimitive X."""
    draw = random.Random(31)
    cases = [IntMatrix([[2], [2], [0]]), IntMatrix([[2, 0], [0, 3], [0, 0]]),
             IntMatrix([[2, 0, 0], [0, 3, 0], [0, 0, 1], [1, 1, 1]])]
    while len(cases) < 40:
        n = draw.randint(2, 5)
        m = draw.randint(1, n)
        X = [[draw.randint(-3, 3) for _ in range(m)] for _ in range(n)]
        for j in range(m):  # scale some columns to make X imprimitive
            f = draw.choice((1, 1, 2, 3, 4))
            for row in X:
                row[j] *= f
        X = IntMatrix(X)
        if len(elementary_divisors(X)) == m:
            cases.append(X)
    for X in cases:
        S = GramMatrix.identity(X.rows)
        emb = Embedding.build(S, gram_of_columns(S, X), X)
        coords = solve_integer_columns(saturate(X), X)
        assert emb.elementary_divisors == elementary_divisors(coords)
        assert emb.imprimitivity_bound == emb.elementary_divisors[-1]
    assert Embedding.build(GramMatrix.identity(3), GramMatrix.diagonal([8]),
                           cases[0]).elementary_divisors == (2,)


def test_embedding_build_rejects_rank_deficient():
    S = GramMatrix.identity(2)
    X = IntMatrix([[1, 2], [0, 0]])
    with pytest.raises(ValueError):
        Embedding.build(S, gram_of_columns(S, X), X)


def _box_constrained(S, prior, inners, norm):
    """The x with x^t S v_j = inners[j] and Q(x) = norm, by box search."""
    n = S.n
    return sorted(
        xs for xs, q in box_vectors(S.entries, norm)
        if q == norm and all(
            sum(v[i] * S.entries[i][j] * xs[j]
                for i in range(n) for j in range(n)) == c
            for v, c in zip(prior, inners)))


def _inners(S, prior, x):
    """The inner products x^t S v_j."""
    Sx = [sum(map(mul, row, x)) for row in S.entries]
    return [sum(map(mul, v, Sx)) for v in prior]


def test_constrained_candidates_against_box_search():
    """Every x with x^t S v_j = inners[j] and Q(x) = norm, on shifted
    cosets of rank 2-5, against a filtered box search."""
    draw = random.Random(606)
    found = 0
    for case in range(32):
        n = 2 + case % 4
        S = GramMatrix(random_pos_def_entries(draw, n, spread=1, bump=2))
        k = draw.randint(1, n - 1)
        prior = [tuple(draw.randint(-1, 1) for _ in range(n)) for _ in range(k)]
        x = [draw.randint(-1, 1) for _ in range(n)]
        x[0] = 1
        norm = S.value(x)
        inners = _inners(S, prior, x)
        if case % 4 == 3:
            inners[0] += 1  # a coset that may hold nothing
        got = sorted(_constrained_candidates(S, prior, inners, norm))
        assert got == _box_constrained(S, prior, inners, norm), \
            (S.entries, prior, inners, norm)
        if case % 4 != 3:
            assert tuple(x) in got
        found += len(got)
    assert found > 32


def test_constrained_candidates_reuse_cached_frames():
    """Each prior is queried several times with different (inners, norm),
    so later queries run on a cached kernel frame: consistent cosets,
    inconsistent inners on a cached frame, and full-rank priors with no
    kernel, against the box search.  Clearing the cache and running the
    queries in reverse gives the same candidates in the same order."""
    draw = random.Random(707)
    queries, empty = [], []
    for case in range(15):
        n = 2 + case % 3
        S = GramMatrix(random_pos_def_entries(draw, n, spread=1, bump=2))
        if case % 3 == 0:  # full rank: unit upper triangular, no kernel
            prior = tuple(tuple(int(i == j) if i >= j else draw.randint(-1, 1)
                                for i in range(n)) for j in range(n))
        else:
            prior = tuple(tuple(draw.randint(-1, 1) for _ in range(n))
                          for _ in range(draw.randint(1, n - 1)))
            if not any(map(any, prior)):
                prior = ((1,) + (0,) * (n - 1),) + prior[1:]
        for _ in range(4):
            x = [draw.randint(-1, 1) for _ in range(n)]
            x[draw.randrange(n)] = draw.choice((1, 2))
            queries.append((S, prior, _inners(S, prior, x), S.value(x)))
        # a dependent column 2 v: solvable only when its inner product is
        # even, so the odd query on the cached frame has no solution
        v = next(v for v in prior if any(v))
        bad = prior + (tuple(2 * c for c in v),)
        good = _inners(S, bad, [1] + [0] * (n - 1))
        queries.append((S, bad, good, S.entries[0][0]))
        queries.append((S, bad, good[:-1] + [good[-1] + 1], S.entries[0][0]))
        empty.append(len(queries) - 1)

    _kernel_frame.cache_clear()
    forward = [list(_constrained_candidates(*q)) for q in queries]
    assert _kernel_frame.cache_info().hits >= len(queries) - 2 * 15
    for q, got in zip(queries, forward):
        assert sorted(got) == _box_constrained(*q), q
    assert all(forward[i] == [] for i in empty)
    assert sum(map(len, forward)) > len(queries)

    _kernel_frame.cache_clear()
    backward = [list(_constrained_candidates(*q)) for q in reversed(queries)]
    assert backward[::-1] == forward


def test_find_representations_cold_and_warm_cache():
    """The same embeddings, divisors and order on a cold cache and on a
    warm one."""
    draw = random.Random(808)
    cases = []
    while len(cases) < 8:
        n, m = draw.randint(3, 5), draw.randint(2, 3)
        S0 = GramMatrix(random_pos_def_entries(draw, n, spread=1, bump=2))
        X = IntMatrix([[draw.randint(-1, 1) for _ in range(m)]
                       for _ in range(n)])
        T = gram_of_columns(S0, X)
        if not is_positive_definite(T):
            continue
        skew = IntMatrix([[int(i == j) + (j == i + 1) * draw.randint(-2, 2)
                           for j in range(n)] for i in range(n)])
        cases.append((gram_of_columns(S0, skew), T, draw.choice((1, 2))))
    cold = []
    for S, T, c in cases:
        _kernel_frame.cache_clear()
        cold.append(find_representations(S, T, c))
    for S, T, c in cases:  # cache the frames of every case
        find_representations(S, T, c)
    warm = [find_representations(S, T, c) for S, T, c in cases]
    assert warm == cold
    assert any(cold)


def test_imprimitivity_bound_example():
    # image spanned by 2e1 and 3e2 inside Z^3: index structure (1, 6)
    S = GramMatrix.identity(3)
    X = IntMatrix([[2, 0], [0, 3], [0, 0]])
    emb = Embedding.build(S, GramMatrix.diagonal([4, 9]), X)
    assert emb.elementary_divisors == (1, 6)
    assert emb.imprimitivity_bound == 6


def test_find_representations_counts():
    S = GramMatrix.identity(4)
    # 2 = 1+1: columns (±1, ±1) placed in C(4,2) positions; up to the global
    # sign normalization the count is C(4,2) * 2 = 12
    embs = find_representations(S, GramMatrix.diagonal([2]), 1)
    assert len(embs) == 12
    # in I3 the only vectors of norm 4 are +-2e_i: imprimitive, divisor 2
    S3 = GramMatrix.identity(3)
    assert find_representations(S3, GramMatrix.diagonal([4]), 1) == []
    embs2 = find_representations(S3, GramMatrix.diagonal([4]), 2)
    assert len(embs2) == 3
    assert all(e.imprimitivity_bound == 2 for e in embs2)


def test_find_representations_pinned_counts():
    """I4 has r_4(4) = 24 vectors of norm 4, r_4*(4) = 16 of them
    primitive, and 144 ordered orthogonal pairs of norm 2, 96 of them
    spanning a primitive sublattice; halved for the global sign."""
    S = GramMatrix.identity(4)
    for T, counts in ((GramMatrix.diagonal([4]), {1: 8, 2: 12}),
                      (GramMatrix.diagonal([2, 2]), {1: 48, 2: 72})):
        for c, count in counts.items():
            assert len(find_representations(S, T, c)) == count
            assert len(find_representations(S, T, c, limit=1000)) == count


def test_find_representations_rejects_limit_below_one():
    S = GramMatrix.identity(4)
    T = GramMatrix.diagonal([4])
    for limit in (0, -1):
        with pytest.raises(ValueError):
            find_representations(S, T, 1, limit=limit)
    assert len(find_representations(S, T, 1, limit=1)) == 1


def _divisor_cases(draw, count):
    """Seeded (S, T, c) with T = X^t S X of rank 1-3, X with columns
    scaled by 1-3 so that imprimitive representations occur."""
    cases = []
    while len(cases) < count:
        m = 1 + len(cases) % 3
        n = draw.randint(m + 1, 4)
        S = GramMatrix(random_pos_def_entries(draw, n, spread=1, bump=2))
        X = [[draw.randint(-1, 1) for _ in range(m)] for _ in range(n)]
        for j in range(m):
            f = draw.choice((1, 1, 2, 3))
            for row in X:
                row[j] *= f
        T = gram_of_columns(S, IntMatrix(X))
        if is_positive_definite(T) and max(map(max, T.entries)) <= 24:
            cases.append((S, T, draw.choice((1, 2, 3, 4, 6, 12))))
    return cases


def test_find_representations_matches_filter_after_build():
    """The divisor bound inside the column search returns the embeddings
    of the filter-after-build oracle, in the same order, with and without
    a limit."""
    draw = random.Random(1515)
    pruned = 0
    for S, T, c in _divisor_cases(draw, 60):
        expect = filtered_representations_oracle(S, T, c)
        got = find_representations(S, T, c)
        assert got == expect, (S.entries, T.entries, c)
        assert find_representations(S, T, c, limit=1) == \
            filtered_representations_oracle(S, T, c, limit=1)
        pruned += len(list(_column_search(S, T))) - len(got)
        for emb in got:
            assert c % emb.imprimitivity_bound == 0
    assert pruned > 0
    # every c on further draws, and on targets in I4 with representations
    # of divisors (1, 4), (2, 2), (1, 6), (2, 6) and (1, 2, 4): prefixes of
    # index above 1, and exponents below the product of the divisors
    S4 = GramMatrix.identity(4)
    pinned = [(S4, gram_of_columns(S4, IntMatrix(X)), None) for X in (
        [[2, 1], [0, 2], [0, 0], [0, 0]], [[2, 0], [0, 2], [0, 0], [0, 0]],
        [[2, 0], [0, 3], [0, 0], [0, 0]], [[2, 0], [0, 6], [0, 0], [0, 0]],
        [[1, 0, 0], [0, 2, 0], [0, 0, 4], [0, 0, 0]])]
    bounds = set()
    for S, T, _ in _divisor_cases(random.Random(1516), 24) + pinned:
        bounds.update(e.imprimitivity_bound
                      for e in filtered_representations_oracle(S, T, 12))
        for c in (1, 2, 3, 4, 6, 12):
            assert find_representations(S, T, c) == \
                filtered_representations_oracle(S, T, c), \
                (S.entries, T.entries, c)
    assert {2, 3, 4, 6} <= bounds


def test_find_representations_respects_divisor_filter():
    S = GramMatrix.identity(3)
    for t, c, expect_any in [(4, 1, False), (4, 2, True), (9, 1, True)]:
        embs = find_representations(S, GramMatrix.diagonal([t]), c, limit=1)
        assert bool(embs) == expect_any
        for e in embs:
            assert c % e.imprimitivity_bound == 0


def test_representation_invariance_under_unimodular_change():
    for _ in range(10):
        S = random_pos_def(4, spread=2)
        T = random_pos_def(2, spread=2)
        U = random_unimodular(4)
        a = len(find_representations(S, T, 1))
        b = len(find_representations(gram_of_columns(S, U), T, 1))
        assert a == b


def test_representations_verify_exactly():
    S = random_pos_def(4, spread=2)
    T = GramMatrix.diagonal([lattice_minimum(S)])
    for emb in find_representations(S, T, 1):
        assert gram_of_columns(S, emb.X).entries == T.entries


def test_extend_representation_i4_case():
    # R = <e1> with Q = 1 embedded in I4; M = diag(1, 3) containing R as the
    # first basis vector; the extension must map M's second vector somewhere
    # of norm 3 orthogonal to the image of e1
    S = GramMatrix.identity(4)
    sigma = Embedding.build(S, GramMatrix.diagonal([1]), IntMatrix([[1], [0], [0], [0]]))
    glue = IntMatrix([[1], [0]])
    T_M = GramMatrix.diagonal([1, 3])
    tau = extend_representation(S, sigma, T_M, glue)
    assert tau is not None
    assert (tau.X @ glue).entries == sigma.X.entries
    assert gram_of_columns(S, tau.X).entries == T_M.entries


def test_extend_representation_impossible_in_i2():
    S = GramMatrix.identity(2)
    sigma = Embedding.build(S, GramMatrix.diagonal([1]), IntMatrix([[1], [0]]))
    glue = IntMatrix([[1], [0]])
    tau = extend_representation(S, sigma, GramMatrix.diagonal([1, 3]), glue)
    assert tau is None


def test_extend_representation_nontrivial_glue():
    # R of index 2 in M: M = Z^2 with Gram I2, R spanned by (1,1) and (1,-1)
    S = GramMatrix.identity(4)
    T_M = GramMatrix.identity(2)
    glue = IntMatrix([[1, 1], [1, -1]])
    T_R = gram_of_columns(T_M, glue)  # diag(2, 2)
    sigma_candidates = find_representations(S, T_R, 2)
    extended = [extend_representation(S, s, T_M, glue) for s in sigma_candidates]
    assert any(t is not None for t in extended)
    for s, t in zip(sigma_candidates, extended):
        if t is not None:
            assert (t.X @ glue).entries == s.X.entries
            assert gram_of_columns(S, t.X).entries == T_M.entries


def test_extend_representation_unimodular_glue():
    # R = M up to the basis change glue, so the saturation of glue is all
    # of Z^2, nothing is left to complete and tau is sigma.X glue^-1
    S = GramMatrix.identity(4)
    T_M = GramMatrix([[2, 1], [1, 3]])
    glue = IntMatrix([[1, 1], [0, 1]])
    sigmas = find_representations(S, gram_of_columns(T_M, glue), 1)[:5]
    assert len(sigmas) == 5
    for sigma in sigmas:
        tau = extend_representation(S, sigma, T_M, glue)
        assert tau.X == sigma.X @ invert_unimodular(glue)
