"""Exact enumeration over positive definite lattices.

Integral LLL reduction on the Gram matrix (integer leading minors and
scaled Gram-Schmidt coefficients, no rationals), fraction-free
Fincke-Pohst enumeration on the same integers (shifted cosets scaled by the
determinant), global representation search X^t S X = T, imprimitivity
measurement and representation extension.  No floating point anywhere.

The column search keeps one kernel frame per column prefix (the Smith form
of the prefix's linear constraints, the LLL-reduced kernel and the
adjugate of its Gram), under the one cache policy, so each candidate
column costs one particular solution and one shifted enumeration.  The
frame also holds a unimodular row echelon of the prefix itself, so the
divisor bound c is tested inside the search: a candidate column is kept
only while the exponent of sat(L)/L for the columns L so far divides c,
which costs one matrix-vector product, one gcd and, when the prefix is
imprimitive, one congruence per prefix column.  Only admitted X reach
`Embedding.build`.  Under the same policy each Gram is
LLL-reduced once, with its Gram-Schmidt data, for its minimum and its
vectors of one norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from operator import mul
from typing import Iterator, Sequence

from .matrices import (CACHE_SIZE, GramMatrix, IntMatrix, adjugate,
                       elementary_divisors, gram_of_columns,
                       integral_gram_schmidt, invert_unimodular,
                       is_positive_definite, saturate, smith_normal_form,
                       solve_integer_columns)

DELTA = Fraction(3, 4)  # LLL parameter


# ---------------------------------------------------------------------------
# LLL reduction on a Gram matrix

def lll_reduce(S: GramMatrix, delta: Fraction = DELTA) -> tuple[GramMatrix, IntMatrix]:
    """LLL-reduced Gram S' = U^t S U with U unimodular; exact arithmetic.

    Integral LLL on the Gram matrix (Cohen, Alg. 2.6.7): the leading minors
    d and the integers lam[k][j] = d[j+1] mu[k][j] are updated in place.
    b_k is size-reduced against b_{k-1}, ..., b_0 with q = floor(mu + 1/2)
    before the Lovasz test b (d[k+1] d[k-1] + lam^2) >= a d[k]^2 for
    delta = a/b."""
    d, lam = integral_gram_schmidt(S)
    if d[-1] <= 0:
        raise ValueError("LLL requires a positive definite form")
    n = S.n
    a, b = delta.as_integer_ratio()
    basis = [[1 if i == j else 0 for i in range(n)] for j in range(n)]  # columns
    k = 1
    while k < n:
        lk = lam[k]
        for j in range(k - 1, -1, -1):
            q = (2 * lk[j] + d[j + 1]) // (2 * d[j + 1])
            if q:
                basis[k] = [x - q * y for x, y in zip(basis[k], basis[j])]
                lk[j] -= q * d[j + 1]
                lj = lam[j]
                for i in range(j):
                    lk[i] -= q * lj[i]
        r = lk[k - 1]
        if b * (d[k + 1] * d[k - 1] + r * r) >= a * d[k] * d[k]:
            k += 1
            continue
        # swap b_k and b_{k-1}: lam[k][k-1] is unchanged, d[k] becomes B
        basis[k], basis[k - 1] = basis[k - 1], basis[k]
        lk[:k - 1], lam[k - 1][:k - 1] = lam[k - 1][:k - 1], lk[:k - 1]
        B = (d[k - 1] * d[k + 1] + r * r) // d[k]
        for i in range(k + 1, n):
            li = lam[i]
            t = li[k]
            li[k] = (d[k + 1] * li[k - 1] - r * t) // d[k]
            li[k - 1] = (B * t + r * li[k]) // d[k + 1]
        d[k] = B
        k = max(k - 1, 1)
    U = IntMatrix.from_columns(basis)
    return gram_of_columns(S, U), U


@lru_cache(maxsize=CACHE_SIZE)
def _reduced(S: GramMatrix) -> tuple[GramMatrix, IntMatrix, tuple[int, ...],
                                     tuple[tuple[int, ...], ...]]:
    """(S', U, d, lam): S' = U^t S U = lll_reduce(S) and the integral
    Gram-Schmidt data of S'; one reduction per Gram, under the one cache
    policy."""
    reduced, U = lll_reduce(S)
    d, lam = integral_gram_schmidt(reduced)
    return reduced, U, tuple(d), tuple(map(tuple, lam))


# ---------------------------------------------------------------------------
# exact enumeration

def _enumerate(d: Sequence[int], lam: Sequence[Sequence[int]], t: int,
               shift: tuple[Sequence[int], int] | None = None,
               sphere: bool = False) -> Iterator[tuple[tuple[int, ...], int]]:
    """Integer y with D^2 Q(y + m/D) <= t (= t when sphere), each with that
    value, for shift = (m, D); without a shift m = 0, D = 1 and y = 0 is
    skipped.  Streamed in ascending order of y_{n-1}, ..., y_0.

    Fincke-Pohst on the integral Gram-Schmidt data (d, lam) of a positive
    definite Gram (see integral_gram_schmidt), with ints only.
    For w = D y + m and s_i = d[i+1] w_i + sum_{k>i} lam[k][i] w_k,
    D^2 Q(y + m/D) = sum_i s_i^2 / (d[i] d[i+1]).  E_i = d[i+1] times the
    budget left for levels <= i, so E_{n-1} = d[n] t and
    E_{i-1} = (d[i] E_i - s_i^2) / d[i+1], an exact division (d[i] times a
    Schur complement of the Gram is integral).  Level i admits
    |s_i| <= isqrt(d[i] E_i); the sphere leaf needs s_0^2 = E_0, so its cost
    tracks the sphere, not the ball; the value is t - E_{-1}."""
    n = len(d) - 1
    m, D = shift if shift is not None else ((0,) * n, 1)
    cols = [[lam[k][i] for k in range(i + 1, n)] for i in range(n)]
    y = [0] * n
    w = list(m)

    def rec(i: int, E: int) -> Iterator[tuple[tuple[int, ...], int]]:
        di, dn = d[i], d[i + 1]
        a = dn * D
        c = dn * m[i] + sum(map(mul, cols[i], w[i + 1:]))
        r = isqrt(di * E)
        if i == 0 and sphere:
            if r * r == E:
                for s in (-r, r) if r else (0,):
                    q, rem = divmod(s - c, a)
                    if not rem:
                        y[0] = q
                        if shift is not None or any(y):
                            yield tuple(y), t
                y[0] = 0
            return
        for yi in range(-((r + c) // a), (r - c) // a + 1):
            y[i] = yi
            w[i] = D * yi + m[i]
            s = a * yi + c
            rest = (di * E - s * s) // dn
            if i:
                yield from rec(i - 1, rest)
            elif shift is not None or any(y):
                yield tuple(y), t - rest
        y[i] = 0
        w[i] = m[i]

    yield from rec(n - 1, d[n] * t)


def _canonical_sign(v: tuple[int, ...]) -> bool:
    first = next((c for c in v if c != 0), 0)
    return first > 0


@dataclass(frozen=True, slots=True)
class ShortVectorReport:
    """Vectors of bounded norm, stored once per +-pair (first nonzero
    coordinate positive)."""

    bound: int
    vectors: tuple[tuple[int, ...], ...]
    minimum: int | None

    def to_dict(self) -> dict:
        return {"schema_version": 1, "bound": self.bound,
                "minimum": self.minimum,
                "vectors": [list(v) for v in self.vectors]}


def lattice_minimum(S: GramMatrix) -> int:
    """mu(S) = min over nonzero integer x of x^t S x."""
    reduced, _, d, lam = _reduced(S)
    start = min(reduced.entries[i][i] for i in range(S.n))
    return min(val for _, val in _enumerate(d, lam, start))


class _NormStream:
    """Lazy, memoized stream of canonical-sign vectors of one exact norm."""

    def __init__(self, S: GramMatrix, t: int):
        _, U, d, lam = _reduced(S)

        def gen():
            for v, _ in _enumerate(d, lam, t, sphere=True):
                w = tuple(sum(map(mul, row, v)) for row in U.entries)
                if _canonical_sign(w):
                    yield w

        self._gen = gen()
        self._seen: list[tuple[int, ...]] = []
        self._done = False

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        i = 0
        while True:
            if i < len(self._seen):
                yield self._seen[i]
                i += 1
                continue
            if self._done:
                return
            try:
                v = next(self._gen)
            except StopIteration:
                self._done = True
                return
            self._seen.append(v)


@lru_cache(maxsize=CACHE_SIZE)
def _vectors_of_norm_iter(S: GramMatrix, t: int) -> _NormStream:
    return _NormStream(S, t)


def vectors_of_norm(S: GramMatrix, t: int) -> ShortVectorReport:
    """All x (up to sign) with x^t S x = t."""
    if t <= 0:
        raise ValueError("norm must be positive")
    vectors = tuple(sorted(_vectors_of_norm_iter(S, t)))
    return ShortVectorReport(bound=t, vectors=vectors, minimum=t if vectors else None)


# ---------------------------------------------------------------------------
# embeddings

@dataclass(frozen=True, slots=True)
class Embedding:
    """An exact representation X^t S X = T with its imprimitivity data."""

    X: IntMatrix
    source: GramMatrix  # T
    target: GramMatrix  # S
    elementary_divisors: tuple[int, ...]
    imprimitivity_bound: int

    @classmethod
    def build(cls, S: GramMatrix, T: GramMatrix, X: IntMatrix) -> "Embedding":
        """Verify X^t S X = T and read the imprimitivity data off X.

        With U X V = diag(d), X = U^-1[:, :m] diag(d) V^-1 and U^-1[:, :m]
        is a basis of the saturation, so the coordinates of X in its
        saturation have exactly the Smith divisors of X; only the divisors
        are computed, not U and V.  `find_representations` builds only the
        X its column search has admitted."""
        if gram_of_columns(S, X).entries != T.entries:
            raise ValueError("X^t S X != T")
        divisors = elementary_divisors(X)
        if len(divisors) != X.cols:
            raise ValueError("X is rank-deficient")
        return cls(X=X, source=T, target=S, elementary_divisors=divisors,
                   imprimitivity_bound=divisors[-1] if divisors else 1)

    def to_dict(self) -> dict:
        return {"schema_version": 1,
                "X": self.X.to_lists(),
                "elementary_divisors": list(self.elementary_divisors),
                "imprimitivity_bound": self.imprimitivity_bound}


# (E, adj(H), det(H)) for a column prefix P: see _prefix_echelon
_Echelon = tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...], int]


@dataclass(frozen=True, slots=True)
class _KernelFrame:
    """What the column search needs of the prior columns v_j alone.

    With A = (S v_j)^t and U A V = diag(divisors), x^t S v_j = inners[j]
    has the integer solutions x0 + B y: x0 = V[:, :rank] w for w_i =
    (U inners)_i / divisors[i], and B = V[:, rank:] times the LLL transform
    of its Gram Gred.  (d, lam) are the integral Gram-Schmidt data of Gred,
    and adj = adj(Gred) and D = det(Gred) = d[-1] complete the square.  The
    kernel fields B, BtS, d, lam and adj are None when A has full column
    rank.  `echelon` is the prefix's own row echelon (see _prefix_echelon),
    which the divisor bound of the search reads.  Cached and shared between
    calls, so every field is immutable."""

    U: tuple[tuple[int, ...], ...]
    divisors: tuple[int, ...]  # the rank nonzero Smith divisors of A
    V: tuple[tuple[int, ...], ...]  # rows of V[:, :rank]
    B: tuple[tuple[int, ...], ...] | None
    BtS: tuple[tuple[int, ...], ...] | None  # B^t S
    d: tuple[int, ...] | None
    lam: tuple[tuple[int, ...], ...] | None
    adj: tuple[tuple[int, ...], ...] | None
    echelon: _Echelon | None


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) = x a + y b and g >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return (a, x0, y0) if a >= 0 else (-a, -x0, -y0)


def _prefix_echelon(prior: Sequence[tuple[int, ...]], n: int
                    ) -> _Echelon | None:
    """(E, adj(H), det(H)) with E unimodular and E P = [H; 0] for the
    columns P of prior, H upper triangular with positive diagonal; None
    when P is rank-deficient.  det(H) is the index of P's span in its
    saturation.  Column k of P is placed by 2x2 extended-gcd steps that
    fold the entries of E v_k below row k into row k."""
    if len(prior) > n:
        return None
    E = [[int(i == j) for j in range(n)] for i in range(n)]
    adj: list[list[int]] = []
    h = 1
    for k, v in enumerate(prior):
        w = [sum(map(mul, row, v)) for row in E]
        for i in range(k + 1, n):
            if w[i]:
                g, x, y = _xgcd(w[k], w[i])
                a, b = w[k] // g, w[i] // g
                E[k], E[i] = ([x * s + y * t for s, t in zip(E[k], E[i])],
                              [a * t - b * s for s, t in zip(E[k], E[i])])
                w[k], w[i] = g, 0
        g = w[k]
        if g == 0:
            return None
        if g < 0:
            E[k], g = [-x for x in E[k]], -g
        # adj([[H, w'], [0, g]]) = [[g adj(H), -adj(H) w'], [0, det H]]
        aw = [sum(map(mul, row, w[:k])) for row in adj]
        adj = [[g * x for x in row] + [-y] for row, y in zip(adj, aw)]
        adj.append([0] * k + [h])
        h *= g
    return tuple(map(tuple, E)), tuple(map(tuple, adj)), h


def _admits(echelon: _Echelon | None, v: tuple[int, ...], c: int) -> bool:
    """Whether the exponent of sat(L)/L for L = [P v] divides c, given that
    it divides c for the prefix P of `echelon`.

    With w = E v, E [P v] = [[H, w'], [0, g e_1]] after a unimodular change
    of the rows below H, where w' is the head of w and g the gcd of its
    tail, so sat(L)/L is Z^(k+1) / M Z^(k+1) for M = [[H, w'], [0, g]].
    Its exponent divides c iff c M^-1 is integral: g | c and
    (c/g) adj(H) w' = 0 mod det H, as c H^-1 is integral already."""
    if echelon is None:
        return False  # a rank-deficient prefix has no full-rank completion
    E, adj, h = echelon
    w = [sum(map(mul, row, v)) for row in E]
    k = len(adj)
    g = gcd(*w[k:])
    if g == 0 or c % g:
        return False
    e = c // g
    return e % h == 0 or all(e * sum(map(mul, row, w[:k])) % h == 0
                             for row in adj)


@lru_cache(maxsize=CACHE_SIZE)
def _kernel_frame(S: GramMatrix, prior: tuple[tuple[int, ...], ...]
                  ) -> _KernelFrame:
    n = S.n
    snf = smith_normal_form(IntMatrix(
        [[sum(map(mul, row, v)) for row in S.entries] for v in prior]))
    divisors = tuple(d for d in snf.divisors if d != 0)
    rank = len(divisors)
    V = tuple(row[:rank] for row in snf.V.entries)
    echelon = _prefix_echelon(prior, n)
    if rank == n:
        return _KernelFrame(snf.U.entries, divisors, V,
                            None, None, None, None, None, echelon)
    K = IntMatrix([row[rank:] for row in snf.V.entries])
    Gred, U, d, lam = _reduced(gram_of_columns(S, K))
    B = K @ U  # the Gram of B's columns is Gred
    BtS = tuple(tuple(sum(map(mul, col, row)) for row in S.entries)
                for col in B.columns())
    return _KernelFrame(snf.U.entries, divisors, V, B.entries, BtS,
                        d, lam, adjugate(Gred)[0], echelon)


def _constrained_candidates(S: GramMatrix, prior: Sequence[tuple[int, ...]],
                            inners: Sequence[int], norm: int
                            ) -> Iterator[tuple[int, ...]]:
    """All x with x^t S v_j = inners[j] for the prior columns v_j and
    Q(x) = norm, by exact enumeration of the shifted kernel lattice.

    Avoids scanning the full norm-`norm` sphere when the linear
    constraints cut it down to a thin slice."""
    f = _kernel_frame(S, tuple(prior))
    ut = [sum(map(mul, row, inners)) for row in f.U]
    rank = len(f.divisors)
    if any(ut[rank:]):
        return
    w = []
    for u, d in zip(ut, f.divisors):
        q, r = divmod(u, d)
        if r:
            return
        w.append(q)
    x0 = tuple(sum(map(mul, row, w)) for row in f.V)
    q0 = S.value(x0)
    if f.d is None:
        if q0 == norm:
            yield x0
        return
    # complete the square: with Gred m = D cvec, D = det(Gred), D^2 Q(x0 + B y)
    # = D^2 Q_red(y + m/D) + D^2 q0 - D cvec.m, where cvec = B^t S x0 and
    # m = adj(Gred) cvec
    D = f.d[-1]
    cvec = [sum(map(mul, row, x0)) for row in f.BtS]
    m = [sum(map(mul, row, cvec)) for row in f.adj]
    t = D * D * (norm - q0) + D * sum(map(mul, cvec, m))
    if t < 0:
        return
    for y, _ in _enumerate(f.d, f.lam, t, shift=(m, D), sphere=True):
        yield tuple(x + sum(map(mul, row, y)) for x, row in zip(x0, f.B))


def _column_search(S: GramMatrix, T: GramMatrix,
                   fixed: Sequence[tuple[int, ...]] = (),
                   c: int | None = None) -> Iterator[IntMatrix]:
    """Every X with X^t S X = T whose first columns are `fixed`, by
    backtracking over columns.  With nothing fixed, X is found up to the
    global sign: its first column has its first nonzero entry positive.

    With c given, only X whose imprimitivity bound divides c: a column is
    admitted only while the exponent of sat(L)/L for the columns L so far
    divides c (the fixed columns are taken as given).  The prune is exact,
    as sat(L')/L' embeds in sat(L)/L for a prefix L' of L, so a prefix
    that fails has no admissible completion."""
    m = T.n
    chosen = list(fixed)
    start = _prefix_echelon((), S.n)

    def extend(k: int) -> Iterator[IntMatrix]:
        if k == m:
            yield IntMatrix.from_columns(chosen)
            return
        if k == 0:
            candidates = _vectors_of_norm_iter(S, T.entries[0][0])
            echelon = start
        else:
            candidates = _constrained_candidates(
                S, chosen, T.entries[k][:k], T.entries[k][k])
            echelon = _kernel_frame(S, tuple(chosen)).echelon
        for v in candidates:
            if c is not None and not _admits(echelon, v, c):
                continue
            chosen.append(v)
            yield from extend(k + 1)
            chosen.pop()

    yield from extend(len(chosen))


def check_imprimitivity_bound(c: int) -> None:
    """ValueError unless c >= 1: every imprimitivity bound divides 0, and
    c = 0 has no prime factorisation."""
    if c < 1:
        raise ValueError("c must be a positive integer")


def find_representations(S: GramMatrix, T: GramMatrix, c: int = 1,
                         limit: int | None = None) -> list[Embedding]:
    """All (or up to limit >= 1) X with X^t S X = T and imprimitivity bound
    dividing c, up to the global sign symmetry.  The column search admits
    only such X, so an Embedding is built for each X returned alone."""
    check_imprimitivity_bound(c)
    if limit is not None and limit < 1:
        raise ValueError("limit must be a positive integer")
    if not is_positive_definite(S) or not is_positive_definite(T):
        raise ValueError("both forms must be positive definite")
    if T.n > S.n:
        raise ValueError("target rank exceeds ambient rank")
    out: list[Embedding] = []
    for X in _column_search(S, T, c=c):
        emb = Embedding.build(S, T, X)
        if c % emb.imprimitivity_bound:
            raise AssertionError("column search admitted an X beyond the bound")
        out.append(emb)
        if len(out) == limit:
            break
    return out


def extend_representation(S: GramMatrix, sigma: Embedding, T_M: GramMatrix,
                          glue: IntMatrix) -> Embedding | None:
    """Extend sigma: R -> Lambda to tau: M -> Lambda with tau|_R = sigma.

    glue holds the coordinates of R's basis inside M's basis (one column
    per basis vector of R); its Gram under T_M must reproduce sigma's
    source Gram.
    """
    r = sigma.source.n
    m = T_M.n
    if glue.rows != m or glue.cols != r:
        raise ValueError("glue shape mismatch")
    if gram_of_columns(T_M, glue).entries != sigma.source.entries:
        raise ValueError("glue Gram does not match sigma's source")
    sat = saturate(glue)
    coords = solve_integer_columns(sat, glue)  # glue = sat @ coords
    # tau on the saturation basis is forced over Q: xb = sigma.X coords^-1,
    # which must be integral
    xbt = solve_integer_columns(coords.transpose(), sigma.X.transpose())
    if xbt is None:
        return None
    xb = xbt.transpose()
    # complete the saturation basis to a unimodular basis of Z^m
    snf = smith_normal_form(sat)
    uinv = invert_unimodular(snf.U)
    completion = [uinv.column(j) for j in range(r, m)]
    P = IntMatrix.from_columns([sat.column(j) for j in range(r)] + completion)
    Tp = gram_of_columns(T_M, P)  # Gram of M in the adapted basis
    X_adapted = next(_column_search(S, Tp, fixed=xb.columns()), None)
    if X_adapted is None:
        return None
    X = X_adapted @ invert_unimodular(P)
    tau = Embedding.build(S, T_M, X)
    if (tau.X @ glue).entries != sigma.X.entries:
        raise AssertionError("extension does not restrict to sigma")
    return tau
