"""Exact integer linear algebra on symmetric matrices.

Everything here is arbitrary-precision Python ints: determinants and
adjugates are fraction-free (Bareiss), and the echelon and the Smith form
use integer row and column operations, so no Fraction is built.  Floating
point is forbidden throughout the package because p-adic valuations and
determinant signs must be exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from operator import mul
from typing import Sequence

# Bound on every memo table in the package.
CACHE_SIZE = 4096


def _freeze(rows) -> tuple[tuple[int, ...], ...]:
    """The rows as tuples of ints, checked in one pass over the entries:
    ints pass through, any other entry must equal its int() or the matrix
    is rejected (no silent truncation), and ragged rows are rejected."""
    out = tuple(map(tuple, rows))
    if len(set(map(len, out))) > 1:
        raise ValueError("ragged matrix")
    if set(map(type, chain.from_iterable(out))) <= {int}:
        return out
    ints = tuple(tuple(map(int, row)) for row in out)
    if ints != out:
        raise ValueError(f"matrix {out!r} has a non-integer entry")
    return ints


@dataclass(frozen=True, slots=True)
class IntMatrix:
    """A rows x cols matrix of exact integers."""

    entries: tuple[tuple[int, ...], ...]

    def __init__(self, entries):
        object.__setattr__(self, "entries", _freeze(entries))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]]) -> "IntMatrix":
        cols = _freeze(columns)
        if not cols:
            raise ValueError("need at least one column")
        return cls(zip(*cols))

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def columns(self) -> list[tuple[int, ...]]:
        return list(zip(*self.entries))

    def transpose(self) -> "IntMatrix":
        return IntMatrix(zip(*self.entries))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        cols = other.columns()
        return IntMatrix([[sum(map(mul, row, col)) for col in cols]
                          for row in self.entries])

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]


@dataclass(frozen=True, slots=True)
class GramMatrix:
    """Symmetric integral Gram matrix; the form is Q(x) = x^t S x.

    Diagonal entries are the values Q(e_i); even lattices are simply
    those with even diagonal.
    """

    entries: tuple[tuple[int, ...], ...]

    def __init__(self, entries):
        frozen = _freeze(entries)
        if frozen and len(frozen[0]) != len(frozen):
            raise ValueError("Gram matrix must be square")
        if tuple(zip(*frozen)) != frozen:
            raise ValueError("Gram matrix must be symmetric")
        object.__setattr__(self, "entries", frozen)

    @property
    def n(self) -> int:
        return len(self.entries)

    @classmethod
    def identity(cls, n: int) -> "GramMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, values: Sequence[int]) -> "GramMatrix":
        vals = list(values)
        n = len(vals)
        return cls([[vals[i] if i == j else 0 for j in range(n)] for i in range(n)])

    def value(self, x: Sequence[int]) -> int:
        """Q(x) = x^t S x."""
        return inner_product(self, x, x)


def inner_product(S: GramMatrix, x: Sequence[int], y: Sequence[int]) -> int:
    """x^t S y for exact integer vectors."""
    total = 0
    for i, row in enumerate(S.entries):
        xi = x[i]
        if xi:
            total += xi * sum(row[j] * y[j] for j in range(S.n) if y[j])
    return total


def gram_of_columns(S: GramMatrix, X: IntMatrix) -> GramMatrix:
    """X^t S X as a Gram matrix."""
    cols = X.columns()
    images = [[sum(map(mul, row, x)) for row in S.entries]
              for x in cols]  # S x_j
    m = len(cols)
    g = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            v = sum(map(mul, cols[i], images[j]))
            g[i][j] = v
            g[j][i] = v
    return GramMatrix(g)


# ---------------------------------------------------------------------------
# determinants

def _det_bareiss(rows: list[list[int]]) -> int:
    """Fraction-free Bareiss elimination; exact integer determinant."""
    n = len(rows)
    if n == 0:
        return 1
    a = [row[:] for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def adjugate(M: GramMatrix | IntMatrix
             ) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(adj(M), det(M)) for a square nonsingular integer matrix M, by
    fraction-free Gauss-Jordan on [M | I] with row swaps: every division by
    the previous pivot is exact, the left block ends as det(PM) I and the
    right block as det(PM) M^-1 for the row permutation P."""
    n = len(M.entries)
    a = [list(row) + [int(i == j) for j in range(n)]
         for i, row in enumerate(M.entries)]
    if any(len(row) != 2 * n for row in a):
        raise ValueError("adjugate of a non-square matrix")
    sign = 1
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                raise ValueError("matrix is singular")
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot = a[k][k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(pivot * x - f * y) // prev for x, y in zip(a[i], a[k])]
        prev = pivot
    return tuple(tuple(sign * x for x in row[n:]) for row in a), sign * prev


@lru_cache(maxsize=CACHE_SIZE)
def _det_cached(entries: tuple[tuple[int, ...], ...]) -> int:
    return _det_bareiss([list(r) for r in entries])


def det(S: GramMatrix) -> int:
    """Exact determinant of a Gram matrix."""
    return _det_cached(S.entries)


def integral_gram_schmidt(S: GramMatrix) -> tuple[list[int], list[list[int]]]:
    """Integral Gram-Schmidt data (d, lam) of the basis with Gram S.

    d[i] is the i-th leading principal minor (d[0] = 1) and, for j < k,
    lam[k][j] = d[j+1] mu[k][j], so that mu[k][j] = lam[k][j] / d[j+1] and
    B*_i = d[i+1] / d[i].  Every division is exact (Bareiss).  The pass
    stops at the first d[i] <= 0, which is then the last entry of d; the
    rows of lam past that point stay zero."""
    g = S.entries
    n = S.n
    d = [1]
    lam = [[0] * n for _ in range(n)]
    for k in range(n):
        row = lam[k]
        for j in range(k + 1):
            u = g[k][j]
            lj = lam[j]
            for i in range(j):
                u = (d[i + 1] * u - row[i] * lj[i]) // d[i]
            if j < k:
                row[j] = u
            else:
                d.append(u)
        if d[-1] <= 0:
            break
    return d, lam


@lru_cache(maxsize=CACHE_SIZE)
def is_positive_definite(S: GramMatrix) -> bool:
    """All leading principal minors positive."""
    return integral_gram_schmidt(S)[0][-1] > 0


# ---------------------------------------------------------------------------
# Smith normal form

def smith_normal_form(X: IntMatrix) -> tuple[int, ...]:
    """The nonzero Smith divisors d_1 | d_2 | ... of X, all positive.

    Only the divisors are kept: the row and column operations are applied
    to a copy of X and not recorded."""
    a = [list(row) for row in X.entries]
    r, c = X.rows, X.cols

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]

    def add_col(dst, src, f):
        for row in a:
            row[dst] += f * row[src]

    t = 0
    while t < min(r, c):
        # locate a minimal nonzero entry in the remaining block
        best = None
        for i in range(t, r):
            for j in range(t, c):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        a[t], a[best[0]] = a[best[0]], a[t]
        if best[1] != t:
            swap_cols(t, best[1])
        # clear row and column t: reduce every other entry by the rounded
        # quotient q = floor(x/p + 1/2), so it is left with |x| <= |p|/2,
        # then move the smallest nonzero remainder to the pivot and repeat;
        # the pivot at least halves each pass, which keeps the entries small
        while True:
            p = a[t][t]
            best, where = 0, None
            for i in range(t + 1, r):
                x = a[i][t]
                if x:
                    f = -((2 * x + p) // (2 * p))
                    a[i] = [e + f * y for e, y in zip(a[i], a[t])]
                    x = abs(a[i][t])
                    if x and (where is None or x < best):
                        best, where = x, (i, t)
            for j in range(t + 1, c):
                x = a[t][j]
                if x:
                    add_col(j, t, -((2 * x + p) // (2 * p)))
                    x = abs(a[t][j])
                    if x and (where is None or x < best):
                        best, where = x, (t, j)
            if where is None:
                break
            if where[0] != t:
                a[t], a[where[0]] = a[where[0]], a[t]
            else:
                swap_cols(t, where[1])
        # enforce divisibility of the remaining block by the pivot
        pivot = a[t][t]
        offender = None
        for i in range(t + 1, r):
            for j in range(t + 1, c):
                if a[i][j] % pivot != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
            continue
        t += 1
    return tuple(abs(a[i][i]) for i in range(t))


# ---------------------------------------------------------------------------
# integer linear systems

def invert_unimodular(M: IntMatrix) -> IntMatrix:
    """Exact inverse of an integer matrix with determinant +-1: the
    adjugate times det(M) = 1 / det(M)."""
    if M.rows != M.cols:
        raise ValueError("inverse of a non-square matrix")
    adj, d = adjugate(M)  # raises ValueError when M is singular
    if d not in (1, -1):
        raise ValueError("matrix is not unimodular")
    return IntMatrix(adj) if d == 1 else IntMatrix([[-x for x in row] for row in adj])


def solve_integer_columns(B: IntMatrix, X: IntMatrix) -> IntMatrix | None:
    """The integer A with B A = X, or None when there is none.

    B must have full column rank, so that G = B^t B is nonsingular; the
    only candidate is A = adj(G) B^t X / det(G).
    """
    bt = B.transpose()
    adj, d = adjugate(bt @ B)
    num = IntMatrix(adj) @ (bt @ X)
    if any(x % d for row in num.entries for x in row):
        return None
    A = IntMatrix([[x // d for x in row] for row in num.entries])
    return A if (B @ A).entries == X.entries else None


# ---------------------------------------------------------------------------
# Hermite form and lattice spans

# (E, adj(H), det(H)) for a set of columns P: see echelon
Echelon = tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...], int]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) = x a + y b and g >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return (a, x0, y0) if a >= 0 else (-a, -x0, -y0)


def echelon(columns: Sequence[Sequence[int]], n: int) -> Echelon | None:
    """(E, adj(H), det(H)) with E unimodular and E P = [H; 0] for the
    k columns P of length n, H upper triangular with positive diagonal;
    None when P is rank-deficient.

    The first k columns of E^-1 are a basis of the saturation of P's span,
    in which P has the coordinates H, so det(H) is the index of P's span
    in its saturation; the last n - k rows of E are a basis of the integer
    x with x^t P = 0.  Column k of P is placed by 2x2 extended-gcd steps
    that fold the entries of E v_k below row k into row k (Hermite
    reduction; Cohen, A Course in Computational Algebraic Number Theory,
    2.4)."""
    if len(columns) > n:
        return None
    E = [[int(i == j) for j in range(n)] for i in range(n)]
    adj: list[list[int]] = []
    h = 1
    for k, v in enumerate(columns):
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


def column_hnf(M: IntMatrix) -> IntMatrix:
    """Canonical basis (column Hermite form) of the column span of M.

    Returns an n x r matrix whose columns are the HNF basis, pivots
    positive, entries left of each pivot reduced modulo it.
    """
    n = M.rows
    cols = [list(c) for c in M.columns() if any(c)]
    basis: list[list[int]] = []
    for row in range(n):
        if not cols:
            break
        live = [c for c in cols if c[row] != 0]
        rest = [c for c in cols if c[row] == 0]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda c: abs(c[row]))
            short = live[0]
            nxt = [short]
            for other in live[1:]:
                q = other[row] // short[row]
                reduced = [x - q * y for x, y in zip(other, short)]
                if reduced[row] != 0:
                    nxt.append(reduced)
                elif any(reduced):
                    rest.append(reduced)
            live = nxt
        piv = live[0]
        if piv[row] < 0:
            piv = [-x for x in piv]
        for b in basis:
            q = b[row] // piv[row]
            if q:
                for k in range(n):
                    b[k] -= q * piv[k]
        basis.append(piv)
        cols = [c for c in rest if any(c)]
    if not basis:
        raise ValueError("zero column span")
    return IntMatrix.from_columns(basis)


def saturate(B: IntMatrix) -> IntMatrix:
    """Basis of the saturation QB intersect Z^n of the column span of B.

    B must have full column rank; the result is in column Hermite form,
    so saturation is idempotent on the nose.
    """
    span = echelon(B.columns(), B.rows)
    if span is None:
        raise ValueError("B is rank-deficient")
    P = invert_unimodular(IntMatrix(span[0]))
    return column_hnf(IntMatrix([row[:B.cols] for row in P.entries]))


# ---------------------------------------------------------------------------
# shared Gram reader

def parse_gram(text: str) -> GramMatrix:
    """Parse a Gram matrix from plain text (first line n, then n rows)
    or from a JSON array-of-arrays."""
    stripped = text.lstrip()
    if stripped.startswith("["):
        data = json.loads(stripped)
        return GramMatrix(data)
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty Gram file")
    n = int(lines[0].split()[0])
    if len(lines) < n + 1:
        raise ValueError("Gram file has too few rows")
    rows = [[int(tok) for tok in lines[1 + i].split()] for i in range(n)]
    if any(len(r) != n for r in rows):
        raise ValueError("Gram file row length mismatch")
    return GramMatrix(rows)


def load_gram(path) -> GramMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_gram(fh.read())
