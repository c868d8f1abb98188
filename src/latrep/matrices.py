"""Exact integer linear algebra on symmetric matrices.

Everything here is arbitrary-precision Python ints: every elimination is
fraction-free (Bareiss), so no Fraction is built.  Floating point is
forbidden throughout the package because p-adic valuations and
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

@dataclass(frozen=True, slots=True)
class SmithForm:
    """U X V = diag(divisors) with U, V unimodular and d_i | d_{i+1}."""

    divisors: tuple[int, ...]
    U: IntMatrix
    V: IntMatrix


def _smith_eliminate(a: list[list[int]], u: list[list[int]],
                     v: list[list[int]]) -> tuple[int, ...]:
    """Reduce a (r x c, in place) to Smith form and return its r or c
    diagonal entries; every row operation is also applied to the r rows of
    u, every column operation to the columns of the rows of v.  With
    r empty rows for u and no rows for v the transforms cost nothing."""
    r, c = len(a), len(a[0]) if a else 0

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, f):
        # row_dst += f * row_src
        a[dst] = [x + f * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + f * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, f):
        for row in a:
            row[dst] += f * row[src]
        for row in v:
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
        if best[0] != t:
            swap_rows(t, best[0])
        if best[1] != t:
            swap_cols(t, best[1])
        # clear row and column t: reduce every other entry by the rounded
        # quotient q = floor(x/p + 1/2), so it is left with |x| <= |p|/2,
        # then move the smallest nonzero remainder to the pivot and repeat;
        # the pivot at least halves each pass, which keeps U and V small
        while True:
            p = a[t][t]
            best, where = 0, None
            for i in range(t + 1, r):
                x = a[i][t]
                if x:
                    add_row(i, t, -((2 * x + p) // (2 * p)))
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
                swap_rows(t, where[0])
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
            add_row(t, offender, 1)
            continue
        if pivot < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return tuple(a[i][i] for i in range(min(r, c)))


def smith_normal_form(X: IntMatrix) -> SmithForm:
    r, c = X.rows, X.cols
    u = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    v = [[1 if i == j else 0 for j in range(c)] for i in range(c)]
    divisors = _smith_eliminate([list(row) for row in X.entries], u, v)
    return SmithForm(divisors, IntMatrix(u), IntMatrix(v))


def elementary_divisors(X: IntMatrix) -> tuple[int, ...]:
    """Nonzero Smith divisors of X, by the elimination of
    smith_normal_form without its transforms."""
    divisors = _smith_eliminate([list(row) for row in X.entries],
                                [[] for _ in range(X.rows)], [])
    return tuple(d for d in divisors if d != 0)


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
    snf = smith_normal_form(B)
    rank = sum(1 for d in snf.divisors if d != 0)
    if rank != B.cols:
        raise ValueError("B is rank-deficient")
    uinv = invert_unimodular(snf.U)
    cols = [uinv.column(j) for j in range(rank)]
    return column_hnf(IntMatrix.from_columns(cols))


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
