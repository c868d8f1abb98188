"""Lattice-level representability of T by S over Z_p with bounded
imprimitivity, and the isotropy-of-complement condition at a
distinguished prime.

The decision procedure is a certified search modulo p^N: a witness of
X^t S X = T mod p^N whose induced sublattice has small enough
discriminant valuation lifts to Z_p by the quadratic Hensel argument,
while exhaustion without any admissible witness modulo p^N refutes
representability (a genuine Z_p solution would reduce to one).
Outcomes that survive one precision escalation are surfaced as a third
"undecided" status, never coerced to a boolean.

The imprimitivity bound needs only the p-valuations of the Smith divisors
of a candidate X, and those are determined by X mod p^k up to the cap k:
they are the Smith form over the local ring Z/p^k.  The search reads them
by elimination over Z/p^k with a pivot of minimal valuation, at k =
ord_p(c) + 1 to prune column prefixes and at k = N for a full witness, so
no integer Smith normal form is computed on this path.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import mul

from .enumeration import (Embedding, check_imprimitivity_bound,
                          find_representations)
from .matrices import (GramMatrix, IntMatrix, _det_bareiss, det,
                       gram_of_columns, is_positive_definite)
from .padic import (Place, REAL, complement_isotropic, ord_p,
                    space_invariants, space_represents)
from .primes import factorint, isprime

REPRESENTABLE = "representable"
NOT_REPRESENTABLE = "not_representable"
UNDECIDED = "undecided"


@dataclass(frozen=True)
class LocalRepCertificate:
    place: Place
    status: str
    witness: IntMatrix | None = None
    precision: int | None = None  # exponent N; None for exact witnesses
    exact: bool = False
    divisor_valuations: tuple[int, ...] = ()
    margin: int | None = None
    method: str = "search"

    @property
    def representable(self) -> bool:
        return self.status == REPRESENTABLE

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "place": str(self.place),
            "status": self.status,
            "precision": self.precision,
            "exact": self.exact,
            "witness": None if self.witness is None else
                       [[str(x) for x in row] for row in self.witness.entries],
            "divisor_valuations": list(self.divisor_valuations),
            "margin": self.margin,
            "method": self.method,
        }


def _exact_certificate(place: Place, emb: Embedding, p: int | None) -> LocalRepCertificate:
    vals = tuple(ord_p(d, p) for d in emb.elementary_divisors) if p else ()
    return LocalRepCertificate(place=place, status=REPRESENTABLE, witness=emb.X,
                               precision=None, exact=True,
                               divisor_valuations=vals, method="exact")


def _smith_valuations(columns, p: int, k: int) -> tuple[int, ...]:
    """p-valuations of the Smith divisors of the matrix with these columns,
    capped at k; a zero divisor reads as k.

    Elimination over Z/p^k: the entry of least valuation v divides every
    other entry, so clearing its column by row operations and dropping its
    row and column leaves a block with the remaining Smith valuations, all
    >= v.  The result is therefore nondecreasing, like the divisors."""
    pk = p ** k
    rows = [[x % pk for x in col] for col in columns]  # X^t, same divisors
    vals = []
    while rows:
        best, where = k, None
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                if x:
                    v = 0
                    while x % p == 0:
                        x //= p
                        v += 1
                    if v < best:
                        best, where = v, (i, j)
        if where is None:
            break
        vals.append(best)
        i, j = where
        prow = rows.pop(i)
        pv = p ** best
        inv = pow(prow[j] // pv, -1, pk)
        for row in rows:
            if row[j]:
                f = (row[j] // pv) * inv % pk
                row[:] = [(x - f * y) % pk for x, y in zip(row, prow)]
            del row[j]
    return tuple(vals) + (k,) * (min(len(columns), len(columns[0])) - len(vals))


def _search_mod_pN(S: GramMatrix, T: GramMatrix, p: int, c: int, N: int,
                   margin_bound: int, node_budget: int):
    """Enumerate X mod p^N with X^t S X = T mod p^N column by column.

    Returns (certified_witness, witness_vals, any_filtered, budget_exceeded).
    A 'filtered' witness passes the elementary-divisor valuation bound;
    a certified one additionally passes the Hensel margin rule.
    Columns travel with their images S x, which every inner product reads.
    """
    n, m = S.n, T.n
    pN = p ** N
    ordc = ord_p(c, p) if c % p == 0 else 0
    budget = [node_budget]
    any_filtered = [False]
    srows = S.entries

    def srow(x):
        return [sum(map(mul, row, x)) for row in srows]

    def divisor_prune(prefix, y: list[int]) -> bool:
        """True when the prefix columns can still extend to a witness whose
        elementary divisors all have valuation <= ordc.  Decidable from the
        entries mod p^(ordc+1), since divisor valuations <= ordc are
        determined by the minors at that precision; divisors of a column
        subset divide those of the full matrix."""
        cols = [x for x, _ in prefix] + [y]
        return all(v <= ordc for v in _smith_valuations(cols, p, ordc + 1))

    def affine_solutions(rows, rhs):
        """All d in F_p^n with rows . d = rhs, as digit tuples."""
        k = len(rows)
        a = [list(r) + [b % p] for r, b in zip(rows, rhs)]
        piv_cols = []
        rank = 0
        for col in range(n):
            piv = next((i for i in range(rank, k) if a[i][col] % p), None)
            if piv is None:
                continue
            a[rank], a[piv] = a[piv], a[rank]
            inv = pow(a[rank][col], -1, p)
            a[rank] = [(v * inv) % p for v in a[rank]]
            for i in range(k):
                if i != rank and a[i][col] % p:
                    f = a[i][col]
                    a[i] = [(v - f * w) % p for v, w in zip(a[i], a[rank])]
            piv_cols.append(col)
            rank += 1
        if any(a[i][n] % p for i in range(rank, k)):
            return
        free = [c for c in range(n) if c not in piv_cols]
        for vals in product(range(p), repeat=len(free)):
            d = [0] * n
            for c, v in zip(free, vals):
                d[c] = v
            for r, c in enumerate(piv_cols):
                d[c] = (a[r][n] - sum(a[r][fc] * d[fc] for fc in free)) % p
            yield tuple(d)

    def column_solutions(prefix, k: int):
        """All (x, S x) with x mod p^N, Q(x) = T_kk and the prefix inner
        products mod p^N."""
        tkk = T.entries[k][k]
        lins = [(sx, T.entries[j][k]) for j, (_, sx) in enumerate(prefix)]

        def candidate_digits(level, x, sx, step, qmod):
            """Digit vectors at this level; for level >= 1 the constraints
            are affine-linear over F_p, so only the solution coset is
            enumerated (a superset of the valid digits; each candidate is
            re-checked exactly below)."""
            if level == 0:
                yield from product(range(p), repeat=n)
                return
            rows, rhs = [], []
            for scol, target in lins:
                r = sum(map(mul, scol, x)) - target
                rows.append([v % p for v in scol])
                rhs.append(-(r // step))
            # quadratic constraint: Q(x + step d) = Q(x) + 2 step (Sx . d)
            # + step^2 Q(d); at p = 2 the d_i^2 = d_i identity keeps the
            # step = 2 case linear as well
            rq = sum(map(mul, x, sx)) - tkk
            if p != 2:
                rows.append([(2 * v) % p for v in sx])
                rhs.append(-(rq // step))
            elif 2 * step < qmod or qmod == pN and 4 * step <= pN:
                coeff = [v % 2 for v in sx]
                if step == 2:
                    coeff = [(v + srows[i][i]) % 2 for i, v in enumerate(coeff)]
                rows.append(coeff)
                rhs.append(-(rq // (2 * step)))
            yield from affine_solutions(rows, rhs)

        def rec(level: int, x: list[int], sx: list[int]):
            if budget[0] <= 0:
                return
            if level == N:
                yield tuple(x), sx
                return
            step = p ** level
            mod = step * p
            # any completion of y to a mod-p^N witness changes Q(y) by a
            # multiple of 2 p^{level+1}, so at p = 2 the value is pinned one
            # level deeper than the entries
            qmod = min(mod * 2, pN) if p == 2 else mod
            for digits in candidate_digits(level, x, sx, step, qmod):
                budget[0] -= 1
                if budget[0] <= 0:
                    return
                y = [x[i] + digits[i] * step for i in range(n)]
                if any((sum(map(mul, scol, y)) - target) % mod
                       for scol, target in lins):
                    continue
                sy = srow(y)
                if (sum(map(mul, y, sy)) - tkk) % qmod:
                    continue
                if level == ordc and not divisor_prune(prefix, y):
                    continue
                yield from rec(level + 1, y, sy)

        yield from rec(0, [0] * n, [0] * n)

    certified = None
    certified_vals = ()

    def full_check(chosen) -> bool:
        nonlocal certified, certified_vals
        cols = [x for x, _ in chosen]
        vals = _smith_valuations(cols, p, N)
        if any(v > ordc for v in vals):
            return False
        any_filtered[0] = True
        dG = _det_bareiss([[sum(map(mul, x, sy)) for _, sy in chosen]
                           for x in cols])
        vd = ord_p(dG, p) if dG != 0 else N
        if vd <= margin_bound and 2 * vd < N:
            certified = IntMatrix.from_columns(cols)
            certified_vals = vals
            return True
        return False

    def columns(k: int, chosen) -> bool:
        if k == m:
            return full_check(chosen)
        for col in column_solutions(chosen, k):
            if columns(k + 1, chosen + [col]):
                return True
            if budget[0] <= 0:
                return False
        return False

    columns(0, [])
    return certified, certified_vals, any_filtered[0], budget[0] <= 0


def represents_over_Zp(S: GramMatrix, T: GramMatrix, p: int, c: int = 1,
                       precision: int | None = None,
                       node_budget: int = 2_000_000,
                       try_global: bool = True) -> LocalRepCertificate:
    """Decide existence of X over Z_p with X^t S X = T and all elementary
    divisors dividing c."""
    if not isprime(p):
        raise ValueError(f"{p} is not prime")
    check_imprimitivity_bound(c)
    if T.n > S.n:
        raise ValueError("target rank exceeds ambient rank")
    dS, dT = det(S), det(T)
    if dS == 0 or dT == 0:
        raise ValueError("forms must be nonsingular")
    place = Place.finite(p)

    if try_global and is_positive_definite(S) and is_positive_definite(T):
        embs = find_representations(S, T, c, limit=1)
        if embs:
            return _exact_certificate(place, embs[0], p)

    ordc = ord_p(c, p) if c % p == 0 else 0
    e = (1 if p == 2 else 0) + ord_p(dS, p) + ord_p(dT, p) + 2 * ordc
    margin_bound = ord_p(dT, p) + 2 * T.n * ordc
    N0 = precision if precision is not None else 2 * e + 1
    schedule = [N0] if precision is not None else [N0, 2 * N0]

    last_N = N0
    for N in schedule:
        last_N = N
        witness, vals, any_filtered, exhausted_budget = _search_mod_pN(
            S, T, p, c, N, margin_bound, node_budget)
        if witness is not None:
            return LocalRepCertificate(place=place, status=REPRESENTABLE,
                                       witness=witness, precision=N,
                                       divisor_valuations=vals,
                                       margin=margin_bound, method="search")
        if exhausted_budget:
            return LocalRepCertificate(place=place, status=UNDECIDED,
                                       precision=N, margin=margin_bound,
                                       method="budget")
        if not any_filtered:
            return LocalRepCertificate(place=place, status=NOT_REPRESENTABLE,
                                       precision=N, margin=margin_bound,
                                       method="search")
    return LocalRepCertificate(place=place, status=UNDECIDED, precision=last_N,
                               margin=margin_bound, method="search")


def _relevant_primes(S: GramMatrix, T: GramMatrix, c: int) -> list[int]:
    n = abs(c * det(S) * det(T))
    return sorted(factorint(n).keys() | {2})


def represents_locally_everywhere(S: GramMatrix, T: GramMatrix, c: int = 1
                                  ) -> dict[Place, LocalRepCertificate]:
    """Certificates at the real place and at every finite place where the
    answer is not forced by the unimodular-lattice criterion."""
    check_imprimitivity_bound(c)
    if not is_positive_definite(S) or not is_positive_definite(T):
        raise ValueError("both forms must be positive definite")
    if T.n > S.n:
        raise ValueError("target rank exceeds ambient rank")

    out: dict[Place, LocalRepCertificate] = {}
    out[REAL] = LocalRepCertificate(place=REAL, status=REPRESENTABLE,
                                    method="signature")

    global_embs = find_representations(S, T, c, limit=1)
    emb = global_embs[0] if global_embs else None

    for p in _relevant_primes(S, T, c):
        if emb is not None:
            out[Place.finite(p)] = _exact_certificate(Place.finite(p), emb, p)
        else:
            out[Place.finite(p)] = represents_over_Zp(S, T, p, c,
                                                      try_global=False)

    # outside the relevant set both lattices are unimodular at an odd prime;
    # for rank gap >= 1 that forces representability, for equal ranks the
    # determinant square classes must agree at p
    if T.n == S.n and emb is None:
        from .padic import squarefree_class
        q = squarefree_class(det(S) * det(T))
        if q != 1:
            invS, invT = space_invariants(S), space_invariants(T)
            checked = set(_relevant_primes(S, T, c))
            cand = 3
            while True:
                if cand not in checked and isprime(cand):
                    v = Place.finite(cand)
                    if not space_represents(invT, invS, v):
                        out[v] = LocalRepCertificate(
                            place=v, status=NOT_REPRESENTABLE,
                            method="unimodular")
                        break
                    checked.add(cand)
                if cand > 4 * abs(q) + 100:
                    break  # quotient is a square at every odd prime
                cand += 2
    return out


def complement_isotropic_at_q(S: GramMatrix, X: IntMatrix, q: int) -> bool:
    """Is the orthogonal complement of the witness's column span isotropic
    over Q_q?  By Witt cancellation the complement is fixed by S and
    T = X^t S X, so it is decided from their invariants."""
    if not isprime(q):
        raise ValueError(f"{q} is not prime")
    T = gram_of_columns(S, X)
    if det(T) == 0:
        raise ValueError("witness columns span a degenerate subspace")
    return complement_isotropic(space_invariants(S), T, Place.finite(q))


def auto_isotropy_shortcut(S: GramMatrix, T: GramMatrix, q: int) -> bool:
    """The isotropy condition holds automatically for m <= n-5, or, at odd
    q, when both discriminants are units at q and the rank gap is at least
    3.  At q = 2 unit discriminants do not suffice: the complement of
    diag(1) in I4 is I3, anisotropic over Q_2."""
    n, m = S.n, T.n
    if m <= n - 5:
        return True
    return (q != 2 and det(S) % q != 0 and det(T) % q != 0 and n - m >= 3)
