"""Lattice-level representability of T by S over Z_p with bounded
imprimitivity.

The decision procedure is a certified search modulo p^N, N = 2e + 1 with
e >= ord_p det T.  A witness of X^t S X = T mod p^N matches every entry,
so ord_p det(X^t S X) = ord_p det T <= e, and it lifts to Z_p by the
quadratic Hensel argument; exhaustion without an admissible witness
refutes representability (a Z_p solution would reduce to one).  A search
that runs out of its node budget is "undecided", never a boolean.

The search is one depth-first walk over the columns of X and, within a
column, over its p-adic digits; each candidate costs one node of the
budget, taken before it is checked.  The first digit runs over F_p^n in
product order: for each prefix, Q and the inner products with the earlier
columns are quadratic and linear in the last digit u, so each u costs a
few scalar operations.  Past the first digit the next one solves an affine
system over F_p, and each solution is re-checked exactly; one equation,
all a rank-1 target has, is solved through its first unit coefficient.

For a rank-1 target past the divisor prune (and past the second digit at
p = 2) that equation keeps its pivot, the first unit entry i of S x, and
the first candidate of every remaining level passes: the digits are
forced.  They are found in one Newton lift, the root delta = 0 mod
p^level of Q(x + delta e_i) = t mod p^N (at p = 2 of its half mod
2^(N-1), since the walk's last digit is 0 there), which Hensel's lemma
makes unique.  The lift charges the one node per level the walk would
spend, so the witness and the least budget that decides are the walk's.

The imprimitivity bound needs only the p-valuations of the Smith divisors
of X.  Those up to ord_p(c) are fixed by X mod p^k, k = ord_p(c) + 1 (the
Smith form over Z/p^k), where the walk reads them for every column prefix:
for one column as the least valuation of its entries, otherwise by
elimination with a pivot of least valuation.  The last column's prune thus
gives the witness's valuations, and no integer Smith normal form is
computed on this path.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import gcd
from operator import mul

from .enumeration import (Embedding, check_imprimitivity_bound,
                          find_representations)
from .matrices import GramMatrix, IntMatrix, det, is_positive_definite
from .padic import (Place, REAL, is_local_square, legendre, ord_p,
                    squarefree_class)
from .primes import factorint, isprime

REPRESENTABLE = "representable"
NOT_REPRESENTABLE = "not_representable"
UNDECIDED = "undecided"

# Default number of candidates one mod-p^N search may test.
NODE_BUDGET = 2_000_000


@dataclass(frozen=True, slots=True)
class LocalRepCertificate:
    place: Place
    status: str
    witness: IntMatrix | None = None
    precision: int | None = None  # exponent N of the search; None without one
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

    One column has one divisor, its content: the least valuation of its
    entries.  Otherwise elimination over Z/p^k: the entry of least
    valuation v divides every other entry, so clearing its column by row
    operations and dropping its row and column leaves a block with the
    remaining Smith valuations, all >= v.  The result is therefore
    nondecreasing, like the divisors."""
    pk = p ** k
    if len(columns) == 1:
        return (ord_p(gcd(pk, *columns[0]), p),)
    rows = [[x % pk for x in col] for col in columns]  # X^t, same divisors
    vals = []
    while rows:
        best, where = k, None
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                if x and (v := ord_p(x, p)) < best:
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


def _affine_solutions(eqs, p: int, n: int):
    """All digit vectors d in F_p^n with row . d = b for every (row, b) in
    eqs, rows reduced mod p: Gauss-Jordan pivots, the free digits in
    product order.  One equation is solved through its first unit
    coefficient, which is the pivot Gauss-Jordan would pick; a zero row
    takes the general path."""
    if len(eqs) == 1:
        row, b = eqs[0]
        for piv, a in enumerate(row):
            if a:
                inv = pow(a, -1, p)
                coeffs = row[:piv] + row[piv + 1:]
                for free in product(range(p), repeat=n - 1):
                    d = list(free)
                    d.insert(piv, (b - sum(map(mul, coeffs, free))) * inv % p)
                    yield d
                return
    a = [list(r) + [b % p] for r, b in eqs]
    piv_cols = []
    for col in range(n):
        rank = len(piv_cols)
        piv = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][col], -1, p)
        a[rank] = [(v * inv) % p for v in a[rank]]
        for i in range(len(a)):
            if i != rank and a[i][col]:
                f = a[i][col]
                a[i] = [(v - f * w) % p for v, w in zip(a[i], a[rank])]
        piv_cols.append(col)
    if any(r[n] for r in a[len(piv_cols):]):
        return
    free = [j for j in range(n) if j not in piv_cols]
    for vals in product(range(p), repeat=len(free)):
        d = [0] * n
        for j, v in zip(free, vals):
            d[j] = v
        for r, j in zip(a, piv_cols):
            d[j] = (r[n] - sum(r[f] * d[f] for f in free)) % p
        yield d


def _search_mod_pN(S: GramMatrix, T: GramMatrix, p: int, ordc: int, N: int,
                   node_budget: int):
    """Find X mod p^N with X^t S X = T mod p^N in one depth-first walk,
    column by column and p-adic digit by digit.

    Returns (witness, witness_vals, budget_exceeded): the first X whose
    Smith divisors have p-valuations at most ordc, or None.
    Columns travel with their images S x, which every inner product reads.
    """
    srows, trows = S.entries, T.entries
    n, m = len(srows), len(trows)
    pN = p ** N
    cols, images = [], []  # the finished columns and their images S x
    budget = node_budget
    vals = ()
    # the level from which a rank-1 target's remaining digits are forced
    # (see the module docstring); None where fewer than two would be
    lift = max(ordc + 1, 2 if p == 2 else 1)
    if m != 1 or lift > N - 2:
        lift = None

    def first_digits(lins, tkk, qmod):
        """The level-0 candidates y, digit vectors in product order, that
        pass the checks mod p and mod qmod, with their images S y; one node
        each.  For a prefix w (last digit 0), Q(w + u e) and the inner
        products are quadratic and linear in the last digit u, so each u
        costs a few scalar operations."""
        nonlocal budget
        last = srows[-1]  # S e for the last unit vector e
        sll = last[-1]
        ends = [sy[-1] for sy, _ in lins]
        for w in product(range(p), repeat=n - 1):
            sw = [sum(map(mul, row, w)) for row in srows]
            qw = sum(map(mul, w, sw)) - tkk
            lw = [sum(map(mul, sy, w)) - t for sy, t in lins]
            b = 2 * sw[-1]
            for u in range(p):
                budget -= 1
                if budget <= 0:
                    return
                if (qw + (b + sll * u) * u) % qmod or any(
                        (v + u * e) % p for v, e in zip(lw, ends)):
                    continue
                yield [*w, u], [a + u * s for a, s in zip(sw, last)]

    def next_digits(x, sx, step, mod, lins, tkk, qmod):
        """The candidates y = x + p^level d for the digit vectors d that
        solve the affine system over F_p the constraints reduce to (a
        superset of the valid digits, so each is re-checked exactly); one
        node each."""
        nonlocal budget
        eqs = [([v % p for v in sy], -((sum(map(mul, sy, x)) - t) // step))
               for sy, t in lins]
        # quadratic constraint: Q(x + step d) = Q(x) + 2 step (Sx . d)
        # + step^2 Q(d); at p = 2 the d_i^2 = d_i identity keeps the
        # step = 2 case linear as well
        rq = sum(map(mul, x, sx)) - tkk
        if p != 2:
            eqs.append(([2 * v % p for v in sx], -(rq // step)))
        elif 2 * step < pN:  # at the last level any digit keeps Q
            coeff = [v % 2 for v in sx]
            if step == 2:
                coeff = [(v + srows[i][i]) % 2 for i, v in enumerate(coeff)]
            eqs.append((coeff, -(rq // (2 * step))))
        for d in _affine_solutions(eqs, p, n):
            budget -= 1
            if budget <= 0:
                return
            y = [a + step * b for a, b in zip(x, d)]
            if any((sum(map(mul, sy, y)) - t) % mod for sy, t in lins):
                continue
            sy = [sum(map(mul, row, y)) for row in srows]
            if (sum(map(mul, y, sy)) - tkk) % qmod:
                continue
            yield y, sy

    def walk(k: int, level: int, x: list[int], sx: list[int]) -> bool:
        """Extend column k, fixed mod p^level, and the columns after it to
        a witness; True as soon as one is found."""
        nonlocal budget, vals
        if level == N:
            cols.append(x)
            images.append(sx)
            if k + 1 == m or walk(k + 1, 0, [0] * n, [0] * n):
                return True
            cols.pop()
            images.pop()
            return False
        tkk = trows[k][k]
        if level == lift:
            i = next((i for i, v in enumerate(sx) if v % p), None)
            if i is not None:
                # the remaining digits are forced (see the module
                # docstring), one node each: a budget that cannot pay for
                # them runs out on the walk's path as it would level by
                # level; otherwise Newton's iteration for the root delta of
                # Q(x + delta e_i) - t mod p^N, or of its half mod 2^(N-1)
                if budget <= N - level:
                    budget = 0
                    return False
                budget -= N - level
                half = 2 if p == 2 else 1
                M = pN // half
                a, b, sii = sum(map(mul, x, sx)) - tkk, 2 * sx[i], srows[i][i]
                delta = 0
                while f := (a + (b + sii * delta) * delta) // half % M:
                    delta = (delta - f * pow((b + 2 * sii * delta) // half,
                                             -1, M)) % M
                x = list(x)
                x[i] += delta
                cols.append(x)
                return True
        # any completion of y to a mod-p^N witness changes Q(y) by a
        # multiple of 2 p^{level+1}, so at p = 2 the value is pinned one
        # level deeper than the entries
        step = p ** level
        mod = step * p
        qmod = min(mod * 2, pN) if p == 2 else mod
        lins = list(zip(images, trows[k]))  # (S x_j, T_jk) for j < k
        for y, sy in (first_digits(lins, tkk, qmod) if level == 0 else
                      next_digits(x, sx, step, mod, lins, tkk, qmod)):
            if level == ordc:
                # divisor valuations <= ordc are determined mod p^(ordc+1),
                # and those of a column subset divide those of the whole
                # matrix; at the last column these are the witness's
                v = _smith_valuations(cols + [y], p, ordc + 1)
                if max(v) > ordc:
                    continue
                vals = v
            if walk(k, level + 1, y, sy):
                return True
            if budget <= 0:
                return False
        return False

    if walk(0, 0, [0] * n, [0] * n):
        return IntMatrix(list(zip(*cols))), vals, False
    return None, (), budget <= 0


def represents_over_Zp(S: GramMatrix, T: GramMatrix, p: int, c: int = 1,
                       node_budget: int = NODE_BUDGET,
                       try_global: bool = True) -> LocalRepCertificate:
    """Decide existence of X over Z_p with X^t S X = T and all elementary
    divisors dividing c.  Equal ranks are refuted first when det(X)^2 det S
    = det T has no solution with ord_p det X <= n ord_p(c)."""
    if not isprime(p):
        raise ValueError(f"{p} is not prime")
    check_imprimitivity_bound(c)
    n, m = S.n, T.n
    if m > n:
        raise ValueError("target rank exceeds ambient rank")
    dS, dT = det(S), det(T)
    if dS == 0 or dT == 0:
        raise ValueError("forms must be nonsingular")
    place = Place.finite(p)
    ordc = ord_p(c, p) if c % p == 0 else 0
    vS, vT = ord_p(dS, p), ord_p(dT, p)

    if m == n:
        gap = vT - vS
        if (gap % 2 or not 0 <= gap <= 2 * n * ordc
                or not is_local_square(dS * dT, place)):  # dT/dS, up to squares
            return LocalRepCertificate(place=place, status=NOT_REPRESENTABLE,
                                       method="determinant")

    if try_global and is_positive_definite(S) and is_positive_definite(T):
        embs = find_representations(S, T, c, limit=1)
        if embs:
            return _exact_certificate(place, embs[0], p)

    e = (1 if p == 2 else 0) + vS + vT + 2 * ordc
    margin = vT + 2 * m * ordc
    N = 2 * e + 1
    witness, vals, exhausted_budget = _search_mod_pN(S, T, p, ordc, N,
                                                     node_budget)
    if witness is not None:
        return LocalRepCertificate(place=place, status=REPRESENTABLE,
                                   witness=witness, precision=N,
                                   divisor_valuations=vals, margin=margin,
                                   method="search")
    if exhausted_budget:
        return LocalRepCertificate(place=place, status=UNDECIDED, precision=N,
                                   margin=margin, method="budget")
    return LocalRepCertificate(place=place, status=NOT_REPRESENTABLE,
                               precision=N, margin=margin, method="search")


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

    primes = _relevant_primes(S, T, c)
    for p in primes:
        if emb is not None:
            out[Place.finite(p)] = _exact_certificate(Place.finite(p), emb, p)
        else:
            out[Place.finite(p)] = represents_over_Zp(S, T, p, c,
                                                      try_global=False)

    # outside the relevant set both lattices are unimodular at an odd prime
    # l; for rank gap >= 1 that forces representability, for equal ranks
    # the determinant square classes must agree at l, so det S det T must
    # be a square mod l
    if T.n == S.n and emb is None:
        q = squarefree_class(det(S) * det(T))
        if q != 1:
            for cand in range(3, 4 * abs(q) + 102, 2):
                if (cand not in primes and isprime(cand)
                        and legendre(q, cand) == -1):
                    v = Place.finite(cand)
                    out[v] = LocalRepCertificate(
                        place=v, status=NOT_REPRESENTABLE, method="unimodular")
                    break
    return out


def auto_isotropy_shortcut(S: GramMatrix, T: GramMatrix, q: int) -> bool:
    """The isotropy condition holds automatically for m <= n-5, or, at odd
    q, when both discriminants are units at q and the rank gap is at least
    3.  At q = 2 unit discriminants do not suffice: the complement of
    diag(1) in I4 is I3, anisotropic over Q_2."""
    n, m = S.n, T.n
    if m <= n - 5:
        return True
    return (q != 2 and det(S) % q != 0 and det(T) % q != 0 and n - m >= 3)
