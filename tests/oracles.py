"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately naive: direct congruence searches and box
enumerations with no shared code paths with the package internals.
"""

from functools import lru_cache
from itertools import product


def classical_three_squares(t: int) -> bool:
    """t is a sum of three integer squares iff t != 4^a (8b + 7)."""
    while t % 4 == 0:
        t //= 4
    return t % 8 != 7


@lru_cache(maxsize=None)
def _squares_mod(m: int) -> frozenset:
    return frozenset((z * z) % m for z in range(m))


def hilbert_oracle(a: int, b: int, p: int) -> bool:
    """Solvability of z^2 = a x^2 + b y^2 with a nontrivial p-adic solution,
    by exhaustive search mod p^k with k comfortably above the valuations
    of a and b.

    A Z_p solution scaled primitive has x or y a unit: if both were
    divisible by p then z would be too, contradicting primitivity after
    dividing out.  So only pairs with x or y a unit need checking.
    """
    def vp(x):
        v = 0
        while x % p == 0:
            x //= p
            v += 1
        return v

    vmax = max(vp(abs(a)), vp(abs(b)))
    k = (2 * vmax + 7) if p == 2 else (2 * vmax + 3)
    m = p ** k
    squares = _squares_mod(m)
    for x in range(m):
        for y in range(m):
            if x % p == 0 and y % p == 0:
                continue
            if (a * x * x + b * y * y) % m in squares:
                return True
    return False


def box_vectors(entries, bound):
    """All nonzero x with |x_i| <= box and Q(x) <= bound, by direct search.

    The box radius per coordinate comes from the diagonal: Q(x) >= lambda_min
    estimates are avoided; instead use the crude bound |x_i| <= bound (safe
    for the small positive definite matrices these tests draw, where
    diagonal entries are >= 1)."""
    n = len(entries)
    # safe coordinate bound via the dual: x_i^2 <= bound * (S^{-1})_ii; keep
    # it simple and exact with Fractions
    from fractions import Fraction
    a = [[Fraction(entries[i][j]) for j in range(n)] for i in range(n)]
    inv = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(i for i in range(col, n) if a[i][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        f = a[col][col]
        a[col] = [x / f for x in a[col]]
        inv[col] = [x / f for x in inv[col]]
        for i in range(n):
            if i != col and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
                inv[i] = [x - f * y for x, y in zip(inv[i], inv[col])]
    from math import isqrt
    radii = []
    for i in range(n):
        r2 = bound * inv[i][i]
        radii.append(isqrt(r2.numerator // r2.denominator) + 1)

    out = []
    for xs in product(*[range(-r, r + 1) for r in radii]):
        if not any(xs):
            continue
        q = sum(entries[i][j] * xs[i] * xs[j] for i in range(n) for j in range(n))
        if q <= bound:
            out.append((xs, q))
    return out


def box_minimum(entries):
    diag_min = min(entries[i][i] for i in range(len(entries)))
    vecs = box_vectors(entries, diag_min)
    return min(q for _, q in vecs)


def box_vectors_of_norm(entries, t):
    """Canonical-sign vectors of exact norm t (first nonzero coordinate
    positive)."""
    out = set()
    for xs, q in box_vectors(entries, t):
        if q != t:
            continue
        lead = next(c for c in xs if c)
        if lead < 0:
            xs = tuple(-c for c in xs)
        out.add(xs)
    return sorted(out)


def local_rep_oracle(S_entries, T_entries, p: int, c: int, N: int,
                     pair_cap: int = 40_000_000):
    """Exhaustive search for X mod p^N with X^t S X = T mod p^N whose
    elementary divisors all divide c p-adically, together with the Hensel
    margin certificate; returns 'representable', 'not_representable' or
    'unknown' (solutions exist at this precision but none certified).

    Independent implementation: the full solution list of each diagonal
    congruence Q(x) = T_kk mod p^i is built by iterated lifting (every
    mod-p^N solution truncates to a mod-p^i solution, so filtering each
    level is complete), then columns are paired by brute force."""
    n = len(S_entries)
    m = len(T_entries)
    pN = p ** N

    # a priori size estimate: each column's solution list grows like
    # p^((n-1) * N); refuse instances that would be infeasible
    est = (p ** ((n - 1) * (N - 1) + n)) ** m
    if est > pair_cap:
        raise RuntimeError(f"oracle instance too large (~{est} nodes)")

    ordc = 0
    cc = c
    while cc % p == 0:
        cc //= p
        ordc += 1

    def vp_cap(x):
        if x % pN == 0:
            return N
        v = 0
        while x % p == 0:
            x //= p
            v += 1
        return v

    def sdot(x, y):
        return sum(S_entries[i][j] * x[i] * y[j]
                   for i in range(n) for j in range(n))

    def col_candidates(k):
        t = T_entries[k][k]
        level = [xs for xs in product(range(p), repeat=n)
                 if (sdot(xs, xs) - t) % p == 0]
        mod = p
        for _ in range(1, N):
            mod *= p
            step = mod // p
            nxt = []
            for xs in level:
                for digits in product(range(p), repeat=n):
                    ys = tuple(x + d * step for x, d in zip(xs, digits))
                    if (sdot(ys, ys) - t) % mod == 0:
                        nxt.append(ys)
            level = nxt
        return level

    dT = T_entries[0][0] if m == 1 else (
        T_entries[0][0] * T_entries[1][1] - T_entries[0][1] * T_entries[1][0])
    margin = (vp_cap(dT) if dT else N) + 2 * m * ordc

    def gram_det(cols):
        g = [[sdot(cols[i], cols[j]) for j in range(m)] for i in range(m)]
        if m == 1:
            return g[0][0]
        return g[0][0] * g[1][1] - g[0][1] * g[1][0]

    def divisor_vals(cols):
        from math import gcd
        mat = [[cols[j][i] for j in range(m)] for i in range(n)]
        g1 = 0
        for row in mat:
            for v in row:
                g1 = gcd(g1, v)
        vals = [vp_cap(g1) if g1 else N]
        if m == 2:
            g2 = 0
            for i in range(n):
                for j in range(i + 1, n):
                    minor = mat[i][0] * mat[j][1] - mat[i][1] * mat[j][0]
                    g2 = gcd(g2, minor)
            vals.append((vp_cap(g2) - vals[0]) if g2 else N)
        return vals

    cands = [col_candidates(k) for k in range(m)]
    work = 1
    for lst in cands:
        work *= max(len(lst), 1)
    if work > pair_cap:
        raise RuntimeError(f"oracle instance too large ({work} pairs)")

    found_any = False
    for cols in product(*cands):
        ok = all((sdot(cols[i], cols[j]) - T_entries[i][j]) % pN == 0
                 for i in range(m) for j in range(i + 1, m))
        if not ok:
            continue
        if any(v > ordc for v in divisor_vals(cols)):
            continue
        found_any = True
        dG = gram_det(cols)
        vd = vp_cap(dG) if dG else N
        if vd <= margin and 2 * vd < N:
            return "representable"
    return "unknown" if found_any else "not_representable"


def random_pos_def_entries(rand, n, spread=2, bump=2):
    """Entries of a random positive definite Gram matrix B^t B + diagonal."""
    while True:
        B = [[rand.randint(-spread, spread) for _ in range(n)]
             for _ in range(n)]
        G = [[sum(B[k][i] * B[k][j] for k in range(n)) for j in range(n)]
             for i in range(n)]
        for i in range(n):
            G[i][i] += rand.randint(1, bump)
        # leading principal minors positive <=> positive definite
        ok = True
        for k in range(1, n + 1):
            sub = [row[:k] for row in G[:k]]
            if _naive_det(sub) <= 0:
                ok = False
                break
        if ok:
            return G


def _naive_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * _naive_det(minor)
    return total


def draw_local_instance(rand):
    """(p, S_entries, T_entries, c, N) with determinant valuations small
    enough that local_rep_oracle stays desk-scale.  The package under test
    has no such restriction; the exhaustive oracle does (its lifting lists
    grow like p^((n-1)N) per column)."""
    def vp(x, p):
        v = 0
        while x % p == 0:
            x //= p
            v += 1
        return v

    while True:
        p = rand.choice([2, 3, 5])
        n = rand.randint(2, 4)
        m = rand.randint(1, min(2, n - 1))
        S = random_pos_def_entries(rand, n)
        T = random_pos_def_entries(rand, m)
        c = rand.choice([1, 1, 1, p])
        ordc = 1 if c == p else 0
        e = ((1 if p == 2 else 0) + vp(_naive_det(S), p)
             + vp(_naive_det(T), p) + 2 * ordc)
        N = 2 * e + 1
        if (p == 2 and N <= 7) or (p != 2 and N <= 5):
            est = (p ** ((n - 1) * (N + 1) + n)) ** m
            if est <= 4_000_000:
                return p, S, T, c, N


def fraction_gram_schmidt(entries):
    """Rational Gram-Schmidt data (mu, B*) of the basis with Gram `entries`,
    by the textbook recursion in Fractions."""
    from fractions import Fraction
    n = len(entries)
    mu = [[Fraction(0)] * n for _ in range(n)]
    norms = [Fraction(0)] * n
    for i in range(n):
        norms[i] = Fraction(entries[i][i]) - sum(mu[i][j] * mu[i][j] * norms[j]
                                                 for j in range(i))
        for k in range(i + 1, n):
            mu[k][i] = (entries[k][i] - sum(mu[k][j] * mu[i][j] * norms[j]
                                            for j in range(i))) / norms[i]
    return mu, norms


def _gram_of_basis(entries, basis):
    images = [[sum(a * b for a, b in zip(row, y)) for row in entries]
              for y in basis]
    return [[sum(a * b for a, b in zip(x, img)) for img in images]
            for x in basis]


def reference_lll(entries, delta):
    """(U^t S U, U) from the Fraction LLL that rebuilds the Gram-Schmidt data
    after every step; the same pivot schedule as the package's LLL, so the
    outputs must agree exactly.  U is returned as a list of rows."""
    from fractions import Fraction
    n = len(entries)
    basis = [[1 if i == j else 0 for i in range(n)] for j in range(n)]  # columns

    def gram_schmidt():
        return fraction_gram_schmidt(_gram_of_basis(entries, basis))

    mu, norms = gram_schmidt()
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = (mu[k][j] + Fraction(1, 2)).__floor__()
            if q:
                basis[k] = [x - q * y for x, y in zip(basis[k], basis[j])]
                mu, norms = gram_schmidt()
        if norms[k] >= (delta - mu[k][k - 1] * mu[k][k - 1]) * norms[k - 1]:
            k += 1
        else:
            basis[k], basis[k - 1] = basis[k - 1], basis[k]
            mu, norms = gram_schmidt()
            k = max(k - 1, 1)
    U = [[basis[j][i] for j in range(n)] for i in range(n)]
    return _gram_of_basis(entries, basis), U
