"""Independent reference code for the benchmark: the local-certificate
draw and the brute-force local oracle, copied from ``tests/oracles.py`` so
that a later edit to the test suite cannot change the benchmark's inputs,
plus the arithmetic oracles the workload checks use.  Nothing here imports
latrep.

``local_rep_oracle`` is kept a copy (only an import is hoisted), so that it
stays the oracle the test suite validates; its inner helpers (``vp_cap``, ``divisor_vals``)
therefore repeat ``vp`` and ``divisor_valuations`` below.  The draw gives
the same instances as the original.
"""

from itertools import combinations, product
from math import gcd


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
    while True:
        p = rand.choice([2, 3, 5])
        n = rand.randint(2, 4)
        m = rand.randint(1, min(2, n - 1))
        S = random_pos_def_entries(rand, n)
        T = random_pos_def_entries(rand, m)
        c = rand.choice([1, 1, 1, p])
        N = local_precision(p, S, T, c)
        if (p == 2 and N <= 7) or (p != 2 and N <= 5):
            est = (p ** ((n - 1) * (N + 1) + n)) ** m
            if est <= 4_000_000:
                return p, S, T, c, N


# ---------------------------------------------------------------------------
# arithmetic oracles used by the workload checks

def vp(x: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if x == 0:
        raise ValueError("valuation of zero")
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def gram(S, cols):
    """Gram matrix of the given column vectors under S, as nested lists."""
    n = len(S)
    return [[sum(x[i] * S[i][j] * y[j] for i in range(n) for j in range(n))
             for y in cols] for x in cols]


def divisor_valuations(cols, p: int) -> list[int]:
    """p-valuations of the elementary divisors of the matrix with these
    columns, from gcds of k x k minors (None where a divisor is 0)."""
    m = len(cols)
    rows = [[col[i] for col in cols] for i in range(len(cols[0]))]
    prev, out = 0, []
    for k in range(1, m + 1):
        g = 0
        for ri in combinations(range(len(rows)), k):
            for ci in combinations(range(m), k):
                g = gcd(g, _naive_det([[rows[r][c] for c in ci] for r in ri]))
        if g == 0:
            out.append(None)
            break
        v = vp(g, p)
        out.append(v - prev)
        prev = v
    return out


def local_precision(p, S, T, c) -> int:
    """First precision exponent N = 2 e + 1 of the mod-p^N search, where
    e = [p = 2] + v_p det S + v_p det T + 2 v_p(c)."""
    ordc = vp(c, p) if c % p == 0 else 0
    return 2 * ((1 if p == 2 else 0) + vp(_naive_det(S), p)
                + vp(_naive_det(T), p) + 2 * ordc) + 1


def local_witness_ok(p, S, T, c, status, witness, precision) -> bool:
    """Independent check of a representable certificate from
    ``represents_over_Zp``: X^t S X = T exactly or mod p^N, every
    elementary divisor of X within c p-adically, and the Hensel margin
    (v_p det(X^t S X) at most v_p det T + 2 m v_p(c), and below N/2)."""
    if status != "representable" or witness is None:
        return False
    m = len(T)
    cols = [tuple(row[j] for row in witness) for j in range(m)]
    G = gram(S, cols)
    ordc = vp(c, p) if c % p == 0 else 0
    vals = divisor_valuations(cols, p)
    if any(v is None or v > ordc for v in vals):
        return False
    if precision is None:
        return G == [list(r) for r in T]
    N0 = local_precision(p, S, T, c)
    if precision not in (N0, 2 * N0):
        return False
    pN = p ** precision
    if any((G[i][j] - T[i][j]) % pN for i in range(m) for j in range(m)):
        return False
    dG = _naive_det(G)
    vd = vp(dG, p) if dG else precision
    return vd <= vp(_naive_det(T), p) + 2 * m * ordc and 2 * vd < precision


def _mobius(d: int) -> int:
    out, q = 1, 2
    while q * q <= d:
        if d % (q * q) == 0:
            return 0
        if d % q == 0:
            d //= q
            out = -out
        q += 1
    return -out if d > 1 else out


def r4(t: int) -> int:
    """Jacobi: representations of t by x1^2 + x2^2 + x3^2 + x4^2."""
    return 8 * sum(d for d in range(1, t + 1) if t % d == 0 and d % 4)


def r4_primitive(t: int) -> int:
    """Primitive representations: sum over d^2 | t of mu(d) r4(t / d^2)."""
    return sum(_mobius(d) * r4(t // (d * d))
               for d in range(1, t + 1) if d * d <= t and t % (d * d) == 0)
