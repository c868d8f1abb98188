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


def hilbert_oracle(a: int, b: int, p: int, k: int | None = None) -> bool:
    """Solvability of z^2 = a x^2 + b y^2 with a nontrivial p-adic solution,
    by exhaustive search mod p^k.  By default even powers of p are first
    removed from a and b, which keeps their square classes and so the
    answer, and k is comfortably above the valuations left (at most 1);
    `hilbert_class_oracle` passes the smaller k its Hensel argument needs.

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

    if k is None:
        while a % (p * p) == 0:
            a //= p * p
        while b % (p * p) == 0:
            b //= p * p
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


def _class_rep(a: int, p: int) -> int:
    """p^(v mod 2) * (u mod 8 or mod p) for a = p^v u: the same square class
    in Q_p as a, with valuation at most 1 and a small unit part."""
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return p ** (v % 2) * (a % (8 if p == 2 else p))


@lru_cache(maxsize=None)
def _hilbert_of_reps(a: int, b: int, p: int) -> bool:
    # For valuations at most 1, a primitive solution mod p^k lifts to Z_p
    # (Hensel) once k > 2 v(dF) for one of the partials dF = 2ax, 2by, 2z:
    # v = 0 (odd p) or 1 (p = 2) when z, or x with v(a) = 0, or y with
    # v(b) = 0, is a unit.  Otherwise v(a) = v(b) = 1 and z is not a unit;
    # a unit x (or y) then gives v = 1 at odd p, and at p = 2 both x and y
    # are units, v = 2.  Any other primitive solution is impossible mod p^2
    # or mod 4.
    return hilbert_oracle(a, b, p, k=5 if p == 2 else 3)


def hilbert_class_oracle(a: int, b: int, p: int) -> bool:
    """hilbert_oracle on the square-class representatives of the nonzero
    integers a and b, so that the search stays small."""
    return _hilbert_of_reps(_class_rep(a, p), _class_rep(b, p), p)


def _square_class_reps(p: int) -> list[int]:
    if p == 2:
        return [1, 3, 5, 7, 2, 6, 10, 14]
    residues = {x * x % p for x in range(1, p)}
    nr = next(x for x in range(2, p) if x not in residues)
    return [1, nr, p, nr * p]


def isotropic_diagonal_oracle(d, p: int) -> bool:
    """Is sum d_i x_i^2 (nonzero integers d_i) isotropic over Q_p?  Decided
    from Hilbert symbols alone:
    - rank 2: -d1 d2 is a square, i.e. (-d1 d2, t)_p = 1 for every t;
    - rank 3: z^2 = (-d1/d3) x^2 + (-d2/d3) y^2 is solvable;
    - rank 4: <d1, d2> and <-d3, -d4> represent a common class t, where
      <a, b> represents t iff <a, b, -t> is isotropic;
    - rank >= 5: always (Serre, A Course in Arithmetic, IV.2.2, Thm 6)."""
    n = len(d)
    reps = _square_class_reps(p)

    def h(a, b):
        return hilbert_class_oracle(a, b, p)

    if n <= 1:
        return False
    if n == 2:
        return all(h(-d[0] * d[1], t) for t in reps)
    if n == 3:
        return h(-d[0] * d[2], -d[1] * d[2])
    if n == 4:
        return any(h(d[0] * t, d[1] * t) and h(-d[2] * t, -d[3] * t)
                   for t in reps)
    return True


def complement_isotropic_oracle(S_entries, X_entries, q: int) -> bool:
    """Is the orthogonal complement of the column span of X in S (both
    integer lists, X^t S X nonsingular) isotropic over Q_q?  The witness
    route, on plain lists: an integer kernel basis of X^t S, the Gram of
    that basis diagonalised in Fractions, and the isotropy of the diagonal
    form from Hilbert symbols computed by search."""
    from fractions import Fraction
    from math import lcm
    n, m = len(S_entries), len(X_entries[0])
    rows = [[Fraction(sum(X_entries[i][c] * S_entries[i][j] for i in range(n)))
             for j in range(n)] for c in range(m)]
    pivots = []
    for col in range(n):  # reduced row echelon form
        r = len(pivots)
        piv = next((i for i in range(r, m) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
    kernel = []
    for free in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for r, col in enumerate(pivots):
            v[col] = -rows[r][free]
        scale = lcm(*(x.denominator for x in v))
        kernel.append([int(x * scale) for x in v])
    g = [[sum(u[i] * S_entries[i][j] * w[j] for i in range(n) for j in range(n))
          for w in kernel] for u in kernel]
    diag = [x.numerator * x.denominator for x in fraction_diagonal_oracle(g)]
    return isotropic_diagonal_oracle(diag, q)


def fraction_diagonal_oracle(entries):
    """Rational d with P^t S P = diag(d) for some invertible rational P: the
    congruence diagonalisation in Fractions on plain lists (S symmetric and
    nonsingular).  A zero pivot is swapped for a later nonzero diagonal
    entry, or, when all of those vanish, made 2 B(x_i, x_j) by
    x_i <- x_i + x_j."""
    from fractions import Fraction
    g = [[Fraction(x) for x in row] for row in entries]
    k = len(g)
    diag = []
    for i in range(k):
        if g[i][i] == 0:
            j = next((j for j in range(i + 1, k) if g[j][j] != 0), None)
            if j is None:
                j = next(j for j in range(i + 1, k) if g[i][j] != 0)
                for r in range(k):
                    g[r][i] += g[r][j]
                g[i] = [x + y for x, y in zip(g[i], g[j])]
            else:
                g[i], g[j] = g[j], g[i]
                for r in g:
                    r[i], r[j] = r[j], r[i]
        for j in range(i + 1, k):
            f = g[j][i] / g[i][i]
            if f:
                g[j] = [x - f * y for x, y in zip(g[j], g[i])]
                for r in g:
                    r[j] -= f * r[i]
        diag.append(g[i][i])
    return diag


def fraction_jordan_oracle(entries, p):
    """p-adic Jordan splitting of a nonsingular symmetric integer matrix, in
    Fractions on plain lists: [(scale, rank, unit_block, even)], the unit
    block reduced mod p^(ord_p det + 3) and even None at odd p.

    Pivot on an entry of least valuation, the first diagonal one when there
    is one; otherwise x_i <- x_i + x_j at odd p, or an even 2x2 block on the
    first such (i, j) at p = 2.  Each pivot block is divided by p^scale and
    the blocks of one scale are put side by side."""
    from fractions import Fraction
    n = len(entries)
    a = [[Fraction(x) for x in row] for row in entries]

    def val(x):
        if x == 0:
            return None
        v, num, den = 0, x.numerator, x.denominator
        while num % p == 0:
            num //= p
            v += 1
        while den % p == 0:
            den //= p
            v -= 1
        return v

    def sub(k, coeffs):  # x_k <- x_k - sum f x_i, on rows and columns
        for i, f in coeffs:
            a[k] = [x - f * y for x, y in zip(a[k], a[i])]
        for i, f in coeffs:
            for row in a:
                row[k] -= f * row[i]

    active = list(range(n))
    pieces = []
    while active:
        cells = [(i, j) for i in active for j in active if val(a[i][j]) is not None]
        least = min(val(a[i][j]) for i, j in cells)
        k = next((k for k in active if val(a[k][k]) == least), None)
        i, j = next((i, j) for i, j in cells if val(a[i][j]) == least)
        if k is None and p != 2:
            a[i] = [x + y for x, y in zip(a[i], a[j])]
            for row in a:
                row[i] += row[j]
            k = i
        if k is not None:
            active.remove(k)
            for r in active:
                sub(r, [(k, a[r][k] / a[k][k])])
            pieces.append((least, [[a[k][k]]]))
        else:
            active.remove(i)
            active.remove(j)
            dd = a[i][i] * a[j][j] - a[i][j] ** 2
            for r in active:
                ri, rj = a[r][i], a[r][j]
                sub(r, [(i, (ri * a[j][j] - rj * a[i][j]) / dd),
                        (j, (rj * a[i][i] - ri * a[i][j]) / dd)])
            pieces.append((least, [[a[i][i], a[i][j]], [a[j][i], a[j][j]]]))
    d = _naive_det(entries)
    modulus = p ** (val(Fraction(d)) + 3)
    out = []
    for scale in sorted({s for s, _ in pieces}):
        blocks = [b for s, b in pieces if s == scale]
        size = sum(len(b) for b in blocks)
        g = [[0] * size for _ in range(size)]
        off = 0
        for b in blocks:
            for r in range(len(b)):
                for c in range(len(b)):
                    x = b[r][c] / Fraction(p) ** scale
                    g[off + r][off + c] = (x.numerator * pow(x.denominator, -1, modulus)
                                           % modulus)
            off += len(b)
        even = all(g[r][r] % 2 == 0 for r in range(size)) if p == 2 else None
        out.append((scale, size, g, even))
    return out


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


def automorphism_count_oracle(entries):
    """|Aut| of a positive definite Gram matrix, by counting every leaf of
    an exhaustive search for images w_0..w_{n-1} of the basis vectors with
    w_i^t S w_j = S_ij.  Each leaf W has W^t S W = S, so det W = +-1 and W
    is an automorphism; each automorphism is one leaf."""
    n = len(entries)

    def inner(x, y):
        return sum(x[i] * entries[i][j] * y[j]
                   for i in range(n) for j in range(n))

    candidates = []
    for i in range(n):
        vecs = box_vectors_of_norm(entries, entries[i][i])
        candidates.append(vecs + [tuple(-c for c in v) for v in vecs])
    chosen = []

    def count(i):
        if i == n:
            return 1
        total = 0
        for v in candidates[i]:
            if all(inner(chosen[j], v) == entries[j][i] for j in range(i)):
                chosen.append(v)
                total += count(i + 1)
                chosen.pop()
        return total

    return count(0)


def genus_closure_oracle(S, primes):
    """The classes reached from S by p-neighbor steps at each prime in turn:
    a plain breadth-first closure on the public p_neighbors and
    is_isometric, with no mass and no class cap, in the order in which the
    classes are first met."""
    from latrep import is_isometric, p_neighbors
    classes = [S]
    for p in primes:
        i = 0
        while i < len(classes):
            for nb in p_neighbors(classes[i], p):
                if all(is_isometric(nb, c) is None for c in classes):
                    classes.append(nb)
            i += 1
    return classes


def local_rep_oracle(S_entries, T_entries, p: int, c: int, N: int,
                     pair_cap: int = 40_000_000):
    """Exhaustive search for X mod p^N with X^t S X = T mod p^N whose
    elementary divisors all divide c p-adically, together with the Hensel
    margin certificate; returns 'representable', 'not_representable' or
    'unknown' (solutions exist at this precision but none certified).

    Independent implementation: the solutions of each diagonal congruence
    Q(x) = T_kk mod p^N are walked depth first through the lifting tree of
    Q(x) = T_kk mod p^i (every mod-p^N solution truncates to a mod-p^i
    solution, so filtering each level is complete), and the columns are
    paired by brute force.  The walk stops at the first certified tuple;
    the verdict does not depend on the order of the walk."""
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

    def col_solutions(k):
        t = T_entries[k][k]

        def lift(xs, mod):  # xs solves Q(x) = t mod `mod`
            if mod == pN:
                yield xs
                return
            step, mod = mod, mod * p
            for digits in product(range(p), repeat=n):
                ys = tuple(x + d * step for x, d in zip(xs, digits))
                if (sdot(ys, ys) - t) % mod == 0:
                    yield from lift(ys, mod)

        for xs in product(range(p), repeat=n):
            if (sdot(xs, xs) - t) % p == 0:
                yield from lift(xs, p)

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

    found_any = False
    visited = 0

    def search(cols) -> bool:
        """True at the first certified tuple extending cols."""
        nonlocal found_any, visited
        k = len(cols)
        if k == m:
            if any(v > ordc for v in divisor_vals(cols)):
                return False
            found_any = True
            dG = gram_det(cols)
            vd = vp_cap(dG) if dG else N
            return vd <= margin and 2 * vd < N
        for col in col_solutions(k):
            visited += 1
            if visited > pair_cap:
                raise RuntimeError(f"oracle instance too large (>{pair_cap} columns)")
            if all((sdot(cols[i], col) - T_entries[i][k]) % pN == 0
                   for i in range(k)) and search(cols + [col]):
                return True
        return False

    if search([]):
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
            if fraction_det(sub) <= 0:
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


def draw_local_instance(rand, rank=None, extra=2, cap=4_000_000):
    """(p, S_entries, T_entries, c, N) with determinant valuations small
    enough that local_rep_oracle stays desk-scale.  The package under test
    has no such restriction; the exhaustive oracle does (its lifting lists
    grow like p^((n-1)N) per column).

    The target rank m is drawn from 1..min(2, n-1) unless `rank` fixes it;
    a draw is kept when the oracle's a-priori size estimate at precision
    N + extra is at most `cap`."""
    def vp(x, p):
        v = 0
        while x % p == 0:
            x //= p
            v += 1
        return v

    while True:
        p = rand.choice([2, 3, 5])
        n = rand.randint(2, 4)
        m = rank or rand.randint(1, min(2, n - 1))
        S = random_pos_def_entries(rand, n)
        T = random_pos_def_entries(rand, m)
        c = rand.choice([1, 1, 1, p])
        ordc = 1 if c == p else 0
        e = ((1 if p == 2 else 0) + vp(_naive_det(S), p)
             + vp(_naive_det(T), p) + 2 * ordc)
        N = 2 * e + 1
        if (p == 2 and N <= 7) or (p != 2 and N <= 5):
            est = (p ** ((n - 1) * (N + extra - 1) + n)) ** m
            if est <= cap:
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


def filtered_representations_oracle(S, T, c, limit=None):
    """The filter-after-build reference for `find_representations`: every X
    of the unfiltered column search, an Embedding built for each, kept
    when its imprimitivity bound divides c.  It shares the column search
    with the package on purpose, to check the divisor bound inside it."""
    from latrep.enumeration import Embedding, _column_search

    out = []
    for X in _column_search(S, T):
        emb = Embedding.build(S, T, X)
        if c % emb.imprimitivity_bound == 0:
            out.append(emb)
            if limit is not None and len(out) >= limit:
                break
    return out


def fraction_det(rows):
    """Determinant of a square integer matrix by Gaussian elimination in
    Fractions."""
    from fractions import Fraction
    a = [[Fraction(x) for x in row] for row in rows]
    n, out = len(a), Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            out = -out
        out *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return int(out)


def diagonal_invariants(diag):
    """The space invariants of the rational diagonal form diag(diag), by
    the package's space_invariants on the integer diagonal form whose
    entries u v, for each entry u / v, lie in the same square classes."""
    from fractions import Fraction
    from latrep import GramMatrix, space_invariants
    ints = [Fraction(a).numerator * Fraction(a).denominator for a in diag]
    return space_invariants(GramMatrix.diagonal(ints))


# mass_oracle: the Conway-Sloane mass as latrep.mass computed it in
# Fractions, frozen as a reference for the integer rewrite


def mass_oracle(n, d, splits, max_conductor=100_000):
    """The mass of a genus of rank n and determinant d > 0 from its Jordan
    splittings at every prime of 2d, every factor a Fraction; None when
    the conductor of the character sum exceeds max_conductor."""
    from fractions import Fraction
    from math import factorial, isqrt, prod
    from latrep.padic import ord_p
    if n == 1:
        return Fraction(1, 2)
    s = (n + 1) // 2
    D = (-1) ** s * d if n % 2 == 0 else 0
    primes = [split.prime.p for split in splits]
    B = _fraction_bernoulli(n)
    q, pi2, root = Fraction(2), -n * (n + 1) // 2, 1
    for j in range(1, n + 1):
        if j % 2 == 0:
            q *= factorial(j // 2 - 1)
        else:
            q *= Fraction(factorial(j - 1), 4 ** (j // 2) * factorial(j // 2))
            pi2 += 1
    for k in range(1, s):
        q *= (-1) ** (k + 1) * B[2 * k] * Fraction(4 ** k, 2 * factorial(2 * k))
        pi2 += 4 * k
    if D:
        core = (-1 if D < 0 else 1) * prod(p for p in primes
                                           if d % p == 0 and ord_p(d, p) % 2)
        D0 = core if core % 4 == 1 else 4 * core
        f = abs(D0)
        if f > max_conductor:
            return None
        q *= ((-1) ** (1 + (s - (D0 < 0)) // 2) * Fraction(2 ** s, 2 * f ** s)
              * _fraction_bernoulli_chi(s, D0, B) / factorial(s))
        root *= f
        pi2 += 2 * s
        for p in primes:
            if p == 2 or d % p == 0:
                q *= ((1 - Fraction(_oracle_kronecker(D0, p), p ** s))
                      / (1 - Fraction(_oracle_kronecker(D, p), p ** s)))
    for split in splits:
        p = split.prime.p
        m_p, cross = _fraction_local_mass(split)
        q *= m_p / _fraction_M(p, n, _oracle_kronecker(D, p)) * p ** (cross // 2)
        root *= p ** (cross % 2)
    r = isqrt(root)
    assert pi2 == 0 and r * r == root and q > 0
    return q * r


def _fraction_M(p, dim, sign):
    from fractions import Fraction
    from math import prod
    if dim == 0:
        return Fraction(1)
    k = (dim + 1) // 2
    out = 2 * prod((1 - Fraction(1, p ** (2 * i)) for i in range(1, k)),
                   start=Fraction(1))
    if dim % 2 == 0:
        out *= 1 - Fraction(sign, p ** k)
    return 1 / out


def _fraction_local_mass(split):
    from fractions import Fraction
    from itertools import combinations
    from math import prod
    from latrep.matrices import det
    p = split.prime.p
    comps = split.components
    cross = sum((b.scale - a.scale) * a.rank * b.rank
                for a, b in combinations(comps, 2))
    if p != 2:
        return prod((_fraction_M(p, c.rank, _oracle_kronecker(
            (-1) ** (c.rank // 2) * det(c.unit_block), p)) for c in comps),
            start=Fraction(1)), cross
    by_scale = {c.scale: c for c in comps}
    odd = {c.scale for c in comps if not c.even}
    m = Fraction(2) ** (sum(k + 1 in odd for k in odd)
                        - sum(c.rank for c in comps if c.even))
    for k in range(comps[0].scale - 1, comps[-1].scale + 2):
        c = by_scale.get(k)
        dim = c.rank if c else 0
        if k - 1 in odd or k + 1 in odd:
            t = dim - (k in odd)
            m *= _fraction_M(2, t if t % 2 else t + 1, 0)
            continue
        u = det(c.unit_block) if c else 1
        eps = 1 if u % 8 in (1, 7) else -1
        if k not in odd:
            m *= _fraction_M(2, dim, eps)
            continue
        octane = (_oracle_oddity(c.unit_block) + 2 - 2 * eps) % 8
        if octane in (2, 6):
            m *= _fraction_M(2, dim - 1, 0)
        elif dim % 2:
            m *= _fraction_M(2, dim - 1, 1 if octane in (1, 7) else -1)
        else:
            m *= _fraction_M(2, dim - 2, 1 if octane == 0 else -1)
    return m, cross


def _oracle_oddity(u):
    from latrep.matrices import det
    from latrep.padic import Place, _diagonal, hasse_invariant
    d = det(u)
    a = d % 4 == 3
    k = a + 2 * (hasse_invariant(_diagonal(u), Place(2)) == -1)
    j = (a + (d % 8 in (3, 5))) % 2
    return (u.n + 2 * k + 4 * j) % 8


def _fraction_bernoulli(n):
    from fractions import Fraction
    from math import comb
    B = [Fraction(1)]
    for m in range(1, n + 1):
        B.append(-sum(comb(m + 1, j) * B[j] for j in range(m)) / (m + 1))
    return B


def _fraction_bernoulli_chi(k, D0, B):
    from fractions import Fraction
    from math import comb
    f = abs(D0)
    P = [0] * (k + 1)
    for a in range(1, f + 1):
        x = _oracle_kronecker(D0, a)
        if x:
            for m in range(k + 1):
                P[m] += x
                x *= a
    return sum(comb(k, j) * B[j] * Fraction(f) ** (j - 1) * P[k - j]
               for j in range(k + 1))


def _oracle_kronecker(a, n):
    from latrep.primes import _jacobi
    out = 1
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            out = -out
    return out * _jacobi(a, n)
