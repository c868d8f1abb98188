"""The mass of the genus of a positive definite lattice, exactly.

The mass is the sum of 1/|Aut(L)| over the classes L of the genus.  It is
computed by the Conway-Sloane formula (Low-dimensional lattices IV: the
mass formula, Proc. R. Soc. A 419, 1988): a standard mass, made of
values of the Gamma function, of the Riemann zeta function and of one
quadratic L-function, corrected at each prime p dividing 2 det(S) by
the ratio of the p-mass m_p, read off the Jordan splitting at p, to its
standard value std_p.

Every value is a rational number, kept as an integer numerator and
denominator (Bernoulli numbers from a table that grows on demand), times
a power of pi and a square root, which are counted apart and must
cancel; one Fraction is built at the end.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, factorial, isqrt, lcm, prod
from typing import Sequence

from .matrices import GramMatrix, det, is_positive_definite
from .padic import (JordanSplitting, Place, _diagonal, hasse_invariant,
                    jordan_decomposition, ord_p)
from .primes import _jacobi, factorint

# the character sum behind an even rank's L-value has |disc Q(sqrt D)|
# terms; above this many the mass is not computed
_MAX_CONDUCTOR = 100_000
_B = [Fraction(1)]  # B_0, B_1, ...: constants, which _bernoulli extends


def genus_mass(S: GramMatrix) -> Fraction:
    """Sum of 1/|Aut(L)| over the classes L in the genus of S, for S
    positive definite.  ValueError when the rank n is even and the
    discriminant of Q(sqrt((-1)^(n/2) det S)) exceeds 100,000 in absolute
    value: its character sum is not run."""
    if not is_positive_definite(S):
        raise ValueError("the mass formula needs a positive definite form")
    d = det(S)
    mass = _mass(S.n, d, [jordan_decomposition(S, q)
                          for q in sorted({2} | factorint(d).keys())])
    if mass is None:
        raise ValueError("the mass needs a character sum of more than "
                         f"{_MAX_CONDUCTOR} terms")
    return mass


def _mass(n: int, d: int, splits: Sequence[JordanSplitting]
          ) -> Fraction | None:
    """The mass of a genus of rank n and determinant d > 0 from its Jordan
    splittings at every prime of 2d; a splitting at any other prime has
    m_p = std_p and changes nothing.  None above the conductor bound."""
    if n == 1:
        return Fraction(1, 2)
    s = (n + 1) // 2  # n = 2s - 1 or n = 2s
    D = (-1) ** s * d if n % 2 == 0 else 0
    primes = [split.prime.p for split in splits]
    B = _bernoulli(n)
    # the mass is (num / den) pi^(pi2 / 2) sqrt(root)
    num, den, pi2, root = 2, 1, -n * (n + 1) // 2, 1
    for j in range(1, n + 1):  # Gamma(j / 2)
        num *= factorial(j - 1) if j % 2 else factorial(j // 2 - 1)
        den *= 4 ** (j // 2) * factorial(j // 2) if j % 2 else 1
        pi2 += j % 2
    for k in range(1, s):  # zeta(2k) = (-1)^(k+1) B_2k (2 pi)^2k / (2 (2k)!)
        num *= (-1) ** (k + 1) * B[2 * k].numerator * 4 ** k
        den *= B[2 * k].denominator * 2 * factorial(2 * k)
        pi2 += 4 * k
    if D:
        # zeta_D(s) = prod over p of 1 / (1 - (D/p) p^-s): the L-value of
        # the primitive character of Q(sqrt D), and a correction at p | 2D
        core = (-1 if D < 0 else 1) * prod(p for p in primes
                                           if d % p == 0 and ord_p(d, p) % 2)
        D0 = core if core % 4 == 1 else 4 * core
        f = abs(D0)
        if f > _MAX_CONDUCTOR:
            return None
        # L(s, chi) = (-1)^(1 + (s - delta)/2) (sqrt f / 2) (2 pi / f)^s
        # B_{s,chi} / s!, delta = [D0 < 0], and s = delta mod 2 here
        b_num, b_den = _bernoulli_chi(s, D0, B)
        num *= (-1) ** (1 + (s - (D0 < 0)) // 2) * 2 ** s * b_num
        den *= 2 * f ** s * b_den * factorial(s)
        root *= f
        pi2 += 2 * s
    for split in splits:
        p = split.prime.p
        m_num, m_den, cross = _local_mass(split)
        std_num, std_den = _M(p, n, _kronecker(D, p))
        num *= m_num * std_den * p ** (cross // 2)
        den *= m_den * std_num
        root *= p ** (cross % 2)
        if D and 2 * d % p == 0:  # (1 - (D0/p) p^-s) / (1 - (D/p) p^-s)
            num *= p ** s - _kronecker(D0, p)
            den *= p ** s - _kronecker(D, p)
    r = isqrt(root)
    if pi2 or r * r != root or num * den <= 0:
        raise AssertionError("the mass formula did not give a positive "
                             "rational")
    return Fraction(num * r, den)


def _M(p: int, dim: int, sign: int) -> tuple[int, int]:
    """(numerator, denominator) of the diagonal factor of species dim; for
    even dim, sign is the species' sign (0 stands for p | D in std_p)."""
    if dim == 0:
        return 1, 1
    k = (dim + 1) // 2  # 1 / (2 prod_(0<i<k) (1 - p^-2i) (1 - sign p^-k))
    num = p ** (k * (k - 1))
    den = 2 * prod(p ** (2 * i) - 1 for i in range(1, k))
    if dim % 2:
        return num, den
    return num * p ** k, den * (p ** k - sign)


def _local_mass(split: JordanSplitting) -> tuple[int, int, int]:
    """m_p without its cross term, as numerator and denominator, and that
    term's exponent: m_p is the first ratio times p^(exponent / 2)."""
    p = split.prime.p
    comps = split.components
    cross = sum((b.scale - a.scale) * a.rank * b.rank
                for a, b in combinations(comps, 2))
    if p != 2:
        ms = [_M(p, c.rank, _kronecker((-1) ** (c.rank // 2)
                                       * det(c.unit_block), p)) for c in comps]
        return prod(a for a, _ in ms), prod(b for _, b in ms), cross
    # at 2 every scale from one below the lowest to one above the highest
    # counts; a missing scale is an even constituent of rank 0
    by_scale = {c.scale: c for c in comps}
    odd = {c.scale for c in comps if not c.even}
    ms = [(2 ** sum(k + 1 in odd for k in odd),
           2 ** sum(c.rank for c in comps if c.even))]
    for k in range(comps[0].scale - 1, comps[-1].scale + 2):
        c = by_scale.get(k)
        dim = c.rank if c else 0
        if k - 1 in odd or k + 1 in odd:  # bound
            t = dim - (k in odd)
            ms.append(_M(2, t if t % 2 else t + 1, 0))
            continue
        eps = 1 if c is None or det(c.unit_block) % 8 in (1, 7) else -1
        octane = (_oddity(c.unit_block) + 2 - 2 * eps) % 8 if k in odd else 0
        if k not in odd:
            ms.append(_M(2, dim, eps))
        elif octane in (2, 6):
            ms.append(_M(2, dim - 1, 0))
        elif dim % 2:
            ms.append(_M(2, dim - 1, 1 if octane in (1, 7) else -1))
        else:
            ms.append(_M(2, dim - 2, 1 if octane == 0 else -1))
    return prod(a for a, _ in ms), prod(b for _, b in ms), cross


def _oddity(u: GramMatrix) -> int:
    """The oddity of an odd 2-adic unimodular form u (the trace of any
    diagonalisation over Z_2, mod 8), from its rank, det and Hasse
    symbol at 2."""
    d = det(u)
    a = d % 4 == 3
    k = a + 2 * (hasse_invariant(_diagonal(u), Place(2)) == -1)
    j = (a + (d % 8 in (3, 5))) % 2
    return (u.n + 2 * k + 4 * j) % 8


def _bernoulli(n: int) -> list[Fraction]:
    """B_0, ..., B_n, with B_1 = -1/2, in a new list."""
    for m in range(len(_B), n + 1):
        _B.append(-sum(comb(m + 1, j) * _B[j] for j in range(m)) / (m + 1))
    return _B[:n + 1]


def _bernoulli_chi(k: int, D0: int, B: Sequence[Fraction]) -> tuple[int, int]:
    """The generalised Bernoulli number B_{k,chi} of the character chi of
    the fundamental discriminant D0, conductor f = |D0|, as a numerator
    and a denominator: f^(k-1) sum_a chi(a) B_k(a/f) = sum_j C(k,j) B_j
    f^(j-1) P_(k-j), with P_m = sum_a chi(a) a^m over 1 <= a <= f."""
    f = abs(D0)
    P = [0] * (k + 1)
    for a in range(1, f + 1):
        x = _kronecker(D0, a)
        if x:
            for m in range(k + 1):
                P[m] += x
                x *= a
    L = lcm(*(b.denominator for b in B[:k + 1]))
    return sum(comb(k, j) * B[j].numerator * (L // B[j].denominator)
               * f ** j * P[k - j] for j in range(k + 1)), f * L


def _kronecker(a: int, n: int) -> int:
    """The Kronecker symbol (a/n) for n > 0; (a/2) is 0 for even a, 1 for
    a = +-1 mod 8 and -1 for a = +-3 mod 8."""
    out = 1
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            out = -out
    return out * _jacobi(a, n)
