"""p-adic and real invariants of quadratic spaces and lattices.

Places of Q, valuations, square classes, Hilbert symbols, Hasse
invariants, Jordan decompositions, isotropy and space-level
representability at every place.  F = Q throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .matrices import GramMatrix, congruence_diagonalization, det
from .primes import factorint, isprime


@dataclass(frozen=True, order=True)
class Place:
    """A prime p or the real place (p = 0)."""

    p: int

    def __post_init__(self):
        if self.p != 0 and not isprime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @classmethod
    def real(cls) -> "Place":
        return cls(0)

    @classmethod
    def finite(cls, p: int) -> "Place":
        return cls(int(p))

    @property
    def is_real(self) -> bool:
        return self.p == 0

    def __str__(self) -> str:
        return "oo" if self.is_real else str(self.p)


REAL = Place.real()


def ord_p(a, p: int) -> int:
    """Additive p-adic valuation of a nonzero rational."""
    if type(a) is int:
        num, den = a, 1
    else:
        a = Fraction(a)
        num, den = a.numerator, a.denominator
    if num == 0:
        raise ValueError("valuation of 0 is infinite")
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def unit_part(a, p: int) -> Fraction:
    """a / p^ord_p(a)."""
    return Fraction(a) / Fraction(p) ** ord_p(a, p)


def _split(a: int, p: int) -> tuple[int, int]:
    """(ord_p(a), a / p^ord_p(a)) for a nonzero integer a."""
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v, a


def _int_class(a) -> int:
    """The integer num·den, which lies in the square class of the nonzero
    rational a; an int is returned as it is."""
    if type(a) is not int:
        a = Fraction(a)
        a = a.numerator * a.denominator
    if a == 0:
        raise ValueError("0 has no square class")
    return a


def squarefree_class(a) -> int:
    """Canonical representative (signed squarefree integer) of a's square class."""
    n = _int_class(a)
    out = -1 if n < 0 else 1
    for q, e in factorint(abs(n)).items():
        if e % 2:
            out *= q
    return out


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for odd p, a prime to p; values +-1."""
    s = pow(a % p, (p - 1) // 2, p)
    return 1 if s == 1 else -1


def hilbert_symbol(a, b, v: Place) -> int:
    """Hilbert symbol (a, b)_v: +1 iff z^2 = a x^2 + b y^2 has a nontrivial
    solution over the completion at v.  Closed-form rules on the integers
    num*den, whose valuations matter only mod 2."""
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol needs nonzero arguments")
    a, b = _int_class(a), _int_class(b)
    if v.is_real:
        return -1 if a < 0 and b < 0 else 1
    p = v.p
    alpha, u = _split(a, p)
    beta, w = _split(b, p)
    if p == 2:
        exp = (((u - 1) // 2) * ((w - 1) // 2) + alpha * ((w * w - 1) // 8)
               + beta * ((u * u - 1) // 8))
        return -1 if exp % 2 else 1
    sign = 1
    if (alpha * beta) % 2 and p % 4 == 3:
        sign = -sign
    if beta % 2:
        sign *= legendre(u, p)
    if alpha % 2:
        sign *= legendre(w, p)
    return sign


def hasse_invariant(diag: Sequence, v: Place) -> int:
    """Product over i < j of (d_i, d_j)_v."""
    d = [_int_class(x) for x in diag]
    out = 1
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            out *= hilbert_symbol(d[i], d[j], v)
    return out


def is_local_square(a, v: Place) -> bool:
    """Is a a square in the completion at v?"""
    if a == 0:
        raise ValueError("0 is excluded")
    a = _int_class(a)
    if v.is_real:
        return a > 0
    e, u = _split(a, v.p)
    if e % 2:
        return False
    if v.p == 2:
        return u % 8 == 1
    return legendre(u, v.p) == 1


def relevant_places(S: GramMatrix) -> list[Place]:
    """The real place, 2, and all primes dividing det(S)."""
    d = det(S)
    if d == 0:
        raise ValueError("singular Gram matrix")
    primes = sorted(factorint(abs(d)).keys() | {2})
    return [REAL] + [Place.finite(p) for p in primes]


@dataclass(frozen=True)
class SpaceInvariants:
    """Rank, determinant square class, Hasse symbols and real signature of a
    nonsingular quadratic space over Q."""

    rank: int
    det_class: int  # signed squarefree integer
    hasse: tuple[tuple[Place, int], ...]  # symbols at the relevant places
    signature: tuple[int, int]  # (positive, negative) at the real place

    def hasse_at(self, v: Place) -> int:
        for place, val in self.hasse:
            if place == v:
                return val
        if v.is_real:
            # Hasse at the real place from the signature: (-1,-1) pairs
            neg = self.signature[1]
            return -1 if (neg * (neg - 1) // 2) % 2 else 1
        return 1  # trivial outside the relevant set

    def local(self, v: Place) -> tuple[int, int, int]:
        """(rank, det class, Hasse symbol at v)."""
        return self.rank, self.det_class, self.hasse_at(v)


def invariants_of_diagonal(diag: Sequence) -> SpaceInvariants:
    if any(x == 0 for x in diag):
        raise ValueError("diagonal entry 0")
    d = [_int_class(x) for x in diag]
    prod = 1
    for x in d:
        prod *= x
    detc = squarefree_class(prod)
    pos = sum(1 for x in d if x > 0)
    neg = len(d) - pos
    # the symbol can be nontrivial only at the real place, 2 and the primes
    # dividing some entry; it is stored at the real place, 2, the primes of
    # the det class and any place where it is -1, so the result does not
    # depend on which diagonalization was used
    always = {0, 2, *factorint(abs(detc))}
    hasse = []
    for q in sorted(always | factorint(abs(prod)).keys()):
        v = Place(q)
        eps = hasse_invariant(d, v)
        if q in always or eps == -1:
            hasse.append((v, eps))
    return SpaceInvariants(rank=len(d), det_class=detc, hasse=tuple(hasse),
                           signature=(pos, neg))


def space_invariants(S: GramMatrix) -> SpaceInvariants:
    """Invariants of the rational quadratic space of S; S nonsingular."""
    if det(S) == 0:
        raise ValueError("singular Gram matrix")
    _, diag = congruence_diagonalization(S)
    return invariants_of_diagonal(diag)


# ---------------------------------------------------------------------------
# Jordan decomposition

@dataclass(frozen=True)
class JordanComponent:
    scale: int
    rank: int
    unit_block: GramMatrix  # p-adically unimodular, entries reduced mod p^k
    even: bool | None = None  # p = 2 only


@dataclass(frozen=True)
class JordanSplitting:
    prime: Place
    components: tuple[JordanComponent, ...]

    def symbol(self) -> tuple:
        """Hashable invariant summary used for genus comparisons."""
        p = self.prime.p
        out = []
        for comp in self.components:
            if p == 2:
                # scale, rank and type are the 2-adic Jordan invariants
                # (O'Meara 91:9); det(unit block) mod 8 depends on the basis
                out.append((comp.scale, comp.rank, comp.even))
            else:
                out.append((comp.scale, comp.rank,
                            legendre(det(comp.unit_block), p)))
        return tuple(out)


def _reduce_mod(x: Fraction, modulus: int) -> int:
    """Lift of a p-integral rational modulo p^k."""
    num = x.numerator % modulus
    den = x.denominator % modulus
    return (num * pow(den, -1, modulus)) % modulus


def jordan_decomposition(S: GramMatrix, p: int) -> JordanSplitting:
    """p-adic Jordan splitting of a nonsingular integral Gram matrix.

    Odd p: full diagonalization over Z_p by pivoting on minimal-valuation
    entries (off-diagonal minima handled by a row/column combination,
    valid since 2 is a unit).  p = 2: pivot on a minimal-valuation
    diagonal entry when one achieves the minimum; otherwise split off a
    2x2 block around a minimal off-diagonal entry.
    """
    if not isprime(p):
        raise ValueError(f"{p} is not prime")
    d = det(S)
    if d == 0:
        raise ValueError("singular Gram matrix")
    n = S.n
    ord_det = ord_p(d, p)
    precision = p ** (ord_det + 3)

    a = [[Fraction(x) for x in row] for row in S.entries]
    active = list(range(n))
    pieces: list[tuple[int, list[list[Fraction]], bool]] = []  # (scale, block, is2x2)

    def val(x: Fraction) -> int:
        return ord_p(x, p) if x != 0 else 10 ** 9

    def eliminate_against_1x1(i: int):
        for k in active:
            if k != i and a[k][i] != 0:
                f = a[k][i] / a[i][i]
                for l in range(n):
                    a[k][l] -= f * a[i][l]
                for l in range(n):
                    a[l][k] -= f * a[l][i]

    def eliminate_against_2x2(i: int, j: int):
        dd = a[i][i] * a[j][j] - a[i][j] * a[i][j]
        for k in active:
            if k in (i, j):
                continue
            ri, rj = a[k][i], a[k][j]
            if ri == 0 and rj == 0:
                continue
            # solve [aii aij; aij ajj] (fi, fj)^t = (ri, rj)^t
            fi = (ri * a[j][j] - rj * a[i][j]) / dd
            fj = (rj * a[i][i] - ri * a[i][j]) / dd
            for l in range(n):
                a[k][l] -= fi * a[i][l] + fj * a[j][l]
            for l in range(n):
                a[l][k] -= fi * a[l][i] + fj * a[l][j]

    while active:
        best_v = None
        best = None
        for i in active:
            for j in active:
                if a[i][j] != 0:
                    v = val(a[i][j])
                    if best_v is None or v < best_v or (v == best_v and i == j and best[0] != best[1]):
                        best_v, best = v, (i, j)
        if best is None:
            raise ValueError("degenerate block")  # cannot happen for nonsingular S
        i, j = best
        diag_hit = next((k for k in active if val(a[k][k]) == best_v), None)
        if p != 2 and diag_hit is None:
            # x_i <- x_i + x_j brings the minimal valuation to the diagonal
            for l in range(n):
                a[i][l] += a[j][l]
            for l in range(n):
                a[l][i] += a[l][j]
            diag_hit = i
            assert val(a[i][i]) == best_v
        if diag_hit is not None:
            k = diag_hit
            eliminate_against_1x1(k)
            pieces.append((best_v, [[a[k][k]]], False))
            active.remove(k)
        else:
            # p = 2, minimal valuation only off-diagonal: even 2x2 block
            if i == j:
                i, j = next(((x, y) for x in active for y in active
                             if x != y and val(a[x][y]) == best_v))
            eliminate_against_2x2(i, j)
            pieces.append((best_v, [[a[i][i], a[i][j]], [a[j][i], a[j][j]]], True))
            active.remove(i)
            active.remove(j)

    # group pieces by scale into components
    by_scale: dict[int, list[tuple[list[list[Fraction]], bool]]] = {}
    for scale, block, two in pieces:
        by_scale.setdefault(scale, []).append((block, two))
    comps = []
    for scale in sorted(by_scale):
        blocks = by_scale[scale]
        size = sum(len(b) for b, _ in blocks)
        g = [[Fraction(0)] * size for _ in range(size)]
        off = 0
        for b, _ in blocks:
            for r in range(len(b)):
                for c in range(len(b)):
                    g[off + r][off + c] = b[r][c] / Fraction(p) ** scale
            off += len(b)
        unit = GramMatrix([[_reduce_mod(x, precision) for x in row] for row in g])
        if ord_p(det(unit), p) != 0:
            raise AssertionError("unit block is not unimodular at p")
        even = None
        if p == 2:
            even = all(unit.entries[i][i] % 2 == 0 for i in range(size))
        comps.append(JordanComponent(scale=scale, rank=size, unit_block=unit, even=even))

    total = sum(c.scale * c.rank for c in comps)
    if total != ord_det:
        raise AssertionError("scale/rank sum does not match ord_p(det)")
    return JordanSplitting(prime=Place.finite(p), components=tuple(comps))


# ---------------------------------------------------------------------------
# isotropy and space representability

def _complement(ambient: tuple[int, int, int], target: tuple[int, int, int],
                v: Place) -> tuple[int, int, int]:
    """(rank, det, Hasse symbol at v) of the space W with V = U + W an
    orthogonal sum over Q_v, from those of V (ambient) and U (target).

    Witt cancellation fixes W up to isometry: d(W) = d(V) d(U) and
    c_v(W) = c_v(V) c_v(U) (d(U), d(W))_v.  A det is any nonzero integer of
    its square class."""
    n, d_amb, eps_amb = ambient
    m, d_tgt, eps_tgt = target
    d = d_amb * d_tgt
    return n - m, d, eps_amb * eps_tgt * hilbert_symbol(d_tgt, d, v)


def _isotropic(rank: int, d: int, eps: int, v: Place) -> bool:
    """Is a space over Q_v (v finite) with rank, det d and Hasse symbol eps
    isotropic?  Classical classification."""
    if rank <= 1:
        return False
    if rank == 2:
        return is_local_square(-d, v)
    if rank == 3:
        return eps != -hilbert_symbol(-1, -d, v)
    if rank == 4:
        return not (is_local_square(d, v) and eps == -hilbert_symbol(-1, -1, v))
    return True


def is_isotropic(inv: SpaceInvariants, v: Place) -> bool:
    """Does the space contain a nonzero vector of Q-value zero over the
    completion at v?"""
    if v.is_real:
        pos, neg = inv.signature
        return pos > 0 and neg > 0
    return _isotropic(*inv.local(v), v)


def complement_isotropic(ambient: SpaceInvariants, T: GramMatrix,
                         v: Place) -> bool:
    """Is the orthogonal complement of T in the ambient space isotropic over
    Q_v (v finite)?  T must embed in the ambient space over Q_v; of T only
    its det and its Hasse symbol at v are computed."""
    _, diag = congruence_diagonalization(T)
    target = (T.n, det(T), hasse_invariant(diag, v))
    return _isotropic(*_complement(ambient.local(v), target, v), v)


def _space_exists(rank: int, det_class: int, hasse: int, v: Place) -> bool:
    """Is there a quadratic space over Q_v with these invariants?
    (Finite v only; rank >= 0.)"""
    if rank == 0:
        return is_local_square(det_class, v) and hasse == 1
    if rank == 1:
        return hasse == 1
    if rank == 2:
        return not (is_local_square(-det_class, v)
                    and hasse == -hilbert_symbol(-1, -1, v))
    return True


def space_represents(target: SpaceInvariants, ambient: SpaceInvariants,
                     v: Place) -> bool:
    """Does the target space embed isometrically in the ambient space over
    the completion at v?  Witt-theory reduction: the embedding exists iff
    the virtual complement has realizable invariants."""
    if target.rank > ambient.rank:
        raise ValueError("target rank exceeds ambient rank")
    if v.is_real:
        return (target.signature[0] <= ambient.signature[0]
                and target.signature[1] <= ambient.signature[1])
    return _space_exists(*_complement(ambient.local(v), target.local(v), v), v)
