"""p-adic and real invariants of quadratic spaces and lattices.

Places of Q, valuations, square classes, Hilbert symbols, Hasse
invariants, Jordan decompositions and isotropy at every place.  F = Q
throughout.

Diagonalizations over Q and Jordan splittings over Z_p both come from one
fraction-free symmetric elimination (`_eliminate`) on the integer Gram
matrix; only the rational inputs accepted by the valuation and
square-class helpers are read through Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Sequence

from .matrices import GramMatrix, det
from .primes import factorint, isprime


@dataclass(frozen=True, order=True, slots=True)
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
        p = int(p)
        if p == 0:
            raise ValueError("0 names the real place, not a prime")
        return cls(p)

    @property
    def is_real(self) -> bool:
        return self.p == 0

    def __str__(self) -> str:
        return "oo" if self.is_real else str(self.p)


REAL = Place.real()


def ord_p(a, p: int) -> int:
    """Additive p-adic valuation of a nonzero rational, for p >= 2 (for
    p = 1 and p = -1 every valuation is infinite)."""
    if p < 2:
        raise ValueError(f"ord_p needs p >= 2, not {p}")
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


@dataclass(frozen=True, slots=True)
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


def space_invariants(S: GramMatrix) -> SpaceInvariants:
    """Invariants of the rational quadratic space of S; S nonsingular.

    S is unimodular at every odd prime q not dividing det(S), so has a
    diagonal basis of units and Hasse symbol 1 there: of the diagonal,
    nothing is factored."""
    return _invariants(_diagonal(S), det(S))


def _invariants(diag: list[int], d: int) -> SpaceInvariants:
    """Invariants of diag(diag); d lies in the square class of its product,
    and the primes of d include every odd prime where the Hasse symbol can
    be -1.  The symbol is stored at the real place, 2, the primes of the
    det class and any place where it is -1, so the result does not depend
    on which diagonalization was used."""
    factors = factorint(abs(d))
    odd = [q for q, e in factors.items() if e % 2]
    pos = sum(1 for x in diag if x > 0)
    hasse = []
    for q in sorted({0, 2} | factors.keys()):
        eps = hasse_invariant(diag, Place(q))
        if q in (0, 2) or q in odd or eps == -1:
            hasse.append((Place(q), eps))
    return SpaceInvariants(rank=len(diag), det_class=(-1 if d < 0 else 1) * prod(odd),
                           hasse=tuple(hasse), signature=(pos, len(diag) - pos))


# ---------------------------------------------------------------------------
# fraction-free symmetric elimination

def _eliminate(S: GramMatrix, p: int = 0
               ) -> list[tuple[int, tuple[tuple[int, ...], ...]]]:
    """Symmetric elimination of a nonsingular S without fractions.

    The working matrix B is D times the Schur complement of the pivot blocks
    taken so far, D the product of their determinants.  Every entry of B is
    a minor of S in the current basis, so each division below is exact
    (Sylvester's identity, as in Bareiss).  Returns each pivot block of B
    with the D it was taken under; the rational pivot block is block / D.

    Without p the pivot is the first nonzero diagonal entry.  With p it is
    an entry of least p-valuation, the first such diagonal entry when there
    is one.  When no diagonal entry qualifies, x_i += x_j for the first
    qualifying (i, j) brings it to the diagonal, except at p = 2, where
    the 2x2 block on i, j is split off instead.
    """
    a = [list(row) for row in S.entries]
    active = list(range(S.n))
    d = 1
    pieces = []
    while active:
        if p:
            vals = {(r, c): _split(a[r][c], p)[0]
                    for t, r in enumerate(active) for c in active[t:] if a[r][c]}
            if not vals:
                raise ValueError("singular Gram matrix")
            least = min(vals.values())
            k = next((k for k in active if vals.get((k, k)) == least), None)
            if k is None:
                i, j = next(ij for ij, v in vals.items() if v == least)
        else:
            k = next((k for k in active if a[k][k]), None)
            if k is None:
                i, j = next(((r, c) for t, r in enumerate(active)
                             for c in active[t + 1:] if a[r][c]), (None, None))
                if i is None:
                    raise ValueError("singular Gram matrix")
        if k is None and p != 2:
            # x_i <- x_i + x_j makes B_ii = B_ii + 2 B_ij + B_jj: nonzero
            # when B_ii = B_jj = 0, of the least valuation at odd p
            for l in active:
                a[i][l] += a[j][l]
            for l in active:
                a[l][i] += a[l][j]
            if p and _split(a[i][i], p)[0] != least:
                raise AssertionError("no pivot of least valuation")
            k = i
        if k is not None:
            piv = a[k][k]
            pieces.append((d, ((piv,),)))
            active.remove(k)
            pk = a[k]
            for t, r in enumerate(active):
                row, f = a[r], a[r][k]
                for c in active[t:]:
                    row[c] = a[c][r] = (piv * row[c] - f * pk[c]) // d
            d = piv
        else:
            # p = 2 with least valuation only off the diagonal: the block M
            # on i, j; B <- (det(M) B - B_{.,ij} adj(M) B_{ij,.}) / D^2
            aii, aij, ajj = a[i][i], a[i][j], a[j][j]
            det2 = aii * ajj - aij * aij
            pieces.append((d, ((aii, aij), (aij, ajj))))
            active.remove(i)
            active.remove(j)
            u = {l: ajj * a[i][l] - aij * a[j][l] for l in active}
            w = {l: aii * a[j][l] - aij * a[i][l] for l in active}
            dd = d * d
            for t, r in enumerate(active):
                row, fi, fj = a[r], a[r][i], a[r][j]
                for c in active[t:]:
                    row[c] = a[c][r] = (det2 * row[c] - fi * u[c] - fj * w[c]) // dd
            d = det2 // d
    return pieces


def _diagonal(S: GramMatrix) -> list[int]:
    """Integers in the square classes of a diagonalization of S over Q: a
    pivot b taken under D is the diagonal entry b / D, and D b = D^2 (b / D)."""
    return [d * block[0][0] for d, block in _eliminate(S)]


# ---------------------------------------------------------------------------
# Jordan decomposition

@dataclass(frozen=True, slots=True)
class JordanComponent:
    scale: int
    rank: int
    unit_block: GramMatrix  # p-adically unimodular, entries reduced mod p^k
    even: bool | None = None  # p = 2 only


@dataclass(frozen=True, slots=True)
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


def jordan_decomposition(S: GramMatrix, p: int) -> JordanSplitting:
    """p-adic Jordan splitting of a nonsingular integral Gram matrix.

    Read off the pivot blocks of the elimination at p: each block, divided
    by D p^scale, is reduced mod p^(ord_p det + 3), and the blocks of one
    scale form that scale's unit block.  Odd p gives a full diagonalization
    over Z_p; p = 2 also splits off even 2x2 blocks.
    """
    if not isprime(p):
        raise ValueError(f"{p} is not prime")
    d = det(S)
    if d == 0:
        raise ValueError("singular Gram matrix")
    ord_det = ord_p(d, p)
    precision = p ** (ord_det + 3)

    by_scale: dict[int, list[list[list[int]]]] = {}
    for dk, block in _eliminate(S, p):
        e, u = _split(dk, p)
        scale = min(_split(x, p)[0] for row in block for x in row if x) - e
        # block / (D p^scale) = (block / p^(e + scale)) / u, u a unit at p
        shift, inv = p ** (e + scale), pow(u, -1, precision)
        by_scale.setdefault(scale, []).append(
            [[x // shift * inv % precision for x in row] for row in block])
    comps = []
    for scale in sorted(by_scale):
        blocks = by_scale[scale]
        size = sum(map(len, blocks))
        g = [[0] * size for _ in range(size)]
        off = 0
        for b in blocks:
            for r, row in enumerate(b):
                g[off + r][off:off + len(row)] = row
            off += len(b)
        unit = GramMatrix(g)
        if ord_p(det(unit), p) != 0:
            raise AssertionError("unit block is not unimodular at p")
        even = None
        if p == 2:
            even = all(g[i][i] % 2 == 0 for i in range(size))
        comps.append(JordanComponent(scale=scale, rank=size, unit_block=unit, even=even))

    total = sum(c.scale * c.rank for c in comps)
    if total != ord_det:
        raise AssertionError("scale/rank sum does not match ord_p(det)")
    return JordanSplitting(prime=Place.finite(p), components=tuple(comps))


# ---------------------------------------------------------------------------
# isotropy

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
    target = (T.n, det(T), hasse_invariant(_diagonal(T), v))
    return _isotropic(*_complement(ambient.local(v), target, v), v)
