"""Genus and spinor-genus exploration: isometry testing, spinor norms,
Kneser p-neighbors and per-class representation testing.

Neighbor primes are restricted to odd p not dividing the determinant;
the classical construction is simplest there and suffices at desk
scale.  Neighbor closures are labelled as spinor-genus components; an
auxiliary prime can be supplied to probe for further genus classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul

import sympy

from .enumeration import (find_representations, lattice_minimum, lll_reduce,
                          vectors_of_norm)
from .matrices import (CACHE_SIZE, GramMatrix, IntMatrix, column_hnf, det,
                       gram_of_columns, inner_product, invert_unimodular)
from .padic import (Place, jordan_decomposition, space_invariants,
                    squarefree_class)


@dataclass(frozen=True)
class SpinorNormClass:
    """A rational square class, stored as a signed squarefree integer."""

    value: int

    def __mul__(self, other: "SpinorNormClass") -> "SpinorNormClass":
        return SpinorNormClass(squarefree_class(self.value * other.value))


def spinor_norm_reflection(S: GramMatrix, v) -> SpinorNormClass:
    """Square class of Q(v): the spinor norm of the reflection in v."""
    q = S.value(list(v))
    if q == 0:
        raise ValueError("reflection in an isotropic vector")
    return SpinorNormClass(squarefree_class(q))


# ---------------------------------------------------------------------------
# isometry testing

@lru_cache(maxsize=CACHE_SIZE)
def _fingerprint(S: GramMatrix) -> tuple[int, int, int]:
    """Isometry invariants: det, minimum and number of minimal vectors."""
    mu = lattice_minimum(S)
    return det(S), mu, len(vectors_of_norm(S, mu).vectors)


def is_isometric(S1: GramMatrix, S2: GramMatrix) -> IntMatrix | None:
    """A unimodular U with U^t S1 U = S2, or None.

    Backtracking maps an LLL-reduced basis of S1 onto vectors of equal
    norm in S2, pruned by inner-product profiles; cheap exact
    fingerprints reject most non-isometric pairs first.
    """
    if S1.n != S2.n:
        raise ValueError("rank mismatch")
    if S1.entries == S2.entries:
        return IntMatrix.identity(S1.n)
    if _fingerprint(S1) != _fingerprint(S2):
        return None
    n = S1.n
    S1r, U1 = lll_reduce(S1)
    candidates = []
    for i in range(n):
        vecs = vectors_of_norm(S2, S1r.entries[i][i]).vectors
        both = []
        for v in vecs:
            both.append(v)
            both.append(tuple(-x for x in v))
        candidates.append(both)

    chosen: list[tuple[int, ...]] = []

    def backtrack(i: int) -> bool:
        if i == n:
            return True
        for v in candidates[i]:
            if all(inner_product(S2, chosen[j], v) == S1r.entries[j][i]
                   for j in range(i)):
                chosen.append(v)
                if backtrack(i + 1):
                    return True
                chosen.pop()
        return False

    if not backtrack(0):
        return None
    W = IntMatrix.from_columns(chosen)  # W^t S2 W = S1r
    U = U1 @ invert_unimodular(W)
    if gram_of_columns(S1, U).entries != S2.entries:
        raise AssertionError("isometry witness fails to verify")
    return U


# ---------------------------------------------------------------------------
# Kneser p-neighbors

def _projective_points(p: int, n: int):
    """One representative per line of F_p^n: first nonzero coordinate 1."""
    from itertools import product
    for lead in range(n):
        for tail in product(range(p), repeat=n - lead - 1):
            yield (0,) * lead + (1,) + tail


def p_neighbors(S: GramMatrix, p: int) -> list[GramMatrix]:
    """All p-neighbors of S, up to isometry.

    Requires p odd, prime, and not dividing 2 det(S)."""
    if not sympy.isprime(p) or p == 2 or det(S) % p == 0:
        raise ValueError("neighbor prime must be odd and prime to det(S)")
    n = S.n
    out: list[GramMatrix] = []
    d = det(S)
    for x0 in _projective_points(p, n):
        Sx = [sum(map(mul, row, x0)) for row in S.entries]
        if sum(map(mul, x0, Sx)) % p:
            continue
        x, Sx = _lift_isotropic(S, list(x0), Sx, p)
        G = _neighbor_gram(S, x, Sx, p)
        if det(G) != d:
            raise AssertionError("neighbor determinant changed")
        reduced, _ = lll_reduce(G)
        if any(reduced.entries == r.entries for r in out):
            continue
        if any(is_isometric(reduced, r) is not None for r in out):
            continue
        out.append(reduced)
    return out


def _lift_isotropic(S: GramMatrix, x: list[int], a: list[int], p: int
                    ) -> tuple[list[int], list[int]]:
    """Adjust x (primitive, Q(x) = 0 mod p) so that Q(x) = 0 mod p^2;
    a = S x, returned updated with x."""
    n = S.n
    q = sum(map(mul, x, a))
    if q % (p * p) == 0:
        return x, a
    i = next((i for i in range(n) if a[i] % p), None)
    if i is None:
        raise AssertionError("x lies in the radical mod p")
    t = (q // p) % p
    mu = (-t * pow(2 * a[i], -1, p)) % p
    y = x[:]
    y[i] += p * mu
    Sy = [v + p * mu * row[i] for v, row in zip(a, S.entries)]
    assert sum(map(mul, y, Sy)) % (p * p) == 0
    return y, Sy


def _neighbor_gram(S: GramMatrix, x: list[int], a: list[int], p: int
                   ) -> GramMatrix:
    """Gram of the p-neighbor {y : x^t S y = 0 mod p} + Z (x/p); a = S x."""
    n = S.n
    piv = next(i for i in range(n) if a[i] % p)
    inv = pow(a[piv], -1, p)
    gens: list[list[int]] = []
    for j in range(n):
        if j == piv:
            continue
        col = [0] * n
        col[j] = 1
        col[piv] = (-inv * a[j]) % p
        gens.append(col)
    pe = [0] * n
    pe[piv] = p
    gens.append(pe)
    # generators of p * neighbor: p * kernel basis and x
    scaled = [[p * v for v in col] for col in gens] + [list(x)]
    H = column_hnf(IntMatrix.from_columns(scaled))
    G = gram_of_columns(S, H).entries
    pp = p * p
    if any(v % pp for row in G for v in row):
        raise AssertionError("neighbor Gram not integral")
    return GramMatrix([[v // pp for v in row] for row in G])


# ---------------------------------------------------------------------------
# genus enumeration

@dataclass(frozen=True)
class GenusRecord:
    seed: GramMatrix
    prime_used: int
    classes: tuple[GramMatrix, ...]
    provenance: tuple[tuple[int, int], ...]  # neighbor-graph edges
    complete: bool

    def to_dict(self) -> dict:
        return {"schema_version": 1,
                "prime_used": self.prime_used,
                "classes": [ [list(r) for r in c.entries] for c in self.classes],
                "edges": [list(e) for e in self.provenance],
                "complete": self.complete}


def _genus_symbol(S: GramMatrix, primes) -> tuple:
    """Genus invariants at the given primes: the Jordan symbols, the
    determinant square class and the Hasse invariants."""
    inv = space_invariants(S)
    return (tuple(jordan_decomposition(S, p).symbol() for p in primes),
            inv.det_class,
            tuple(inv.hasse_at(Place.finite(p)) for p in primes))


def enumerate_genus(S: GramMatrix, p: int, class_cap: int = 64,
                    aux_prime: int | None = None) -> GenusRecord:
    """Breadth-first neighbor closure from S at prime p, deduplicated by
    isometry.  The closure at one good prime covers the spinor genus
    component; aux_prime, when given, runs a second closure to probe for
    further genus classes."""
    check_primes = sorted({2, p} | set(sympy.factorint(abs(det(S))).keys()))
    seed_symbol = _genus_symbol(S, check_primes)
    classes: list[GramMatrix] = [S]
    edges: list[tuple[int, int]] = []
    queue = [0]
    complete = True
    primes = [p] + ([aux_prime] if aux_prime else [])
    for prime in primes:
        queue = list(range(len(classes)))
        while queue:
            i = queue.pop(0)
            for nb in p_neighbors(classes[i], prime):
                if _genus_symbol(nb, check_primes) != seed_symbol:
                    raise AssertionError("neighbor left the genus")
                j = next((j for j, rep in enumerate(classes)
                          if is_isometric(nb, rep) is not None), None)
                if j is None:
                    if len(classes) >= class_cap:
                        return GenusRecord(seed=S, prime_used=p,
                                           classes=tuple(classes),
                                           provenance=tuple(edges),
                                           complete=False)
                    classes.append(nb)
                    j = len(classes) - 1
                    queue.append(j)
                edges.append((i, j))
    return GenusRecord(seed=S, prime_used=p, classes=tuple(classes),
                       provenance=tuple(edges), complete=complete)


def represented_by_all_classes(G: GenusRecord, T: GramMatrix, c: int = 1
                               ) -> dict[int, bool]:
    """For each class representative, non-emptiness of the representation
    search with imprimitivity bound c."""
    if not G.complete:
        raise ValueError("genus record is incomplete")
    out = {}
    for i, rep in enumerate(G.classes):
        out[i] = bool(find_representations(rep, T, c, limit=1))
    return out
