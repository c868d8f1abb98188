"""Genus exploration: isometry testing, automorphism groups, Kneser
p-neighbors, genus closures certified by the mass formula and per-class
representation testing.

Isometries and automorphisms come from one Plesken-Souvignier backtrack
(Computing isometries of lattices, J. Symb. Comp. 24, 1997): is_isometric
takes its first hit, and a stabiliser chain on it gives generators of
Aut(S) and |Aut(S)| by orbit-stabiliser counting.  p_neighbors builds one
neighbor per Aut(S)-orbit of isotropic lines.

Neighbor primes are odd and do not divide the determinant.
enumerate_genus walks the neighbors lazily and adds 1/|Aut(L)| for each
class L it keeps; it stops as soon as the sum equals the mass of the
genus (latrep.mass), which certifies the class list.  A closure at one
prime can cover a spinor genus only: it then ends short of the mass, and
an auxiliary prime can be supplied to probe for further classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Iterator, Sequence

from .enumeration import (_reduced, find_representations, lattice_minimum,
                          lll_reduce, vectors_of_norm)
from .matrices import (CACHE_SIZE, GramMatrix, IntMatrix, column_hnf, det,
                       gram_of_columns, invert_unimodular,
                       is_positive_definite)
from .padic import JordanSplitting, jordan_decomposition, space_invariants
from .primes import factorint, isprime


# ---------------------------------------------------------------------------
# isometry testing

@lru_cache(maxsize=CACHE_SIZE)
def _fingerprint(S: GramMatrix) -> tuple[int, int, int]:
    """Isometry invariants: det, minimum and number of minimal vectors."""
    mu = lattice_minimum(S)
    return det(S), mu, len(vectors_of_norm(S, mu).vectors)


@lru_cache(maxsize=CACHE_SIZE)
def _norm_list(S: GramMatrix, t: int
               ) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Every v with Q(v) = t (v before -v), each paired with its image S v."""
    out = []
    for v in vectors_of_norm(S, t).vectors:
        Sv = tuple(sum(map(mul, row, v)) for row in S.entries)
        out.append((v, Sv))
        out.append((tuple(-x for x in v), tuple(-x for x in Sv)))
    return tuple(out)


def _narrow(G: Sequence[Sequence[int]], i: int, Sv: Sequence[int], lists):
    """The candidate lists of levels i+1, i+2, ... cut down to the vectors
    w with v^t S w = G[i][k] when v, with image Sv, is the image of b_i;
    None when some level is left empty."""
    out = []
    for k, level in enumerate(lists, i + 1):
        g = G[i][k]
        kept = [c for c in level if sum(map(mul, Sv, c[0])) == g]
        if not kept:
            return None
        out.append(kept)
    return out


def _first_isometry(G: Sequence[Sequence[int]], lists, chosen: list
                    ) -> list | None:
    """Images w_i of b_i, extending the images `chosen` of b_0..b_{k-1}
    depth first, with w_i^t S w_j = G[i][j]; lists[0], lists[1], ... hold
    the candidates of levels k, k+1, ... that are consistent with `chosen`.
    The first hit in candidate order, or None."""
    if not lists:
        return list(chosen)
    i = len(chosen)
    for v, Sv in lists[0]:
        rest = _narrow(G, i, Sv, lists[1:])
        if rest is None:
            continue
        chosen.append(v)
        found = _first_isometry(G, rest, chosen)
        chosen.pop()
        if found is not None:
            return found
    return None


def is_isometric(S1: GramMatrix, S2: GramMatrix) -> IntMatrix | None:
    """A unimodular U with U^t S1 U = S2, or None.

    Cheap exact fingerprints reject most non-isometric pairs first.  The
    Plesken-Souvignier backtrack then maps an LLL-reduced basis b_i of S1
    onto vectors of S2 of norm Q1(b_i), each candidate carried with its
    image S2 v, so that every pruning test is one dot product; choosing
    the image of b_i cuts every deeper level down to the vectors with the
    right inner product with it.  The first hit is the witness.
    """
    if S1.n != S2.n:
        raise ValueError("rank mismatch")
    if S1.entries == S2.entries:
        return IntMatrix.identity(S1.n)
    if _fingerprint(S1) != _fingerprint(S2):
        return None
    S1r, U1, _, _ = _reduced(S1)
    G = S1r.entries
    chosen = _first_isometry(
        G, [_norm_list(S2, G[i][i]) for i in range(S1.n)], [])
    if chosen is None:
        return None
    W = IntMatrix.from_columns(chosen)  # W^t S2 W = S1r
    U = U1 @ invert_unimodular(W)
    if gram_of_columns(S1, U).entries != S2.entries:
        raise AssertionError("isometry witness fails to verify")
    return U


def _orbit(x: tuple[int, ...], gens: Sequence[IntMatrix], p: int = 0
           ) -> set[tuple[int, ...]]:
    """Orbit of x under the matrices gens; for p > 0, the orbit of the line
    of x in F_p^n, each line scaled so that its first nonzero coordinate
    is 1."""
    orbit = {x}
    todo = [x]
    while todo:
        y = todo.pop()
        for g in gens:
            z = [sum(map(mul, row, y)) for row in g.entries]
            if p:
                inv = pow(next(c for c in z if c % p), -1, p)
                z = [c * inv % p for c in z]
            z = tuple(z)
            if z not in orbit:
                orbit.add(z)
                todo.append(z)
    return orbit


@lru_cache(maxsize=CACHE_SIZE)
def _automorphisms(S: GramMatrix) -> tuple[int, tuple[IntMatrix, ...]]:
    """|Aut(S)| and generators of Aut(S), as matrices g with g^t S g = S.

    A stabiliser chain on the backtrack of is_isometric, for an
    LLL-reduced basis b_i of S.  G_i, the automorphisms fixing
    b_0..b_{i-1}, is worked out from i = n-1 down to 0: for every
    candidate image v of b_i outside the orbit of b_i under the generators
    found so far (which generate G_{i+1}), search for an automorphism that
    fixes b_0..b_{i-1} and maps b_i to v.  A hit is a new generator, and
    the orbit is closed again; a miss rules out the whole orbit of v.
    Then |G_i| = |orbit of b_i| |G_{i+1}|.  Every level lists both signs,
    so -1 is found at level 0."""
    Sr, U, _, _ = _reduced(S)
    G = Sr.entries
    n = S.n
    Uinv = invert_unimodular(U)
    basis = U.columns()
    images = [tuple(sum(map(mul, row, b)) for row in S.entries) for b in basis]
    # narrowed[i]: the candidates of levels i.. that fix b_0..b_{i-1}
    narrowed = [[_norm_list(S, G[i][i]) for i in range(n)]]
    for j in range(n - 1):
        narrowed.append(_narrow(G, j, images[j], narrowed[-1][1:]))
    gens: list[IntMatrix] = []
    order = 1
    for i in reversed(range(n)):
        lists = narrowed[i]
        orbit = _orbit(basis[i], gens)
        done = set(orbit)
        for c in lists[0]:
            if c[0] in done:
                continue
            found = _first_isometry(G, [[c]] + lists[1:], basis[:i])
            if found is None:
                done |= _orbit(c[0], gens)
                continue
            g = IntMatrix.from_columns(found) @ Uinv  # g b_j = found[j]
            if gram_of_columns(S, g).entries != S.entries:
                raise AssertionError("automorphism fails to verify")
            gens.append(g)
            orbit = _orbit(basis[i], gens)
            done |= orbit
        order *= len(orbit)
    return order, tuple(gens)


def automorphism_group_order(S: GramMatrix) -> int:
    """|Aut(S)| for a positive definite S, counted by orbits and
    stabilisers, so the group itself is never listed."""
    return _automorphisms(S)[0]


# ---------------------------------------------------------------------------
# Kneser p-neighbors

def _projective_points(p: int, n: int):
    """One representative per line of F_p^n: first nonzero coordinate 1."""
    from itertools import product
    for lead in range(n):
        for tail in product(range(p), repeat=n - lead - 1):
            yield (0,) * lead + (1,) + tail


def p_neighbors(S: GramMatrix, p: int) -> list[GramMatrix]:
    """All p-neighbors of S, up to isometry: for each isometry class, the
    LLL-reduced Gram of the neighbor of the first isotropic line of
    F_p^n (in the order of _projective_points) whose neighbor lies in it.

    A neighbor depends only on its line, and an automorphism g of S maps
    the neighbor of the line x onto that of gx.  So only the first line of
    each Aut(S)-orbit of isotropic lines is built; the others would give
    isometric neighbors.

    Requires p odd, prime, and not dividing 2 det(S)."""
    _check_neighbor_prime(S, p)
    return list(_neighbors(S, p))


def _check_neighbor_prime(S: GramMatrix, p: int) -> None:
    if not isprime(p) or p == 2 or det(S) % p == 0:
        raise ValueError("neighbor prime must be odd and prime to det(S)")


def _neighbors(S: GramMatrix, p: int) -> Iterator[GramMatrix]:
    """The p-neighbors of p_neighbors, one at a time."""
    n = S.n
    out: list[GramMatrix] = []
    d = det(S)
    gens = [IntMatrix([[x % p for x in row] for row in g.entries])
            for g in _automorphisms(S)[1]]
    seen: set[tuple[int, ...]] = set()  # lines in the orbit of a built one
    for x0 in _projective_points(p, n):
        if x0 in seen:
            continue
        Sx = [sum(map(mul, row, x0)) for row in S.entries]
        if sum(map(mul, x0, Sx)) % p:
            continue
        seen |= _orbit(x0, gens, p)
        x, Sx = _lift_isotropic(S, list(x0), Sx, p)
        G = _neighbor_gram(S, x, Sx, p)
        if det(G) != d:
            raise AssertionError("neighbor determinant changed")
        reduced, _ = lll_reduce(G)
        if any(is_isometric(reduced, r) is not None for r in out):
            continue
        out.append(reduced)
        yield reduced


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

@dataclass(frozen=True, slots=True)
class GenusRecord:
    seed: GramMatrix
    prime_used: int
    classes: tuple[GramMatrix, ...]
    provenance: tuple[tuple[int, int], ...]  # neighbor-graph edges
    complete: bool
    mass_expected: Fraction | None  # None: not computed
    mass_found: Fraction  # sum of 1/|Aut| over the classes

    @property
    def mass_certified(self) -> bool:
        """Do the classes make up the mass of the genus?"""
        return self.mass_found == self.mass_expected

    def to_dict(self) -> dict:
        return {"schema_version": 1,
                "prime_used": self.prime_used,
                "classes": [ [list(r) for r in c.entries] for c in self.classes],
                "edges": [list(e) for e in self.provenance],
                "complete": self.complete,
                "mass_expected": _fraction_str(self.mass_expected),
                "mass_found": _fraction_str(self.mass_found),
                "mass_certified": self.mass_certified}


def _fraction_str(x: Fraction | None) -> str | None:
    return None if x is None else f"{x.numerator}/{x.denominator}"


def _genus_symbol(S: GramMatrix, splits: Sequence[JordanSplitting]) -> tuple:
    """Genus invariants at the primes of the Jordan splittings of S: their
    symbols, the determinant square class and the Hasse invariants."""
    inv = space_invariants(S)
    return (tuple(split.symbol() for split in splits), inv.det_class,
            tuple(inv.hasse_at(split.prime) for split in splits))


def enumerate_genus(S: GramMatrix, p: int, class_cap: int = 64,
                    aux_prime: int | None = None) -> GenusRecord:
    """Breadth-first neighbor closure from S at prime p, deduplicated by
    isometry, that stops as soon as the classes found make up the mass of
    the genus (mass_certified).  The closure at one good prime covers the
    spinor genus component; aux_prime, when given and the mass is not yet
    reached, runs a second closure to probe for further genus classes.
    Classes beyond the mass are an AssertionError."""
    from .mass import _mass  # loaded on first use, not by `import latrep`
    if not is_positive_definite(S):
        raise ValueError("genus enumeration needs a positive definite form")
    primes = [p] + ([aux_prime] if aux_prime else [])
    for prime in primes:
        _check_neighbor_prime(S, prime)
    # the primes of the mass formula: at a neighbour prime, or any other
    # prime not dividing 2 det(S), every form of rank n and determinant
    # det(S) is unimodular with the same symbol and Hasse invariant 1
    check_primes = sorted({2} | factorint(det(S)).keys())
    seed_splits = [jordan_decomposition(S, q) for q in check_primes]
    seed_symbol = _genus_symbol(S, seed_splits)
    expected = _mass(S.n, det(S), seed_splits)
    found = Fraction(1, automorphism_group_order(S))
    classes, edges, complete = [S], [], True
    for prime in primes:
        queue = list(range(len(classes)))
        while queue and complete and found != expected:
            i = queue.pop(0)
            for nb in _neighbors(classes[i], prime):
                j = next((j for j, rep in enumerate(classes)
                          if is_isometric(nb, rep) is not None), None)
                if j is None:
                    # an isometric neighbour shares its class's symbol
                    splits = [jordan_decomposition(nb, q) for q in check_primes]
                    if _genus_symbol(nb, splits) != seed_symbol:
                        raise AssertionError("neighbor left the genus")
                    if len(classes) >= class_cap:
                        complete = False
                        break
                    classes.append(nb)
                    found += Fraction(1, automorphism_group_order(nb))
                    j = len(classes) - 1
                    queue.append(j)
                edges.append((i, j))
                if found == expected:
                    break
    if expected is not None and found > expected:
        raise AssertionError("classes beyond the mass of the genus")
    return GenusRecord(seed=S, prime_used=p, classes=tuple(classes),
                       provenance=tuple(edges), complete=complete,
                       mass_expected=expected, mass_found=found)


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
