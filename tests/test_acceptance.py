"""Acceptance suite: end-to-end checks against independent oracles.

Each test prints one summary line of the form

    ACCEPTANCE <name>: PASS|FAIL

directly to the real stdout so the verdicts survive pytest's capture.
"""

import random

import pytest
from sympy import factorint

from oracles import (box_minimum, box_vectors_of_norm, classical_three_squares,
                     draw_local_instance, hilbert_oracle, local_rep_oracle,
                     random_pos_def_entries)

from latrep.enumeration import (Embedding, extend_representation,
                                find_representations, lattice_minimum,
                                vectors_of_norm)
from latrep.genus import enumerate_genus
from latrep.localrep import (REPRESENTABLE, UNDECIDED,
                             represents_locally_everywhere, represents_over_Zp)
from latrep.matrices import GramMatrix, IntMatrix, gram_of_columns
from latrep.padic import REAL, Place, hilbert_symbol
from latrep.reports import scan_family

E8 = GramMatrix([
    [2, -1, 0, 0, 0, 0, 0, 0],
    [-1, 2, -1, 0, 0, 0, 0, 0],
    [0, -1, 2, -1, 0, 0, 0, 0],
    [0, 0, -1, 2, -1, 0, 0, 0],
    [0, 0, 0, -1, 2, -1, 0, -1],
    [0, 0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, 0, -1, 2, 0],
    [0, 0, 0, 0, -1, 0, 0, 2]])


@pytest.fixture
def verdict(capfd):
    """One pass/fail line per criterion, printed past pytest's capture."""
    def announce(name: str, ok: bool) -> None:
        with capfd.disabled():
            print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}", flush=True)
        assert ok, name
    return announce


def square_divisor_bound(t: int) -> int:
    """Largest d with d^2 | t: any rank-1 representation of t has
    imprimitivity divisor dividing this, so bounded-divisor search with
    this c decides the unbounded question."""
    c = 1
    for p, v in factorint(t).items():
        c *= p ** (v // 2)
    return c


def test_acceptance_three_squares(verdict):
    S = GramMatrix.identity(3)
    ok = True
    for t in range(1, 201):
        c = square_divisor_bound(t)
        T = GramMatrix.diagonal([t])
        certs = represents_locally_everywhere(S, T, c)
        local = all(cert.status == REPRESENTABLE for cert in certs.values())
        globl = bool(find_representations(S, T, c, limit=1))
        classical = classical_three_squares(t)
        if not (local == globl == classical):
            ok = False
            break
    verdict("three-squares", ok)


def test_acceptance_four_squares(verdict):
    S = GramMatrix.identity(4)
    ok = True
    for t in range(1, 501):
        c = square_divisor_bound(t)
        T = GramMatrix.diagonal([t])
        certs = represents_locally_everywhere(S, T, c)
        local = all(cert.status == REPRESENTABLE for cert in certs.values())
        globl = bool(find_representations(S, T, c, limit=1))
        if not (local and globl):
            ok = False
            break
    verdict("four-squares", ok)


def test_acceptance_hilbert(verdict):
    ok = True
    # exhaustive product formula on the grid
    for a in range(-30, 31):
        for b in range(-30, 31):
            if a == 0 or b == 0:
                continue
            places = {REAL}
            for p in {2, *factorint(abs(a)), *factorint(abs(b))}:
                places.add(Place.finite(p))
            prod = 1
            for v in places:
                prod *= hilbert_symbol(a, b, v)
            if prod != 1:
                ok = False
    # sampled agreement with the exhaustive mod-p^k oracle; valuations are
    # kept small so the oracle's p^{2k} pair scan stays desk-scale
    rand = random.Random(97)
    checked = 0
    while ok and checked < 500:
        p = rand.choice([2, 3, 5])
        vcap = 0 if p == 5 else 1
        def draw():
            while True:
                x = rand.randint(-50, 50)
                if x == 0:
                    continue
                v = 0
                y = abs(x)
                while y % p == 0:
                    y //= p
                    v += 1
                if v <= vcap:
                    return x
        a, b = draw(), draw()
        expect = hilbert_oracle(a, b, p)
        got = hilbert_symbol(a, b, Place.finite(p)) == 1
        if got != expect:
            ok = False
        checked += 1
    verdict("hilbert-reciprocity", ok)


def test_acceptance_local_certificates(verdict):
    rand = random.Random(20260823)
    ok = True
    for _ in range(500):
        p, S_rows, T_rows, c, N = draw_local_instance(rand)
        S, T = GramMatrix(S_rows), GramMatrix(T_rows)
        cert = represents_over_Zp(S, T, p, c)
        if cert.status == UNDECIDED:
            ok = False
            break
        expect = local_rep_oracle(S_rows, T_rows, p, c, N + 2,
                                  pair_cap=4_000_000)
        if expect == "unknown":
            continue  # oracle margin too small to certify; no verdict
        if cert.representable != (expect == "representable"):
            ok = False
            break
    verdict("local-certificates", ok)


def test_acceptance_local_certificates_rank2(verdict):
    # every draw above has a rank-1 target under its size filter; these
    # have rank-2 targets, with the oracle at the search's first precision
    # N, where its walk over column pairs stays under a few seconds a draw
    rand = random.Random(20261019)
    ok = True
    seen = set()
    for _ in range(150):
        p, S_rows, T_rows, c, N = draw_local_instance(rand, rank=2, extra=0,
                                                      cap=1_000_000)
        S, T = GramMatrix(S_rows), GramMatrix(T_rows)
        cert = represents_over_Zp(S, T, p, c)
        expect = local_rep_oracle(S_rows, T_rows, p, c, N, pair_cap=1_000_000)
        seen.add(expect)
        if cert.status == UNDECIDED or (
                expect != "unknown"
                and cert.representable != (expect == "representable")):
            ok = False
            break
    ok = ok and {"representable", "not_representable"} <= seen
    verdict("local-certificates-rank2", ok)


def test_acceptance_genus(verdict):
    ok = True
    for n in range(2, 9):
        record = enumerate_genus(GramMatrix.identity(n), 3)
        if not record.complete or len(record.classes) != 1:
            ok = False
    e8 = enumerate_genus(E8, 3)
    if not e8.complete or len(e8.classes) != 1:
        ok = False
    i9 = enumerate_genus(GramMatrix.identity(9), 3)
    if not i9.complete or len(i9.classes) != 2:
        ok = False
    else:
        # the two classes are told apart by their count of minimal vectors
        counts = sorted(len(vectors_of_norm(c, lattice_minimum(c)).vectors)
                        for c in i9.classes)
        if counts != [1, 9]:
            ok = False
    verdict("genus-class-numbers", ok)


def test_acceptance_enumeration(verdict):
    rand = random.Random(5150)
    ok = True
    done = 0
    while done < 100:
        n = rand.randint(1, 5)
        rows = random_pos_def_entries(rand, n, spread=2, bump=2)
        if any(abs(x) > 12 for r in rows for x in r):
            continue
        S = GramMatrix(rows)
        mu = lattice_minimum(S)
        if mu != box_minimum(rows):
            ok = False
            break
        for t in (mu, mu + 1, mu + rand.randint(2, 5)):
            mine = set(vectors_of_norm(S, t).vectors)
            theirs = set(box_vectors_of_norm(rows, t))
            if mine != theirs:
                ok = False
                break
        if not ok:
            break
        done += 1
    verdict("enumeration-vs-box", ok)


def test_acceptance_scan(verdict):
    result = scan_family(GramMatrix.identity(8), "diag2:40",
                         q=3, j=1, c=1, neighbor_prime=3)
    ok = (len(result.rows) == 820
          and result.exceptions == ()
          and result.empirical_C == 0)
    verdict("theorem-scan", ok)


def test_acceptance_two_class_scan(verdict):
    # the genus of I9 has two classes, I9 and E8 + I1.  In E8 + I1 the only
    # norm-1 vectors are +-e (e spanning I1) and E8 is even, so among the
    # locally admissible rows exactly diag(1, b) with b odd is missed
    result = scan_family(GramMatrix.identity(9), "diag2:10",
                         q=3, j=1, c=1, neighbor_prime=3)
    admissible = [r for r in result.rows if r.local_ok]
    predicted = tuple(r.target for r in admissible
                      if r.target[0] == 1 and r.target[1] % 2)
    ok = (len(result.rows) == 55
          and len(admissible) == 42
          and all(r.classes_total == 2 for r in admissible)
          and result.genus_mass_certified
          and result.exceptions == predicted == ((1, 1), (1, 3), (1, 5), (1, 7))
          and result.empirical_C == 1)
    verdict("two-class-scan", ok)


def test_acceptance_extension(verdict):
    S4 = GramMatrix.identity(4)
    sigma = Embedding.build(S4, GramMatrix.diagonal([1]),
                            IntMatrix([[1], [0], [0], [0]]))
    glue = IntMatrix([[1], [0]])
    T_M = GramMatrix.diagonal([1, 3])
    tau = extend_representation(S4, sigma, T_M, glue)
    ok = (tau is not None
          and (tau.X @ glue).entries == sigma.X.entries
          and gram_of_columns(S4, tau.X).entries == T_M.entries)
    # same request inside I2 must fail: nothing of norm 3 is orthogonal
    # to e1 there
    S2 = GramMatrix.identity(2)
    sigma2 = Embedding.build(S2, GramMatrix.diagonal([1]),
                             IntMatrix([[1], [0]]))
    if extend_representation(S2, sigma2, T_M, glue) is not None:
        ok = False
    verdict("extension-corollary", ok)
