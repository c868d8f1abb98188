import random
from fractions import Fraction
from math import factorial, isqrt

import pytest
from hypothesis import given
from oracles import genus_closure_oracle, mass_oracle, random_pos_def_entries
from test_genus import E8
from test_properties import PROPERTY_SETTINGS, lattice_and_basis_change

import latrep.mass
from latrep.genus import automorphism_group_order, enumerate_genus
from latrep.mass import _bernoulli, _kronecker, _mass, _oddity, genus_mass
from latrep.matrices import GramMatrix, det, gram_of_columns
from latrep.padic import jordan_decomposition
from latrep.primes import factorint

W_E8 = 696_729_600


def test_bernoulli_numbers():
    assert _bernoulli(12) == [
        Fraction(1), Fraction(-1, 2), Fraction(1, 6), 0, Fraction(-1, 30), 0,
        Fraction(1, 42), 0, Fraction(-1, 30), 0, Fraction(5, 66), 0,
        Fraction(-691, 2730)]


def test_bernoulli_table_independent_of_call_order():
    """The table behind _bernoulli grows on demand: the values do not
    depend on the order of the calls, and a returned list is the
    caller's own."""
    first = _bernoulli(20)
    assert first[20] == Fraction(-174611, 330)
    assert _bernoulli(4) == first[:5]
    assert _bernoulli(12) == first[:13]
    first[2] = Fraction(7)
    _bernoulli(4).append(Fraction(0))
    assert _bernoulli(20)[2] == Fraction(1, 6)
    assert _bernoulli(4) == [Fraction(1), Fraction(-1, 2), Fraction(1, 6), 0,
                             Fraction(-1, 30)]


def test_kronecker_symbol():
    # (D/2) by D mod 8, and the Legendre symbol at odd primes
    assert [_kronecker(D, 2) for D in (1, 7, 3, 5, 4, -1, -3)] == \
        [1, 1, -1, -1, 0, 1, -1]
    for p in (3, 5, 7, 11):
        squares = {x * x % p for x in range(1, p)}
        for a in range(-15, 15):
            expect = 0 if a % p == 0 else (1 if a % p in squares else -1)
            assert _kronecker(a, p) == expect


def test_oddity_is_the_trace_of_a_diagonal_form():
    rand = random.Random(5)
    for _ in range(200):
        u = [rand.choice((1, 3, 5, 7)) + 8 * rand.randint(0, 3)
             for _ in range(rand.randint(1, 5))]
        assert _oddity(GramMatrix.diagonal(u)) == sum(u) % 8, u


def test_mass_of_known_genera():
    """E8, and I_n for n <= 12 from their class lists: I_n alone up to
    n = 8, then E8 + I_(n-8), and for n = 12 also D12+, whose group has
    index 2 in the signed permutations."""
    assert genus_mass(E8) == Fraction(1, W_E8)
    for n in range(1, 13):
        orders = [2 ** n * factorial(n)]
        if n >= 9:
            orders.append(W_E8 * 2 ** (n - 8) * factorial(n - 8))
        if n == 12:
            orders.append(2 ** 11 * factorial(12))
        assert genus_mass(GramMatrix.identity(n)) == \
            sum(Fraction(1, a) for a in orders), n


def _dynkin(n, branch=None):
    """The Gram matrix of a root lattice with simply laced Dynkin diagram:
    a path, and when branch is given, one more node joined to the node at
    that index of a path of n - 1 nodes."""
    G = [[2 * (i == j) for j in range(n)] for i in range(n)]
    edges = [(i, i + 1) for i in range(n - 1 - (branch is not None))]
    if branch is not None:
        edges.append((branch, n - 1))
    for i, j in edges:
        G[i][j] = G[j][i] = -1
    return GramMatrix(G)


def test_mass_of_root_lattices():
    """Each of these genera has one class, so the mass is 1/|Aut|, with
    the classical orders |W| times the symmetries of the diagram.  D_n and
    E7 reach several 2-adic scales, A_n and E6 odd primes of the det."""
    cases = [(_dynkin(2), 12), (_dynkin(4), 240), (_dynkin(6), 10080),
             (_dynkin(4, 1), 1152), (_dynkin(5, 2), 3840),
             (_dynkin(6, 3), 46080), (_dynkin(6, 2), 103680),
             (_dynkin(7, 2), 2903040)]
    for S, order in cases:
        assert automorphism_group_order(S) == order, S.entries
        assert genus_mass(S) == Fraction(1, order), S.entries


def test_mass_matches_fraction_oracle(monkeypatch):
    """The integer formula against the Fraction one it replaced
    (oracles.mass_oracle), exactly, on seeded genera of rank 1..8 with det
    at most 10^6: a third of them D G D with D diagonal over {1, 2, 4}, so
    that several 2-adic scales occur, and a third with one basis vector
    scaled by 3, 5 or 7, so that an odd prime squared divides the det.
    Even ranks whose (-1)^(n/2) det is not a square run the character sum;
    above the conductor bound, whether 100,000 or a patched 30, both
    give None."""
    rand = random.Random(1217)
    seen = {"scales_at_2": 0, "odd_square": 0, "character_sum": 0,
            "none": 0}
    even = []
    done = 0
    while done < 240:
        n = rand.randint(1, 8)
        G = random_pos_def_entries(rand, n, spread=2 if n <= 5 else 1, bump=3)
        D = [1] * n
        if done % 3 == 1:
            D = [rand.choice((1, 2, 4)) for _ in range(n)]
        elif done % 3 == 2:
            D[rand.randrange(n)] = rand.choice((3, 5, 7))
        S = GramMatrix([[D[i] * G[i][j] * D[j] for j in range(n)]
                        for i in range(n)])
        d = det(S)
        if d > 10 ** 6:
            continue
        splits = [jordan_decomposition(S, q)
                  for q in sorted({2} | factorint(d).keys())]
        expected = mass_oracle(n, d, splits)
        assert _mass(n, d, splits) == expected, S.entries
        if expected is None:
            seen["none"] += 1
            with pytest.raises(ValueError):
                genus_mass(S)
        else:
            assert genus_mass(S) == expected, S.entries
        seen["scales_at_2"] += len(splits[0].components) >= 3
        seen["odd_square"] += any(d % (q * q) == 0 for q in (3, 5, 7))
        D_n = (-1) ** (n // 2) * d
        if n % 2 == 0 and (D_n < 0 or isqrt(D_n) ** 2 != D_n):
            seen["character_sum"] += 1
            even.append((n, d, splits))
        done += 1
    assert min(seen.values()) >= 5, seen
    monkeypatch.setattr(latrep.mass, "_MAX_CONDUCTOR", 30)
    patched = [(_mass(*case), mass_oracle(*case, max_conductor=30))
               for case in even]
    assert all(got == want for got, want in patched)
    assert 0 < sum(got is None for got, _ in patched) < len(patched)


def test_mass_equals_neighbor_closure():
    """On seeded genera of rank 2..4, half of them D G D with D diagonal
    over {1, 2, 4} so that many 2-adic scales occur: the mass equals the
    sum of 1/|Aut| over a plain closure at two primes, and enumerate_genus
    returns that closure's classes in its order, certified."""
    rand = random.Random(1988)
    det_bound = {2: 2000, 3: 600, 4: 250}
    done = 0
    while done < 160:
        n = rand.randint(2, 4)
        G = random_pos_def_entries(rand, n, spread=1, bump=2)
        if done % 2:
            D = [rand.choice((1, 2, 4)) for _ in range(n)]
            G = [[D[i] * G[i][j] * D[j] for j in range(n)] for i in range(n)]
        S = GramMatrix(G)
        d = det(S)
        if d > det_bound[n]:
            continue
        p, q = [p for p in (3, 5, 7, 11, 13) if d % p][:2]
        classes = genus_closure_oracle(S, (p, q))
        mass = sum(Fraction(1, automorphism_group_order(L)) for L in classes)
        assert genus_mass(S) == mass, G
        record = enumerate_genus(S, p, aux_prime=q)
        assert [L.entries for L in record.classes] == \
            [L.entries for L in classes], G
        assert record.mass_certified and record.mass_found == mass
        done += 1


@PROPERTY_SETTINGS
@given(lattice_and_basis_change())
def test_mass_unchanged_by_basis_change(case):
    S, U = case
    assert genus_mass(gram_of_columns(S, U)) == genus_mass(S)


def test_mass_rejects_indefinite_forms():
    with pytest.raises(ValueError):
        genus_mass(GramMatrix.diagonal([1, -1]))
