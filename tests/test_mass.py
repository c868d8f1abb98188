import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from oracles import genus_closure_oracle, random_pos_def_entries
from test_genus import E8
from test_properties import PROPERTY_SETTINGS, lattice_and_basis_change

from latrep.genus import automorphism_group_order, enumerate_genus
from latrep.mass import _bernoulli, _kronecker, _oddity, genus_mass
from latrep.matrices import GramMatrix, det, gram_of_columns

W_E8 = 696_729_600


def test_bernoulli_numbers():
    assert _bernoulli(12) == [
        Fraction(1), Fraction(-1, 2), Fraction(1, 6), 0, Fraction(-1, 30), 0,
        Fraction(1, 42), 0, Fraction(-1, 30), 0, Fraction(5, 66), 0,
        Fraction(-691, 2730)]


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
