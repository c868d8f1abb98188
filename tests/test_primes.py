"""latrep.primes against sympy, which serves here as an independent oracle."""

import random
from itertools import count, islice

import pytest
import sympy

from latrep.primes import _PSI, _SMALL_PRIMES, _strong_prp, factorint, isprime

# the least strong pseudoprimes to the first 1, 4, 9, 12 and 13 prime bases
STRONG_PSEUDOPRIMES = [2047, 3215031751, 3825123056546413051,
                       318665857834031151167461, 3317044064679887385961981]
# 30-bit primes, above the trial-division bound
P30, Q30 = 1073741789, 1073741827


def _sympy_factorint(n):
    return dict(sorted(sympy.factorint(n).items()))


def test_isprime_below_1e5():
    assert [n for n in range(-100, 100_000)
            if isprime(n) != sympy.isprime(n)] == []


def test_isprime_random_up_to_1e30():
    rand = random.Random(9)
    for _ in range(5000):
        n = rand.randrange(1, 10 ** rand.randint(4, 30))
        assert isprime(n) == sympy.isprime(n), n
    # few of those are prime, so add primes, semiprimes and squares on
    # both sides of the Miller-Rabin bound
    for _ in range(200):
        p = sympy.randprime(10 ** 6, 10 ** rand.randint(7, 40))
        q = sympy.randprime(10 ** 3, 10 ** rand.randint(4, 20))
        assert isprime(p)
        assert not isprime(p * q)
        assert not isprime(p * p)


def test_pseudoprime_table():
    # psi_k is composite and a strong probable prime to the first k bases
    for k, n in enumerate(_PSI, 1):
        assert not sympy.isprime(n)
        assert all(_strong_prp(n, a) for a in _SMALL_PRIMES[:k]), k


@pytest.mark.parametrize("n", STRONG_PSEUDOPRIMES)
def test_strong_pseudoprimes(n):
    assert not isprime(n) and not sympy.isprime(n)
    assert factorint(n) == _sympy_factorint(n)


def test_carmichael_numbers():
    small = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,
             321197185, 5394826801, 232250619601, 9746347772161]
    # Chernick's (6k+1)(12k+1)(18k+1), with all three factors prime
    chernick = list(islice(
        ((6 * k + 1) * (12 * k + 1) * (18 * k + 1) for k in count(1)
         if all(sympy.isprime(a * k + 1) for a in (6, 12, 18))), 40))
    for n in small + chernick:
        assert all(pow(a, n - 1, n) == 1 for a in (2, 3, 5, 7) if n % a)
        assert not isprime(n)
        assert factorint(n) == _sympy_factorint(n)


@pytest.mark.parametrize("n, expected", [
    (1009 ** 2, {1009: 2}),
    (1009 ** 3 * 1013, {1009: 3, 1013: 1}),
    (P30 * Q30, {P30: 1, Q30: 1}),
    (2 ** 3 * P30 ** 2 * Q30, {2: 3, P30: 2, Q30: 1}),
])
def test_factorint_above_trial_bound(n, expected):
    assert factorint(n) == expected
    assert list(factorint(n)) == sorted(expected)


def test_bpsw_branch():
    m127 = 2 ** 127 - 1
    assert isprime(m127)
    assert not isprime((2 ** 61 - 1) * (2 ** 89 - 1))
    for e in (521, 607, 1279):
        assert isprime(2 ** e - 1)
    assert not isprime(2 ** 523 - 1)
    assert not isprime(m127 * m127)


def test_factorint_below_1e5():
    for n in range(1, 100_000):
        f = factorint(n)
        assert f == _sympy_factorint(n), n
        assert list(f) == sorted(f)


def test_factorint_random_up_to_1e18():
    rand = random.Random(18)
    for _ in range(500):
        n = rand.randrange(1, 10 ** 18)
        assert factorint(n) == _sympy_factorint(n), n


def test_zero_one_and_negatives():
    assert not isprime(0) and not isprime(1)
    assert not any(isprime(-n) for n in (1, 2, 3, 7, 1009, 2 ** 127 - 1))
    assert not isprime(2.0) and not isprime("7")
    assert isprime(sympy.Integer(7))
    assert factorint(1) == {}
    assert factorint(-1) == {-1: 1}
    assert factorint(-12) == {-1: 1, 2: 2, 3: 1} == _sympy_factorint(-12)
    with pytest.raises(ValueError):
        factorint(0)
