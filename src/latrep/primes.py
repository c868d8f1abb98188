"""Primality and integer factorisation, with ints only.

isprime: trial division by the primes below 1000, then the strong
probable-prime (Miller-Rabin) test to the first k prime bases, where k is
the least count with no strong pseudoprime to those bases up to n (OEIS
A014233, Sorenson-Webster 2017); 13 bases suffice below
3,317,044,064,679,887,385,961,981.  From that bound on it runs BPSW: the
strong test to base 2 and a strong Lucas test with Selfridge's parameters
(Baillie-Wagstaff 1980), for which no pseudoprime is known.

factorint: trial division by the same primes, then Pollard's rho with
Brent's cycle detection on what is left, with isprime deciding when to
stop.
"""

from __future__ import annotations

from bisect import bisect_right
from math import gcd, isqrt, prod
from operator import index

_TRIAL_BOUND = 1000
_SMALL_PRIMES = tuple(p for p in range(2, _TRIAL_BOUND)
                      if all(p % q for q in range(2, isqrt(p) + 1)))
_SMALL_SET = frozenset(_SMALL_PRIMES)
_PRIMORIAL = prod(_SMALL_PRIMES)
# the least strong pseudoprime to all of the first k prime bases, k = 1..13
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 341550071728321, 3825123056546413051,
        3825123056546413051, 3825123056546413051, 318665857834031151167461,
        3317044064679887385961981)


def _strong_prp(n: int, a: int) -> bool:
    """Is the odd n > a a strong probable prime to base a?"""
    d = n - 1
    s = (d & -d).bit_length() - 1
    x = pow(a, d >> s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    t = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def _strong_lucas_prp(n: int) -> bool:
    """Strong Lucas probable-prime test with Selfridge's parameters: D the
    first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1, Q = (1 - D)/4.
    n is odd, not a square and has no prime factor below 1000."""
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0:  # |D| < n, so gcd(D, n) is a proper factor
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    d = (n + 1) >> s

    def half(x: int) -> int:
        return (x + n if x % 2 else x) // 2 % n

    # U_k, V_k and Q^k for the prefixes k of d's binary expansion, P = 1
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def isprime(n) -> bool:
    """Is n a prime?  False for every non-integer, 0, 1 and negative n."""
    try:
        n = index(n)
    except TypeError:
        return False
    if n < _TRIAL_BOUND:
        return n in _SMALL_SET
    if gcd(n, _PRIMORIAL) != 1:
        return False
    if n < _TRIAL_BOUND * _TRIAL_BOUND:
        return True
    if n < _PSI[-1]:
        k = bisect_right(_PSI, n) + 1
        return all(_strong_prp(n, a) for a in _SMALL_PRIMES[:k])
    r = isqrt(n)
    return r * r != n and _strong_prp(n, 2) and _strong_lucas_prp(n)


def _rho(n: int) -> int:
    """A proper divisor of the odd composite n, by Pollard's rho with
    Brent's cycle detection on x -> x^2 + c, c = 1, 2, ..."""
    batch = 128
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(batch, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += batch
            r *= 2
        if g == n:  # the batch overshot: step back one value at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def factorint(n) -> dict[int, int]:
    """{prime: exponent} of n, in ascending order of the primes; a negative
    n gets the key -1, and 1 gives {}.  ValueError on 0."""
    n = index(n)
    if n == 0:
        raise ValueError("0 has no factorisation")
    out: dict[int, int] = {}
    if n < 0:
        out[-1] = 1
        n = -n
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
    large: dict[int, int] = {}
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if isprime(m):
            large[m] = large.get(m, 0) + 1
        else:
            g = _rho(m)
            stack += [g, m // g]
    for p in sorted(large):
        out[p] = large[p]
    return out
