"""Sums of three squares, locally and globally.

A number t is a sum of three squares exactly when it is not of the form
4^a (8b + 7).  This script rediscovers that rule with the library: for
each t it asks whether diag(t) is represented by I3 over every completion
(allowing representations whose imprimitivity divisor d satisfies
d^2 | t, the most any rank-1 representation can carry), then looks for an
actual integer witness, and prints the few t where the story is decided
at the prime 2.
"""

from latrep import (GramMatrix, REPRESENTABLE, find_representations,
                    represents_locally_everywhere)
from latrep.primes import factorint

I3 = GramMatrix.identity(3)


def divisor_bound(t):
    c = 1
    for p, v in factorint(t).items():
        c *= p ** (v // 2)
    return c


def main():
    print("t  | local everywhere | witness")
    print("---+------------------+--------")
    for t in range(1, 33):
        c = divisor_bound(t)
        T = GramMatrix.diagonal([t])
        certs = represents_locally_everywhere(I3, T, c)
        local = all(cert.status == REPRESENTABLE for cert in certs.values())
        embs = find_representations(I3, T, c, limit=1)
        witness = "-"
        if embs:
            (col,) = zip(*embs[0].X.entries)
            witness = "%d^2 + %d^2 + %d^2" % tuple(abs(x) for x in col)
        print("%2d |       %s        | %s" % (t, "yes" if local else "no ",
                                              witness))
        assert local == bool(embs), "local-global failure would be news"
        if not local:
            bad = [str(p) for p, cert in sorted(certs.items())
                   if cert.status != REPRESENTABLE]
            print("   |  obstruction at place(s): %s" % ", ".join(bad))


if __name__ == "__main__":
    main()
