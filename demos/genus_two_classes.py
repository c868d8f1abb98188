"""A genus with two classes, and the targets that tell them apart.

The binary forms x^2 + 17y^2 and 2x^2 + 2xy + 9y^2 share all their local
invariants (same genus) but are not equivalent over Z.  Enumerating
3-neighbors starting from diag(1, 17) finds both classes; asking which
class represents which number shows the classical phenomenon of a number
represented by the genus but not by every class in it.
"""

from latrep import GramMatrix, enumerate_genus, represented_by_all_classes

def main():
    S = GramMatrix.diagonal([1, 17])
    record = enumerate_genus(S, 3)
    print("genus of diag(1, 17), closed under 3-neighbors:")
    for i, cls in enumerate(record.classes):
        print("  class %d: %s" % (i + 1, [list(r) for r in cls.entries]))
    print("the sum of 1/|Aut| over them is %s; the mass of the genus is %s"
          % (record.mass_found, record.mass_expected))
    print()

    print(" t | represented by each class (primitively)")
    print("---+----------------------------------------")
    for t in range(1, 25):
        out = represented_by_all_classes(record, GramMatrix.diagonal([t]), 1)
        marks = ["yes" if ok else "no " for _, ok in sorted(
            out.items(), key=lambda kv: str(kv[0]))]
        note = ""
        if any(out.values()) and not all(out.values()):
            note = "  <- genus represents t, one class does not"
        print("%2d | %s%s" % (t, "  ".join(marks), note))


if __name__ == "__main__":
    main()
