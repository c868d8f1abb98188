"""The four benchmark workloads: seeded inputs, the timed calls into
latrep's public API, and the output checks.

Each workload is a class with three steps, run by ``worker.py`` in a fresh
process:

* ``inputs(rng)`` builds the inputs from a seeded ``random.Random``; latrep
  receives nothing else.
* ``run(inputs, tracer)`` makes the timed calls, one item at a time, and
  returns plain-data outputs (``ItemError`` for an item that raised), the
  ``(start, end)`` clock readings of each item and a dict of extra data,
  where ``phases`` maps names to further ``(start, end)`` intervals.
* ``check(inputs, outputs)`` compares the outputs with independent oracles
  and returns ``(failed_items, notes)``; it runs outside the timed phase.

The timed calls go through the ``latrep`` package namespace at call time,
so the tracer, which rebinds that namespace, sees them.  Why each workload
exists, what an item is and what the seed controls is written up in
``perfbench/README.md``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from math import gcd

import latrep
import reference
from latrep import GramMatrix

clock = time.perf_counter


@dataclass(frozen=True)
class ItemError:
    message: str


def random_unimodular(rng, n: int) -> list[list[int]]:
    """A seeded random matrix in GL_n(Z): 2n elementary column operations
    with coefficient +-1 applied to the identity."""
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        f = rng.choice((-1, 1))
        for row in U:
            row[i] += f * row[j]
    return U


def random_signed_permutation(rng, n: int) -> list[list[int]]:
    P = [[0] * n for _ in range(n)]
    for i, j in enumerate(rng.sample(range(n), n)):
        P[i][j] = rng.choice((-1, 1))
    return P


def matmul(A, B) -> list[list[int]]:
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)]
            for row in A]


def gram_of(U) -> list[list[int]]:
    """Gram matrix U^t U of I_n in the basis given by the columns of U."""
    return matmul([list(col) for col in zip(*U)], U)


def random_basis_of_In(rng, n: int) -> list[list[int]]:
    """Gram matrix of I_n in a seeded random basis."""
    return gram_of(random_unimodular(rng, n))


def _run_items(calls, tracer):
    outputs, intervals = [], []
    for k, call in enumerate(calls):
        if tracer is not None:
            tracer.item = k
        t0 = clock()
        try:
            out = call()
        except Exception as exc:  # an item that raises is a failed item
            out = ItemError(f"{type(exc).__name__}: {exc}")
        intervals.append((t0, clock()))
        outputs.append(out)
    return outputs, intervals


def _note(notes: list[str], k, text: str) -> None:
    if len(notes) < 5:
        notes.append(f"item {k}: {text}")


class Genus:
    """enumerate_genus on I_n (n = 2..6 at p = 3, n = 2..5 at p = 5), each
    case in ``BASES`` bases.  Item: one closure.

    Each case has one fixed skewed basis U (drawn from a constant seed);
    the workload seed sets the signed permutation P of each basis UP.  A
    fully random basis per seed made the cost of the largest closures swing
    by about 15% between seeds, which would hide the changes this workload
    is meant to show; signed permutations keep the skew and vary the order
    in which LLL meets the vectors."""

    CASES = [(3, n) for n in range(2, 7)] + [(5, n) for n in range(2, 6)]
    BASES = 2

    def inputs(self, rng):
        out = []
        for p, n in self.CASES:
            U = random_unimodular(random.Random(f"genus-basis:{p}:{n}"), n)
            for _ in range(self.BASES):
                P = random_signed_permutation(rng, n)
                out.append((p, gram_of(matmul(U, P))))
        return out

    def run(self, inputs, tracer=None):
        grams = [(p, GramMatrix(S)) for p, S in inputs]
        outputs, intervals = _run_items(
            [lambda p=p, S=S: latrep.enumerate_genus(S, p) for p, S in grams],
            tracer)
        return [o if isinstance(o, ItemError) else (o.complete, len(o.classes))
                for o in outputs], intervals, {}

    def check(self, inputs, outputs):
        failed, notes = 0, []
        for k, out in enumerate(outputs):
            if out != (True, 1):
                failed += 1
                _note(notes, k, f"expected one class, complete; got {out}")
        return failed, notes


class Scan:
    """scan_family(I6, diag2:40 as a custom iterable, q=3, j=1, c=1,
    neighbor_prime=3) in the standard basis; the seed sets the target
    order.  Item: one row, timed by the gaps between pulls."""

    BOUND = 40
    ROWS = 820
    LOCAL_OK = 621

    def inputs(self, rng):
        targets = [(a, b) for a in range(1, self.BOUND + 1)
                   for b in range(a, self.BOUND + 1)]
        rng.shuffle(targets)
        return targets

    def run(self, inputs, tracer=None):
        grams = [GramMatrix.diagonal(t) for t in inputs]
        pulls: list[float] = []

        def family():
            for k, T in enumerate(grams):
                pulls.append(clock())
                if tracer is not None:
                    tracer.item = k
                yield T
            pulls.append(clock())

        start = clock()
        try:
            result = latrep.scan_family(GramMatrix.identity(6), family(), q=3,
                                        j=1, c=1, neighbor_prime=3)
        except Exception as exc:  # every row counts as failed
            pulls.append(clock())
            rows = [ItemError(f"{type(exc).__name__}: {exc}")] * len(inputs)
        else:
            rows = [(r.target, r.local_ok, r.mu, r.classes_total,
                     r.classes_representing, r.exception) for r in result.rows]
        return rows, list(zip(pulls, pulls[1:])), {
            "phases": {"genus_closure": (start, pulls[0])}}

    def check(self, inputs, outputs):
        failed, notes = 0, []
        for k, target in enumerate(inputs):
            row = outputs[k] if k < len(outputs) else ItemError("missing row")
            if isinstance(row, ItemError):
                failed += 1
                _note(notes, k, row.message)
                continue
            got, local_ok, mu, total, representing, exception = row
            a, b = target
            ok = tuple(got) == (a, b) and not exception
            if local_ok:
                # I6 has class number 1 and min diag(a, b) = a for a <= b
                ok = ok and mu == a and total == representing == 1
            if not ok:
                failed += 1
                _note(notes, k, f"bad row {row} for target {target}")
        if len(outputs) > len(inputs):
            failed += len(outputs) - len(inputs)
            _note(notes, len(inputs), "extra rows")
        rows = [r for r in outputs if not isinstance(r, ItemError)]
        local_ok = sum(1 for r in rows if r[1])
        if len(rows) == self.ROWS and local_ok != self.LOCAL_OK:
            notes.append(f"{local_ok} rows local_ok, expected {self.LOCAL_OK}")
            failed += max(1, abs(local_ok - self.LOCAL_OK))
        return failed, notes


class Local:
    """represents_over_Zp(S, T, p, c, try_global=False) on seeded draws
    from the acceptance distribution.  Item: one certificate."""

    DRAWS = 10_000

    def inputs(self, rng):
        return [reference.draw_local_instance(rng)[:4]
                for _ in range(self.DRAWS)]

    def run(self, inputs, tracer=None):
        grams = [(GramMatrix(S), GramMatrix(T), p, c) for p, S, T, c in inputs]
        outputs, intervals = _run_items(
            [lambda a=a: latrep.represents_over_Zp(*a, try_global=False)
             for a in grams], tracer)
        outputs = [o if isinstance(o, ItemError) else
                   (o.status, None if o.witness is None else o.witness.entries,
                    o.precision) for o in outputs]
        undecided = sum(1 for o in outputs
                        if not isinstance(o, ItemError) and o[0] == "undecided")
        return outputs, intervals, {"undecided": undecided}

    def check(self, inputs, outputs):
        failed, notes = 0, []
        for k, (inst, out) in enumerate(zip(inputs, outputs)):
            if isinstance(out, ItemError):
                failed += 1
                _note(notes, k, out.message)
                continue
            status, witness, precision = out
            if status == "representable":
                ok = reference.local_witness_ok(*inst, status, witness,
                                                precision)
            elif status == "not_representable":
                # the brute-force oracle refutes these draws in about
                # 0.1 ms each, so every negative is cross-checked
                p, S, T, c = inst
                N = reference.local_precision(p, S, T, c) + 2
                ok = reference.local_rep_oracle(
                    S, T, p, c, N, pair_cap=4_000_000) != "representable"
            else:  # "undecided" fails too, so giving up early cannot pass
                ok = False
            if not ok:
                failed += 1
                _note(notes, k, f"certificate fails to verify: {out}")
        return failed, notes


class Reps:
    """find_representations(I4, diag(t), c=1) with no limit for t = 1..60;
    each t gets its own seeded random basis of I4.  Item: one t."""

    T_MAX = 60

    def inputs(self, rng):
        return [(t, random_basis_of_In(rng, 4))
                for t in range(1, self.T_MAX + 1)]

    def run(self, inputs, tracer=None):
        grams = [(GramMatrix(S), GramMatrix.diagonal([t])) for t, S in inputs]
        outputs, intervals = _run_items(
            [lambda S=S, T=T: latrep.find_representations(S, T, 1)
             for S, T in grams], tracer)
        return [o if isinstance(o, ItemError) else
                [tuple(row[0] for row in e.X.entries) for e in o]
                for o in outputs], intervals, {}

    def check(self, inputs, outputs):
        failed, notes = 0, []
        for k, ((t, S), out) in enumerate(zip(inputs, outputs)):
            if isinstance(out, ItemError):
                failed += 1
                _note(notes, k, out.message)
                continue
            expect = reference.r4_primitive(t) // 2
            up_to_sign = {max(x, tuple(-v for v in x)) for x in out}
            ok = (len(out) == expect and len(up_to_sign) == len(out)
                  and all(reference.gram(S, [x]) == [[t]] for x in out)
                  and all(gcd(*x) == 1 for x in out))
            if not ok:
                failed += 1
                _note(notes, k, f"t={t}: {len(out)} representations, "
                                f"expected {expect}")
        return failed, notes


WORKLOADS = {"genus": Genus, "scan": Scan, "local": Local, "reps": Reps}
