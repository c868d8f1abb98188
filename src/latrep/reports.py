"""Hypothesis checking and family-scan experiments with machine-readable
reports.

check_theorem_hypotheses evaluates, for concrete (S, T, q, j, c, C), the
facts the representation theorem's hypotheses are about; the report
never claims the theorem, only the computed facts.  scan_family runs the
same pipeline over a family of targets and aggregates an empirical
substitute for the ineffective threshold constant.

Condition (i)'s isotropy at q needs no witness.  By Witt cancellation the
orthogonal complement W of T in S (x) Q_q is fixed up to isometry, with
d(W) = d(S) d(T) and c_q(W) = c_q(S) c_q(T) (d(T), d(W))_q, so it is
decided from space_invariants(S), taken once per call or scan, and the
det and Hasse symbol of T at q.  isotropy_method reports "shortcut" (rank
gap at least 5, or unit discriminants at an odd q with rank gap at least
3; at q = 2 that clause would be wrong, as the complement I3 of diag(1)
in I4 shows) or "invariants", and "skipped" when some local certificate
is not representable.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Iterator

from .enumeration import (Embedding, check_imprimitivity_bound,
                          find_representations, lattice_minimum)
from .genus import enumerate_genus
from .localrep import (REPRESENTABLE, UNDECIDED, auto_isotropy_shortcut,
                       represents_locally_everywhere)
from .matrices import GramMatrix, det, is_positive_definite
from .padic import (Place, SpaceInvariants, complement_isotropic, ord_p,
                    space_invariants)
from .primes import isprime


@dataclass(frozen=True, slots=True)
class HypothesisReport:
    rank_check: bool  # m <= n - 3
    condition_i: dict  # per-place status plus complement isotropy at q
    condition_i_ok: bool
    condition_ii: dict  # ord_q(det T) against j
    condition_ii_ok: bool
    condition_iii: dict  # mu(T) against the user-supplied C
    condition_iii_ok: bool
    globally_represented: bool
    witness: Embedding | None
    undecided: bool

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "rank_check": self.rank_check,
            "condition_i": self.condition_i,
            "condition_i_ok": self.condition_i_ok,
            "condition_ii": self.condition_ii,
            "condition_ii_ok": self.condition_ii_ok,
            "condition_iii": self.condition_iii,
            "condition_iii_ok": self.condition_iii_ok,
            "globally_represented": self.globally_represented,
            "witness": None if self.witness is None else self.witness.to_dict(),
            "undecided": self.undecided,
        }


def _isotropy_at_q(invS: SpaceInvariants, S: GramMatrix, T: GramMatrix,
                   q: int) -> tuple[bool, str]:
    """Complement isotropy at q: the automatic shortcut, else the
    complement's invariants from those of S and T."""
    if auto_isotropy_shortcut(S, T, q):
        return True, "shortcut"
    return complement_isotropic(invS, T, Place.finite(q)), "invariants"


def check_theorem_hypotheses(S: GramMatrix, T: GramMatrix, q: int, j: int,
                             c: int, C: int) -> HypothesisReport:
    """Evaluate conditions (i)-(iii) and the global search for (S, T, q, j, c, C)."""
    if not isprime(q):
        raise ValueError(f"{q} is not prime")
    check_imprimitivity_bound(c)
    if not is_positive_definite(S) or not is_positive_definite(T):
        raise ValueError("S and T must be positive definite")

    rank_check = T.n <= S.n - 3
    certs = represents_locally_everywhere(S, T, c)
    per_place = {str(p): cert.to_dict() for p, cert in sorted(certs.items())}
    all_rep = all(cert.status == REPRESENTABLE for cert in certs.values())
    undecided = any(cert.status == UNDECIDED for cert in certs.values())
    isotropic, how = (_isotropy_at_q(space_invariants(S), S, T, q) if all_rep
                      else (None, "skipped"))
    cond_i = {"places": per_place,
              "complement_isotropic_at_q": isotropic,
              "isotropy_method": how}
    cond_i_ok = all_rep and isotropic is True

    val = ord_p(det(T), q)
    cond_ii = {"ord_q_det_T": val, "j": j}
    cond_ii_ok = val <= j

    mu = lattice_minimum(T)
    cond_iii = {"minimum": mu, "C": C}
    cond_iii_ok = mu > C

    # represents_locally_everywhere already ran the global search; its
    # exact certificates carry the witness it found
    exact = next((cert for cert in certs.values() if cert.exact), None)
    witness = None if exact is None else Embedding.build(S, T, exact.witness)

    return HypothesisReport(rank_check=rank_check,
                            condition_i=cond_i, condition_i_ok=cond_i_ok,
                            condition_ii=cond_ii, condition_ii_ok=cond_ii_ok,
                            condition_iii=cond_iii, condition_iii_ok=cond_iii_ok,
                            globally_represented=witness is not None,
                            witness=witness, undecided=undecided)


# ---------------------------------------------------------------------------
# family scans

def parse_family(spec: str) -> tuple[str, Iterator[GramMatrix]]:
    """Family generator specs:

    rank1:B      all T = (t), 1 <= t <= B
    diag2:B      all T = diag(a, b), 1 <= a <= b <= B
    """
    kind, _, bound = spec.partition(":")
    if not bound.isdigit():
        raise ValueError(f"bad family spec {spec!r}")
    B = int(bound)
    if kind == "rank1":
        gen = (GramMatrix.diagonal([t]) for t in range(1, B + 1))
    elif kind == "diag2":
        gen = (GramMatrix.diagonal([a, b])
               for a in range(1, B + 1) for b in range(a, B + 1))
    else:
        raise ValueError(f"unknown family kind {kind!r}")
    return spec, gen


@dataclass(frozen=True, slots=True)
class ScanRow:
    target: tuple  # the diagonal of T
    gram: tuple[tuple[int, ...], ...]  # all of T
    det: int
    mu: int | None
    local_ok: bool
    classes_total: int | None
    classes_representing: int | None
    exception: bool
    undecided: bool = False  # a local certificate ran out of its budget

    def as_record(self) -> dict:
        return {"target": list(self.target),
                "gram": [list(row) for row in self.gram],
                "det": self.det, "mu": self.mu,
                "local_ok": self.local_ok,
                "classes_total": self.classes_total,
                "classes_representing": self.classes_representing,
                "exception": self.exception,
                "undecided": self.undecided}


@dataclass(frozen=True, slots=True)
class ScanResult:
    family: str
    q: int
    j: int
    c: int
    neighbor_prime: int
    rows: tuple[ScanRow, ...]
    empirical_C: int | None
    exceptions: tuple[tuple, ...]
    genus_mass_certified: bool  # the classes make up the genus mass
    resume_token: int | None = None
    undecided: bool = False  # some row is undecided

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "family": self.family,
            "q": self.q, "j": self.j, "c": self.c,
            "neighbor_prime": self.neighbor_prime,
            "rows": [r.as_record() for r in self.rows],
            "empirical_C": self.empirical_C,
            "exceptions": [list(e) for e in self.exceptions],
            "genus_mass_certified": self.genus_mass_certified,
            "resume_token": self.resume_token,
            "undecided": self.undecided,
        }


def scan_family(S: GramMatrix, family, q: int, j: int, c: int,
                neighbor_prime: int, class_cap: int = 64,
                max_rows: int | None = None, start: int = 0) -> ScanResult:
    """Run the full hypothesis pipeline over a family of targets.

    Targets failing condition (ii) or the local checks get a row with
    local_ok accordingly; targets passing both are tested against every
    class in the genus.  Deterministic for fixed inputs."""
    if not isprime(q):
        raise ValueError(f"{q} is not prime")
    check_imprimitivity_bound(c)
    if isinstance(family, str):
        family_desc, targets = parse_family(family)
    else:
        family_desc, targets = "custom", iter(family)

    genus = enumerate_genus(S, neighbor_prime, class_cap=class_cap)
    if not genus.complete:
        raise ValueError("genus enumeration did not close under the cap")
    total_classes = len(genus.classes)
    invS = space_invariants(S)

    rows: list[ScanRow] = []
    exceptions: list[tuple] = []
    resume = None
    for idx, T in enumerate(targets):
        if idx < start:
            continue
        if max_rows is not None and len(rows) >= max_rows:
            resume = idx
            break
        dT = det(T)
        diag = tuple(T.entries[i][i] for i in range(T.n))
        if ord_p(dT, q) > j:
            rows.append(ScanRow(target=diag, gram=T.entries, det=dT,
                                mu=None, local_ok=False, classes_total=None,
                                classes_representing=None, exception=False))
            continue
        certs = represents_locally_everywhere(S, T, c)
        local_ok = (all(cert.status == REPRESENTABLE for cert in certs.values())
                    and _isotropy_at_q(invS, S, T, q)[0])
        if not local_ok:
            undecided = any(cert.status == UNDECIDED
                            for cert in certs.values())
            rows.append(ScanRow(target=diag, gram=T.entries, det=dT,
                                mu=None, local_ok=False, classes_total=None,
                                classes_representing=None, exception=False,
                                undecided=undecided))
            continue
        mu = lattice_minimum(T)
        # class 0 is S itself, which represents_locally_everywhere has
        # already searched: its certificates are exact iff it found a witness
        representing = any(cert.exact for cert in certs.values()) + sum(
            1 for rep in genus.classes[1:]
            if find_representations(rep, T, c, limit=1))
        exc = representing < total_classes
        rows.append(ScanRow(target=diag, gram=T.entries, det=dT, mu=mu,
                            local_ok=True, classes_total=total_classes,
                            classes_representing=representing,
                            exception=exc))
        if exc:
            exceptions.append(diag)

    if not rows:
        empirical = None
    elif exceptions:
        mus = [r.mu for r in rows if r.exception and r.mu is not None]
        empirical = max(mus) if mus else None
    else:
        empirical = 0
    return ScanResult(family=family_desc, q=q, j=j, c=c,
                      neighbor_prime=neighbor_prime, rows=tuple(rows),
                      empirical_C=empirical, exceptions=tuple(exceptions),
                      genus_mass_certified=genus.mass_certified,
                      resume_token=resume,
                      undecided=any(r.undecided for r in rows))


# ---------------------------------------------------------------------------
# emission

CSV_HEADER = ["det", "mu", "local_ok", "classes_total",
              "classes_representing", "exception"]


def report_emit(report, fmt: str = "json") -> bytes:
    """Serialize a HypothesisReport or ScanResult; stable field order."""
    if fmt == "json":
        return (json.dumps(report.to_dict(), indent=2) + "\n").encode()
    if fmt == "csv":
        if not isinstance(report, ScanResult):
            raise ValueError("CSV output is only defined for scan results")
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(CSV_HEADER)
        for row in report.rows:
            writer.writerow([row.det, row.mu if row.mu is not None else "",
                             int(row.local_ok),
                             row.classes_total if row.classes_total is not None else "",
                             row.classes_representing if row.classes_representing is not None else "",
                             int(row.exception)])
        return buf.getvalue().encode()
    raise ValueError(f"unknown format {fmt!r}")
