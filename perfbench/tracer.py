"""Outside-in span tracer for the latrep benchmark.

The tracer wraps a fixed list of public latrep functions from outside the
package: every module-level name in ``latrep`` and its submodules that
refers to a traced function is rebound to a wrapper, so calls between
modules (``genus`` calling ``enumeration.lll_reduce``, ``localrep``
importing ``matrices.smith_normal_form`` inside a function body) are all
caught.  ``uninstall`` puts every original object back.

Spans are kept in memory as small lists and written out once, after the
timed phase.  Each span is ``[fn, start, end, parent, item, outcome]``:
``fn`` indexes ``Tracer.names``, ``parent`` is the index of the enclosing
span (-1 at top level), ``item`` is the benchmark item being processed and
``outcome`` a small summary of the return value where one is defined.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, attribute) pairs; "Cls.meth" names a classmethod.
TARGETS = (
    ("matrices", "smith_normal_form"),
    ("matrices", "saturate"),
    ("matrices", "invert_unimodular"),
    ("matrices", "solve_integer_columns"),
    ("matrices", "column_hnf"),
    ("padic", "jordan_decomposition"),
    ("padic", "space_invariants"),
    ("enumeration", "lll_reduce"),
    ("enumeration", "lattice_minimum"),
    ("enumeration", "vectors_of_norm"),
    ("enumeration", "find_representations"),
    ("enumeration", "Embedding.build"),
    ("localrep", "represents_over_Zp"),
    ("localrep", "represents_locally_everywhere"),
    ("genus", "enumerate_genus"),
    ("genus", "p_neighbors"),
    ("genus", "is_isometric"),
    ("reports", "scan_family"),
)

# Summaries of return values, recorded on the span for the outcome counters.
OUTCOMES = {
    "localrep.represents_over_Zp": lambda cert: cert.status,
    "genus.enumerate_genus": lambda record: len(record.classes),
    "genus.p_neighbors": len,
    "genus.is_isometric": lambda U: U is not None,
    "enumeration.find_representations": len,
}

CERT_STATUSES = ("representable", "not_representable", "undecided")


class Tracer:
    """Collects spans for ``targets`` while installed; see module docstring."""

    def __init__(self, targets=TARGETS, package: str = "latrep",
                 clock=time.perf_counter):
        self.targets = tuple(targets)
        self.names = [f"{mod}.{attr}" for mod, attr in self.targets]
        self.package = package
        self.clock = clock
        self.spans: list[list] = []
        self.item = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fid: int, fn):
        spans, stack, clock = self.spans, self._stack, self.clock
        outcome = OUTCOMES.get(self.names[fid])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [fid, 0.0, 0.0, stack[-1] if stack else -1, self.item, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if outcome is not None:
                span[5] = outcome(result)
            return result

        return traced

    def _modules(self):
        prefix = self.package + "."
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == self.package or name.startswith(prefix))]

    def install(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer already installed")
        importlib.import_module(self.package)
        modules = self._modules()
        for fid, (modname, attr) in enumerate(self.targets):
            module = importlib.import_module(f"{self.package}.{modname}")
            if "." in attr:
                clsname, meth = attr.split(".")
                cls = getattr(module, clsname)
                original = cls.__dict__[meth]
                if not isinstance(original, classmethod):
                    raise TypeError(f"{self.names[fid]} is not a classmethod")
                self._saved.append((cls, meth, original))
                setattr(cls, meth, classmethod(self._wrap(fid, original.__func__)))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(fid, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, name, original))
                        setattr(mod, name, wrapper)
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ----------------------------------------------------------

    def write(self, path) -> None:
        """JSON lines: first ``{"names": [...]}``, then one span per line,
        in call order, as ``[fn, start, end, parent, item, outcome]``."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def stats(self) -> dict[str, float]:
        return span_stats(self.spans, self.names)


def self_times(spans) -> list[float]:
    """Span duration minus the durations of its direct children.  Calls run
    on one thread, so children are disjoint and lie inside their parent."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def span_stats(spans, names) -> dict[str, float]:
    """Per-layer metrics: ``<name>.calls`` and ``<name>.self_s`` for every
    traced name, plus the outcome counters and ratios."""
    calls = dict.fromkeys(names, 0)
    selfs = dict.fromkeys(names, 0.0)
    for span, own in zip(spans, self_times(spans)):
        name = names[span[0]]
        calls[name] += 1
        selfs[name] += own
    out: dict[str, float] = {}
    for name in names:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = selfs[name]

    def outcomes(name):
        return [s[5] for s in spans if names[s[0]] == name]

    statuses = outcomes("localrep.represents_over_Zp")
    for status in CERT_STATUSES:
        out[f"localrep.represents_over_Zp.{status}"] = statuses.count(status)
    out["genus.enumerate_genus.classes"] = sum(outcomes("genus.enumerate_genus"))
    out["genus.p_neighbors.neighbors"] = sum(outcomes("genus.p_neighbors"))
    hits = outcomes("genus.is_isometric")
    out["genus.is_isometric.hit_ratio"] = sum(hits) / len(hits) if hits else 0.0

    # embeddings kept per Embedding.build call made under a representation
    # search; builds outside any search (extension, user code) are excluded
    search = names.index("enumeration.find_representations")
    build = names.index("enumeration.Embedding.build")
    under_search = [False] * len(spans)
    builds = 0
    for i, (fid, _, _, parent, _, _) in enumerate(spans):
        under_search[i] = fid == search or (parent >= 0 and under_search[parent])
        if fid == build and parent >= 0 and under_search[parent]:
            builds += 1
    kept = sum(outcomes("enumeration.find_representations"))
    out["enumeration.find_representations.yield"] = kept / builds if builds else 0.0
    return out
