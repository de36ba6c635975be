"""Outside-in tracer: wraps the engine's public functions from the bench.

The package binds names with ``from .x import y``, so each wrapper is
rebound in every ``bnc_engine.*`` namespace that holds the original, and
on the class for methods.  Spans (name, start, end, parent) stay in
memory in flat arrays and are written out when the run ends; self time
is derived from them.  Hot leaf functions get count-only wrappers.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import sys
from array import array
from functools import wraps
from time import perf_counter

# (metric prefix, module, attribute path) for span wrappers
SPANS = (
    ("partitions.enumerate_bnc", "bnc_engine.partitions", "enumerate_bnc"),
    ("partitions.mobius", "bnc_engine.partitions", "mobius_fast"),
    ("partitions.mobius", "bnc_engine.partitions", "mobius"),
    ("cumulants.kappa_pi", "bnc_engine.cumulants", "kappa_pi"),
    ("cumulants.moment_table", "bnc_engine.cumulants", "moment_table"),
    ("cumulants.audit_ffb_word", "bnc_engine.cumulants", "audit_ffb_word"),
    ("bimult.reduce_blocks", "bnc_engine.bimult", "reduce_blocks"),
    ("algebra.expect_word", "bnc_engine.algebra", "BBProbSpace.expect_word"),
    ("freeprod.apply_chain", "bnc_engine.freeprod", "apply_chain"),
    ("freeprod.moment_cache", "bnc_engine.freeprod", "FreeMomentContext.expect"),
    ("freeprod.lr_decompose", "bnc_engine.freeprod", "lr_decompose"),
    ("freeprod.build", "bnc_engine.freeprod", "TruncatedFreeProduct.__init__"),
    ("linalg.rowspace_add", "bnc_engine.linalg", "RowSpace.add"),
    ("linalg.quotient", "bnc_engine.linalg", "Quotient.project"),
    ("linalg.quotient", "bnc_engine.linalg", "Quotient.section"),
    ("diagrams.enumerate_lr", "bnc_engine.diagrams", "enumerate_lr"),
    ("diagrams.lateral_closure", "bnc_engine.diagrams", "lateral_closure"),
    ("diagrams.chi_extensions", "bnc_engine.diagrams", "chi_extensions"),
    ("ffb.checkers", "bnc_engine.ffb", "check_ffb_system"),
    ("ffb.checkers", "bnc_engine.ffb", "check_single_colour_moments"),
    ("ffb.checkers", "bnc_engine.ffb", "check_ffb_independence"),
    ("ffb.checkers", "bnc_engine.ffb", "verify_system_gives_ffb"),
)

# count-only wrappers for hot leaves
COUNTS = (
    ("partitions.refines", "bnc_engine.partitions", "refines"),
    ("cumulants.e_pi", "bnc_engine.cumulants", "e_pi"),
    ("ffb.expect_word", "bnc_engine.ffb", "FfbSystem.expect_word"),
)

OP = "bench.op"


class Tracer:
    def __init__(self):
        self.names: list[str] = [OP]
        self.name_ids: dict[str, int] = {OP: 0}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: dict[str, itertools.count] = {}
        self.rowspace_useful = 0
        self.word_dims_total = 0
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.span_name.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = perf_counter()
        self.stack.pop()

    def op(self, fn):
        """Run one benchmark op as a root span."""
        idx = self._open(0)
        try:
            return fn()
        finally:
            self._close(idx)

    def _span_wrapper(self, metric: str, orig):
        nid = self.name_ids.setdefault(metric, len(self.names))
        if nid == len(self.names):
            self.names.append(metric)
        open_, close = self._open, self._close
        tracer = self

        if metric == "linalg.rowspace_add":

            @wraps(orig)
            def wrapper(*args, **kwargs):
                idx = open_(nid)
                try:
                    out = orig(*args, **kwargs)
                finally:
                    close(idx)
                if out:
                    tracer.rowspace_useful += 1
                return out

        elif metric == "freeprod.build":

            @wraps(orig)
            def wrapper(self_, *args, **kwargs):
                idx = open_(nid)
                try:
                    orig(self_, *args, **kwargs)
                finally:
                    close(idx)
                tracer.word_dims_total += sum(self_.describe()["words"].values())

        else:

            @wraps(orig)
            def wrapper(*args, **kwargs):
                idx = open_(nid)
                try:
                    return orig(*args, **kwargs)
                finally:
                    close(idx)

        return wrapper

    def _count_wrapper(self, metric: str, orig):
        counter = self.counters.setdefault(metric, itertools.count())
        tick = counter.__next__

        @wraps(orig)
        def wrapper(*args, **kwargs):
            tick()
            return orig(*args, **kwargs)

        return wrapper

    # --- installation ------------------------------------------------------

    def install(self):
        for table, make in ((SPANS, self._span_wrapper), (COUNTS, self._count_wrapper)):
            for metric, modname, path in table:
                mod = importlib.import_module(modname)
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(mod, owner_name) if owner_name else mod
                orig = owner.__dict__.get(attr)
                if orig is None:
                    self.missing.append(f"{modname}.{path}")
                    continue
                wrapper = make(metric, orig)
                if owner_name:
                    self._set(owner, attr, orig, wrapper)
                else:
                    for name, m in list(sys.modules.items()):
                        if name.startswith("bnc_engine") and m is not None:
                            for k, v in list(vars(m).items()):
                                if v is orig:
                                    self._set(m, k, orig, wrapper)

    def _set(self, owner, attr, orig, wrapper):
        self._restore.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # --- results -----------------------------------------------------------

    def self_times(self):
        """Per-name (calls, self seconds): duration minus child durations."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        selfs = [0.0] * len(self.names)
        for i in range(n):
            nid = self.span_name[i]
            calls[nid] += 1
            selfs[nid] += self.end[i] - self.start[i] - child[i]
        return {self.names[i]: (calls[i], selfs[i]) for i in range(len(self.names))}

    def cache_hit_ratio(self) -> float:
        """Share of FreeMomentContext.expect spans with no apply_chain child."""
        ids = self.name_ids
        if "freeprod.moment_cache" not in ids:
            return 0.0
        expect_id = ids["freeprod.moment_cache"]
        apply_id = ids.get("freeprod.apply_chain", -2)
        expects = sum(1 for nid in self.span_name if nid == expect_id)
        if not expects:
            return 0.0
        missed = {
            self.parent[i]
            for i in range(len(self.start))
            if self.span_name[i] == apply_id and self.parent[i] >= 0
            and self.span_name[self.parent[i]] == expect_id
        }
        return 1.0 - len(missed) / expects

    def count(self, metric: str) -> int:
        counter = self.counters.get(metric)
        return 0 if counter is None else next(counter)

    def write(self, path: str):
        """Spans as gzip'd TSV: name, start, end, parent index."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(
                    f"{names[self.span_name[i]]}\t{self.start[i]:.7f}\t"
                    f"{self.end[i]:.7f}\t{self.parent[i]}\n"
                )
