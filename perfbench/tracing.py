"""Span tracing of wpfeq's public functions from outside the program.

`Tracer.install` replaces module attributes (and the method
`TripleSampler.triples`) with wrappers that record one span per call:
name, start, end, parent span and the operation it belongs to. Spans stay
in flat in-memory arrays and are written once, at the end of the run.
`uninstall` puts the original functions back, so untraced and traced
rounds run in the same process.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute) pairs wrapped as plain calls; span name is module.attribute
CALL_TARGETS = (
    ("elliptic", "from_periods"),
    ("elliptic", "from_invariants"),
    ("elliptic", "jets"),
    ("elliptic", "lattice_distance"),
    ("elliptic", "zeta"),
    ("elliptic", "sigma"),
    ("elliptic", "wp"),
    ("verifier", "residual"),
    ("verifier", "scan"),
    ("verifier", "theorem2_shift_test"),
    ("verifier", "sigma_identity_scan"),
    ("verifier", "derived_determinant_check"),
    ("verifier", "factfun_check"),
    ("verifier", "constant_case_check"),
    ("identities", "run_checks"),
    ("jetpoly", "evaluate"),
    ("classify", "classify_samples"),
    ("classify", "estimate_jets"),
    ("classify", "roundtrip_residual"),
)
TRIPLES = "verifier.triples"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.yields = 0  # triples handed out by TripleSampler.triples
        self._stack: list[int] = []
        self._op = -1
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextmanager
    def operation(self, op: int, name: str):
        """A root span for one benchmark operation; spans inside carry its id."""
        self._op = op
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)
            self._op = -1

    def _wrap_call(self, name: str, fn):
        name_id = self._id(name)

        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def _wrap_generator(self, name: str, fn):
        name_id = self._id(name)

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                idx = self._open(name_id)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                self.yields += 1
                yield item

        return traced

    # -- installing ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in every wpfeq module that holds a reference to it."""
        modules = {name: importlib.import_module(f"wpfeq.{name}") for name, _ in CALL_TARGETS}
        holders = [m for n, m in sys.modules.items() if n == "wpfeq" or n.startswith("wpfeq.")]
        for mod_name, attr in CALL_TARGETS:
            original = getattr(modules[mod_name], attr)
            wrapped = self._wrap_call(f"{mod_name}.{attr}", original)
            for holder in holders:
                if getattr(holder, attr, None) is original:
                    self._saved.append((holder, attr, original))
                    setattr(holder, attr, wrapped)
        sampler = modules["verifier"].TripleSampler
        self._saved.append((sampler, "triples", sampler.triples))
        sampler.triples = self._wrap_generator(TRIPLES, sampler.triples)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._saved):
            setattr(holder, attr, original)
        self._saved.clear()

    # -- results -------------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total inclusive and total self time in ns."""
        child = [0] * len(self.start)
        for idx in range(len(self.start)):
            p = self.parent[idx]
            if p >= 0:
                child[p] += self.end[idx] - self.start[idx]
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0})
        for idx in range(len(self.start)):
            dur = self.end[idx] - self.start[idx]
            row = out[self.names[self.name[idx]]]
            row["calls"] += 1
            row["total_ns"] += dur
            row["self_ns"] += dur - child[idx]
        return dict(out)

    def first(self, name: str) -> int | None:
        """Duration in ns of the first span with this name."""
        name_id = self._ids.get(name)
        for idx in range(len(self.start)):
            if self.name[idx] == name_id:
                return self.end[idx] - self.start[idx]
        return None

    def write(self, path: str, meta: dict) -> None:
        """Gzipped JSON: span columns plus the name table."""
        doc = dict(meta)
        doc["names"] = self.names
        doc["columns"] = ["name", "start_ns", "end_ns", "parent", "op"]
        doc["spans"] = {
            "name": self.name.tolist(),
            "start_ns": self.start.tolist(),
            "end_ns": self.end.tolist(),
            "parent": self.parent.tolist(),
            "op": self.op.tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh)
