"""Spans and counters recorded around calls into ternalg's modules.

Nothing here changes the program: ``Tracer.install`` replaces public
functions and methods with timing wrappers, at every place a caller looks
the name up (the defining module, each module that imported the name,
and the class for methods), and ``uninstall`` puts the originals back.

A span records its name, start, end, its parent span and the item it
belongs to; they are kept in memory and written out when the run ends.
The hot kernels (``KERNELS``) run millions of times per pass, so their
calls are folded into per-name totals instead of kept one by one; they
still count as children of the span that called them.  A name's self
time is its total time minus the time its wrapped children took.

``ScalarCounter`` takes the ``scalars.*`` counts in a pass of its own, so
that wrapping every ``QuadScalar`` operation does not inflate the self
time the tracer measures for the layers above.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter
from importlib import import_module

# (module, attribute, span name); a dotted attribute is a method
TARGETS = [
    ("ternalg.linalg", "vec_add_into", "linalg.vec_add_into"),
    ("ternalg.linalg", "mat_apply", "linalg.mat_apply"),
    ("ternalg.linalg", "mat_invertible", "linalg.mat_invertible"),
    ("ternalg.algebra", "TernaryHomAlgebra.mu_vec", "algebra.mu_vec"),
    ("ternalg.algebra", "TernaryHomAlgebra.check_associativity",
     "algebra.check_associativity"),
    ("ternalg.algebra", "TernaryHomAlgebra.check_multiplicativity",
     "algebra.check_multiplicativity"),
    ("ternalg.algebra", "TernaryHomAlgebra.yau_twist", "algebra.yau_twist"),
    ("ternalg.algebra", "check_algebra_morphism",
     "algebra.check_algebra_morphism"),
    ("ternalg.coalgebra", "TernaryHomCoalgebra.delta_vec",
     "coalgebra.delta_vec"),
    ("ternalg.coalgebra", "TernaryHomCoalgebra.check_coassociativity",
     "coalgebra.check_coassociativity"),
    ("ternalg.coalgebra", "TernaryHomCoalgebra.check_comultiplicativity",
     "coalgebra.check_comultiplicativity"),
    ("ternalg.coalgebra", "TernaryHomCoalgebra.structure_identity_check",
     "coalgebra.structure_identity_check"),
    ("ternalg.duality", "dualize_algebra", "duality.dualize_algebra"),
    ("ternalg.duality", "dualize_coalgebra", "duality.dualize_coalgebra"),
    ("ternalg.duality", "dualize_linear_map", "duality.dualize_linear_map"),
    ("ternalg.trimodule", "TrimoduleActions.op_L", "trimodule.op_L"),
    ("ternalg.trimodule", "TrimoduleActions.op_R", "trimodule.op_R"),
    ("ternalg.trimodule", "TrimoduleActions.op_M", "trimodule.op_M"),
    ("ternalg.trimodule", "check_trimodule", "trimodule.check_trimodule"),
    ("ternalg.trimodule", "semidirect_product",
     "trimodule.semidirect_product"),
    ("ternalg.matched_pair", "check_matched_pair",
     "matched_pair.check_matched_pair"),
    ("ternalg.matched_pair", "bicrossed_product",
     "matched_pair.bicrossed_product"),
    ("ternalg.bialgebra", "check_bialgebra", "bialgebra.check_bialgebra"),
    ("ternalg.bialgebra", "check_compatibility",
     "bialgebra.check_compatibility"),
    ("ternalg.bialgebra", "check_compatibility_sigma_form",
     "bialgebra.check_compatibility_sigma_form"),
    ("ternalg.bialgebra", "compatibility_identity_check",
     "bialgebra.compatibility_identity_check"),
    ("ternalg.serialization", "load_file", "serialization.load_file"),
    ("ternalg.serialization", "dump_text", "serialization.dump_text"),
    ("ternalg.cli", "main", "cli.main"),
]

KERNELS = {"linalg.vec_add_into", "linalg.mat_apply", "algebra.mu_vec",
           "coalgebra.delta_vec", "trimodule.op_L", "trimodule.op_R",
           "trimodule.op_M"}


def _owner_and_name(module, attr):
    owner = import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _replace_everywhere(orig, replacement, undo):
    """Rebind every module-level name that refers to ``orig``."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or modname.split(".")[0] != "ternalg":
            continue
        for key, value in list(vars(mod).items()):
            if value is orig:
                undo.append((mod, key, orig))
                setattr(mod, key, replacement)


class Tracer:
    def __init__(self):
        self.spans = []  # (item, span id, parent id, name, start, end)
        self.stats = {}  # name -> [calls, total seconds, self seconds]
        self.counters = Counter()
        self.item = None
        # frames: [id of the nearest kept span, time spent in children]
        self._stack = [[None, 0.0]]
        self._undo = []

    def _hook(self, name, args, result):
        if name == "algebra.mu_vec" and not result:
            self.counters["algebra.mu_vec.empty"] += 1
        elif name == "serialization.load_file":
            self.counters["serialization.bytes_read"] += os.path.getsize(
                args[0])
        elif name == "serialization.dump_text":
            self.counters["serialization.bytes_written"] += len(
                result.encode("utf-8"))

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        keep = name not in KERNELS
        hook = name in ("algebra.mu_vec", "serialization.load_file",
                        "serialization.dump_text")

        def wrapper(*args, **kwargs):
            parent = stack[-1][0]
            if keep:
                span_id = len(spans)
                spans.append(None)
            else:
                span_id = parent
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                stats[0] += 1
                stats[1] += took
                stats[2] += took - frame[1]
                stack[-1][1] += took
                if keep:
                    spans[span_id] = (self.item, span_id, parent, name,
                                      start, end)
            if hook:
                self._hook(name, args, result)
            return result

        return wrapper

    def install(self):
        for module, attr, name in TARGETS:
            owner, key = _owner_and_name(module, attr)
            orig = getattr(owner, key)
            wrapper = self._wrap(name, orig)
            if isinstance(owner, type):
                self._undo.append((owner, key, orig))
                setattr(owner, key, wrapper)
            else:
                _replace_everywhere(orig, wrapper, self._undo)

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def calls(self, name) -> int:
        return self.stats.get(name, [0])[0]

    def self_s(self, name) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def dump(self) -> dict:
        return {"spans": [list(s) for s in self.spans if s is not None],
                "totals": {name: {"calls": c, "total_s": t, "self_s": s}
                           for name, (c, t, s) in sorted(self.stats.items())},
                "counters": dict(self.counters)}


ARITHMETIC = ("__add__", "__sub__", "__mul__", "__neg__")


class ScalarCounter:
    """Counts QuadScalar arithmetic and scalar parsing and formatting."""

    def __init__(self):
        self.counts = Counter()
        self._undo = []

    def _counting(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        scalars = import_module("ternalg.scalars")
        cls = scalars.QuadScalar
        for op in ARITHMETIC:
            orig = cls.__dict__[op]
            self._undo.append((cls, op, orig))
            setattr(cls, op, self._counting("ops", orig))
        for fname in ("parse_scalar", "format_scalar"):
            orig = getattr(scalars, fname)
            _replace_everywhere(orig, self._counting(fname, orig), self._undo)

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()
