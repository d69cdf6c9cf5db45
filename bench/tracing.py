"""Spans around laga's public functions, installed from outside the program.

`Tracer.install` replaces each function listed in `WRAPPED` by a wrapper
in every `laga.*` module that binds it (modules import names directly,
as in `from .linalg import rref`), so calls between layers are seen too.
A wrapped call records one span: (name, start, end, parent, op).  Spans
stay in memory until the run ends, when `metrics` folds them into the
per-layer figures and `write` saves them.

A layer's self time is the time of its spans minus the part covered by
their child spans in other layers.  `fields` is not wrapped: `Fp`
arithmetic runs as millions of operator calls, and timing each would
distort the run; its cost shows in `linalg.self_s`.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import Counter

# layer -> functions wrapped in that layer's module
WRAPPED = {
    "graphs": (
        "build_graph",
        "build_boolean",
        "build_subspace_lattice",
        "are_isomorphic",
        "class_partition",
        "is_uniform",
        "to_json_dict",
        "from_json_dict",
    ),
    "linalg": (
        "rref",
        "rank",
        "span",
        "kernel",
        "left_kernel",
        "reduce_vector",
        "matrix_apply",
    ),
    "gralgebra": (
        "gr_hilbert_table",
        "gr_dimension",
        "is_quadratic_to_degree",
        "enumerate_B_basis",
        "words_of_bidegree",
    ),
    "balgebra": (
        "component",
        "b_hilbert_table",
        "b_dimension",
        "relation_space",
        "gr_quadratic_space",
        "kappa_combinatorial",
        "kappa_of_element",
        "kappa_kernel",
        "quadratic_dual_check",
        "iso_condition_check",
    ),
    "reconstruct": (
        "algebra_view",
        "kappa_view",
        "upper_vertex_like_basis",
        "reconstruct_boolean",
        "reconstruct_subspace",
        "view_to_json_dict",
        "view_from_json_dict",
    ),
}

# spans of these names nested in one another count once in graphs.build_s
_BUILDERS = ("graphs.build_graph", "graphs.build_boolean", "graphs.build_subspace_lattice")


def _rref_cells(counts: Counter, args) -> None:
    rows = args[0]
    counts["linalg.rref_cells"] += len(rows) * (len(rows[0]) if rows else 0)


def _words(counts: Counter, result) -> None:
    counts["gralgebra.words"] += len(result)


_BEFORE = {"linalg.rref": _rref_cells}
_AFTER = {"gralgebra.words_of_bidegree": _words}


class NullTracer:
    """Stands in for `Tracer` in untraced runs; records nothing."""

    op = -1

    def span(self, name: str):
        return contextlib.nullcontext()

    def add(self, name: str, amount: int) -> None:
        pass


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # (name id, start ns, end ns, parent span index or -1, op or -1)
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = -1  # set by the runner; -1 marks set-up
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        before, after = _BEFORE.get(name), _AFTER.get(name)

        def traced(*args, **kwargs):
            if before is not None:
                before(self.counts, args)
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(self.counts, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the body: a wrapped call, or benchmark
        code that stands for a layer's work."""
        nid = self._name_id(name)
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (nid, start, end, parent, self.op)

    def add(self, name: str, amount: int) -> None:
        self.counts[name] += amount

    def install(self) -> None:
        """Wrap every function of `WRAPPED` wherever laga binds it."""
        modules = [
            m for n, m in sys.modules.items() if n == "laga" or n.startswith("laga.")
        ]
        replace = {}
        for layer, functions in WRAPPED.items():
            home = sys.modules[f"laga.{layer}"]
            for fname in functions:
                original = getattr(home, fname)
                replace[id(original)] = self.wrap(f"{layer}.{fname}", original)
        rays = sys.modules["laga.linalg"].enumerate_rays
        replace[id(rays)] = self._counted_rays(rays)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = replace.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    def _counted_rays(self, fn):
        counts = self.counts

        def traced(*args, **kwargs):
            for ray in fn(*args, **kwargs):
                counts["linalg.rays_enumerated"] += 1
                yield ray

        traced.__wrapped__ = fn
        return traced

    def metrics(self) -> dict[str, float]:
        """Totals over the run, set-up included, by span name and layer."""
        spans = self.spans
        names = self.names
        layer_of = [n.split(".", 1)[0] for n in names]
        is_builder = [n in _BUILDERS for n in names]
        child = [0] * len(spans)
        in_build = [False] * len(spans)
        total = Counter()
        calls = Counter()
        build_ns = 0
        for i, (nid, start, end, parent, _) in enumerate(spans):
            duration = end - start
            total[names[nid]] += duration
            calls[names[nid]] += 1
            nested = parent >= 0 and in_build[parent]
            if parent >= 0:
                child[parent] += duration
            if is_builder[nid] and not nested:
                build_ns += duration
            in_build[i] = nested or is_builder[nid]
        own = Counter()
        layer_self = Counter()
        for i, (nid, start, end, _, _) in enumerate(spans):
            exclusive = end - start - child[i]
            own[names[nid]] += exclusive
            layer_self[layer_of[nid]] += exclusive

        def s(ns: int) -> float:
            return ns / 1e9

        return {
            "reconstruct.basis_s": s(total["reconstruct.upper_vertex_like_basis"]),
            "reconstruct.kappa_view_calls": calls["reconstruct.kappa_view"],
            "reconstruct.kappa_view_s": s(total["reconstruct.kappa_view"]),
            "reconstruct.view_s": s(total["reconstruct.algebra_view"]),
            "reconstruct.recover_self_s": s(
                own["reconstruct.reconstruct_boolean"]
                + own["reconstruct.reconstruct_subspace"]
            ),
            "reconstruct.view_json_s": s(total["reconstruct.view_json"]),
            "reconstruct.view_json_bytes": self.counts["reconstruct.view_json_bytes"],
            "reconstruct.self_s": s(layer_self["reconstruct"]),
            "balgebra.iso_check_s": s(total["balgebra.iso_condition_check"]),
            "balgebra.iso_check_calls": calls["balgebra.iso_condition_check"],
            "balgebra.component_s": s(total["balgebra.component"]),
            "balgebra.component_calls": calls["balgebra.component"],
            "balgebra.hilbert_s": s(total["balgebra.b_hilbert_table"]),
            "balgebra.dual_check_s": s(total["balgebra.quadratic_dual_check"]),
            "balgebra.kappa_kernel_s": s(total["balgebra.kappa_kernel"]),
            "balgebra.self_s": s(layer_self["balgebra"]),
            "gralgebra.quadratic_s": s(total["gralgebra.is_quadratic_to_degree"]),
            "gralgebra.gr_hilbert_s": s(total["gralgebra.gr_hilbert_table"]),
            "gralgebra.basis_enum_s": s(total["gralgebra.enumerate_B_basis"]),
            "gralgebra.words": self.counts["gralgebra.words"],
            "gralgebra.self_s": s(layer_self["gralgebra"]),
            "graphs.isomorphism_s": s(total["graphs.are_isomorphic"]),
            "graphs.isomorphism_calls": calls["graphs.are_isomorphic"],
            "graphs.class_partition_s": s(total["graphs.class_partition"]),
            "graphs.class_partition_calls": calls["graphs.class_partition"],
            "graphs.build_s": s(build_ns),
            "graphs.self_s": s(layer_self["graphs"]),
            "linalg.rref_calls": calls["linalg.rref"],
            "linalg.rref_s": s(total["linalg.rref"]),
            "linalg.rref_cells": self.counts["linalg.rref_cells"],
            "linalg.kernel_calls": calls["linalg.kernel"],
            "linalg.kernel_s": s(total["linalg.kernel"]),
            "linalg.reduce_vector_calls": calls["linalg.reduce_vector"],
            "linalg.reduce_vector_s": s(total["linalg.reduce_vector"]),
            "linalg.self_s": s(layer_self["linalg"]),
            "linalg.rays_enumerated": self.counts["linalg.rays_enumerated"],
        }

    def write(self, path) -> None:
        """Save the spans as JSON: a name table and one row per span."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "fields": ["name", "start_ns", "end_ns", "parent", "op"],
                    "spans": self.spans,
                },
                fh,
                separators=(",", ":"),
            )
