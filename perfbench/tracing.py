"""Spans and counts around the public functions of each polymat layer.

The program is left untouched: ``Tracer.install`` wraps functions from the
outside.  Module handles come from ``importlib.import_module`` because the
package re-exports the function ``activity`` under the name of the module.
Every module that imported a wrapped function by name holds its own
reference, so each of those references is rebound too; methods are
replaced on their class, which every importer shares.

Each call records a span (name, start, end, parent) in flat arrays kept in
memory.  Self time is a span's duration minus the durations of its direct
children, so recursion is not counted twice.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter_ns

# Pipeline layers, in ROADMAP order.  `subsets` and `polynomials` are
# helpers called inside every layer, not layers of their own.
LAYER_MODULES = (
    "documents",
    "cli",
    "graphs",
    "matroids",
    "hypergraphs",
    "core",
    "activity",
    "structure",
    "verify",
)

# Span of the bookkeeping that counts distinct tables.
TABLE_HASH = "tracing.table_hash"

# Span names whose rank-table argument is recorded, to count distinct tables.
TABLE_ARGUMENT = {
    "core.Polymatroid.init": lambda args: args[1],
    "activity.polynomial_pair": lambda args: args[0].table,
    "activity.exterior_by_slices": lambda args: args[0].table,
}


def polymat_modules():
    """The package and every one of its modules imported so far."""
    return [m for name, m in sys.modules.items() if name == "polymat" or name.startswith("polymat.")]


def _public_functions(module):
    """(span name, owner, attribute, function) for each function to wrap."""
    short = module.__name__.rpartition(".")[2]
    for attr, obj in list(vars(module).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{short}.{attr}", module, attr, obj
        elif (
            inspect.isclass(obj)
            and not issubclass(obj, BaseException)
            and not dataclasses.is_dataclass(obj)
        ):
            for method, fn in list(vars(obj).items()):
                if inspect.isfunction(fn) and (method == "__init__" or not method.startswith("_")):
                    label = "init" if method == "__init__" else method
                    yield f"{short}.{attr}.{label}", obj, method, fn


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        self.hits: list[int] = []
        self.tables: list[set[int] | None] = []
        self._stack = [-1]
        self._hash_id = self._name_id(TABLE_HASH)

    def install(self) -> None:
        """Wrap every layer's public functions and rebind every reference."""
        modules = [importlib.import_module(f"polymat.{n}") for n in LAYER_MODULES]
        replaced = {}
        for module in modules:
            for name, owner, attr, fn in _public_functions(module):
                wrapper = self._wrap(name, fn)
                setattr(owner, attr, wrapper)
                replaced[id(fn)] = (fn, wrapper)
        for module in polymat_modules():
            for attr, obj in list(vars(module).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])

    def _name_id(self, name: str, table_of=None) -> int:
        self.names.append(name)
        self.hits.append(0)
        self.tables.append(set() if table_of else None)
        return len(self.names) - 1

    def _wrap(self, name: str, fn):
        table_of = TABLE_ARGUMENT.get(name)
        nid = self._name_id(name, table_of)
        hash_id, stack, hits, tables = self._hash_id, self._stack, self.hits, self.tables
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if table_of is not None:
                # Hashing a table costs as much as a pass over it; its own span
                # keeps that time out of the caller's self time.
                names.append(hash_id)
                parents.append(stack[-1])
                starts.append(perf_counter_ns())
                table = table_of(args)
                tables[nid].add(hash((table.n, table.values)))
                ends.append(perf_counter_ns())
            index = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(index)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter_ns()
                stack.pop()
            if result is True:
                hits[nid] += 1
            return result

        return traced

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, self time (s), True results and distinct tables."""
        count = len(self.span_name)
        child = [0] * count
        durations = [e - s for s, e in zip(self.span_start, self.span_end)]
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += durations[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i, nid in enumerate(self.span_name):
            calls[nid] += 1
            self_ns[nid] += durations[i] - child[i]
        return {
            name: {
                "calls": calls[nid],
                "self_s": self_ns[nid] / 1e9,
                "hits": self.hits[nid],
                "distinct": len(self.tables[nid]) if self.tables[nid] is not None else 0,
            }
            for nid, name in enumerate(self.names)
        }
