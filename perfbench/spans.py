"""Spans around the public functions of each `wiretapnc` module.

The wrappers are installed from the benchmark's own files: `install` walks
the layer modules, wraps every public function, every public method and
`__init__` of each class a module defines, and patches each attribute
through which callers look the function up, including names that other
modules import with `from .x import y`.  `uninstall` restores the originals,
so wrappers are active only inside a traced pass.

Each span keeps its name, start, end and parent in memory; `write` saves
them when the run ends.  A layer's self time is its spans' durations minus
the part their child spans cover.  Field arithmetic (`FieldSpec` add, sub,
neg, mul, inv, div, pow) runs millions of times per pass, so those calls are
counted and timed into the `gf` layer without a span record each.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import os
import sys
import time
from array import array
from collections import Counter

LAYERS = ("gf", "fmatrix", "coset", "netgraph", "securecode", "equivocation",
          "oracle", "serialize", "cli")
GF_OPS = ("add", "sub", "neg", "mul", "inv", "div", "pow")
ELIMINATIONS = ("rank", "rref", "row_basis", "invert", "null_space_basis", "solve")
# spans whose inclusive time is reported on its own
TIMED = {
    "oracle.CosetChannelOracle.__init__": "oracle.table_s",
    "oracle.CosetChannelOracle.secret_equivocation": "oracle.observe_s",
    "netgraph.Network.edge_disjoint_flows": "netgraph.flows_s",
    "netgraph.Network.min_cut": "netgraph.flows_s",
}
SUBSET_PARENTS = ("securecode", "equivocation")


class Tracer:
    def __init__(self):
        self.names = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # open frames: [span index or -1, layer, time covered by children]
        self.stack = []
        self.depth = Counter()
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.inclusive_s = Counter()
        self.counts = Counter()
        self._installed = []

    # ---- span bookkeeping ----

    def _name_id(self, name):
        self.names.append(name)
        return len(self.names) - 1

    def _wrap(self, layer, name, fn, before=None, after=None):
        nid = self._name_id(name)
        timed = TIMED.get(name)
        stack, depth, self_s, inclusive = self.stack, self.depth, self.self_s, self.inclusive_s
        s_name, s_parent, s_start, s_end = (
            self.span_name, self.span_parent, self.span_start, self.span_end)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(s_name)
            s_name.append(nid)
            s_parent.append(stack[-1][0] if stack else -1)
            s_start.append(0.0)
            s_end.append(0.0)
            frame = [idx, layer, 0.0]
            stack.append(frame)
            depth[layer] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[layer] -= 1
                dur = end - start
                s_start[idx] = start
                s_end[idx] = end
                self_s[layer] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if not depth[layer]:
                    inclusive[layer] += dur
                if timed:
                    inclusive[timed] += dur
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _wrap_gf(self, fn):
        stack, self_s, counts = self.stack, self.self_s, self.counts
        clock = time.perf_counter

        def wrapper(field, *args):
            frame = [stack[-1][0] if stack else -1, "gf", 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(field, *args)
            finally:
                dur = clock() - start
                stack.pop()
                self_s["gf"] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                counts["gf.ops"] += 1
                if field.m > 1:
                    counts["gf.ext_ops"] += 1

        return wrapper

    # ---- counters derived at layer boundaries ----

    def _hooks(self, name):
        counts = self.counts
        if name == "fmatrix.FMatrix.__init__":
            return None, lambda args, out: counts.update(("fmatrix.matrices",))
        if name.startswith("fmatrix.FMatrix.") and name.rsplit(".", 1)[1] in ELIMINATIONS:
            return None, lambda args, out: counts.update(("fmatrix.eliminations",))
        if name == "netgraph.NetworkCode.coding_matrix":
            return self._count_subset, None
        if name == "securecode.secure_lif":
            return None, self._count_candidates
        if name == "oracle.CosetChannelOracle.__init__":
            return None, self._count_table
        if name == "oracle.CosetChannelOracle.secret_equivocation":
            return None, lambda args, out: counts.update(("oracle.observations",))
        if name in ("coset.CosetCode.encode", "coset.CosetCode.encode_with_randomness"):
            return None, lambda args, out: counts.update(("coset.encodes",))
        if name in ("serialize.read_json", "serialize.write_json", "serialize.sha256_file"):
            return None, lambda args, out: self._count_bytes(args[0])
        return None, None

    def _count_subset(self, args):
        """Attribute a coding-matrix build to the layer of its caller's span."""
        self.counts["netgraph.coding_matrices"] += 1
        caller = self.stack[-1][1] if self.stack else None
        if caller in SUBSET_PARENTS:
            self.counts[f"{caller}.subsets"] += 1

    def _count_candidates(self, args, design):
        """Candidates are tried in product(range(q), repeat=degree) order, so
        the chosen vector's lexicographic index plus one is the number tried."""
        q = design.coset.field.order
        for chosen in design.certificate["locals"].values():
            index = 0
            for c in chosen:
                index = index * q + c
            self.counts["securecode.candidates"] += index + 1
            self.counts["securecode.edges"] += 1
        self.counts["securecode.checks"] += design.certificate["checks"]

    def _count_table(self, args, _):
        oracle = args[0]
        self.counts["oracle.tables"] += 1
        self.counts["oracle.outcomes"] += oracle.q ** oracle.n

    def _count_bytes(self, path):
        try:
            self.counts["serialize.bytes"] += os.path.getsize(path)
        except OSError:
            pass

    # ---- installation ----

    def install(self):
        import wiretapnc

        modules = {layer: importlib.import_module(f"wiretapnc.{layer}") for layer in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    self._install_class(layer, obj)
                elif callable(obj):
                    replaced[id(obj)] = (obj, self._wrap(layer, f"{layer}.{attr}", obj,
                                                         *self._hooks(f"{layer}.{attr}")))
        targets = [wiretapnc] + [m for name, m in sys.modules.items()
                                 if name.startswith("wiretapnc.")]
        for mod in targets:
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._installed.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def _install_class(self, layer, cls):
        if issubclass(cls, BaseException):
            return
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and (attr != "__init__" or dataclasses.is_dataclass(cls)):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if layer == "gf" and cls.__name__ == "FieldSpec" and attr in GF_OPS:
                wrapped = self._wrap_gf(raw)
            elif isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(layer, name, raw.__func__, *self._hooks(name)))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(layer, name, raw, *self._hooks(name))
            else:
                continue
            self._installed.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # ---- results ----

    def summary(self):
        """Counters and times as plain JSON-able numbers."""
        return {
            "self_s": dict(self.self_s),
            "inclusive_s": dict(self.inclusive_s),
            "counts": dict(self.counts),
            "spans": len(self.span_name),
        }

    def write(self, path):
        """Save every span (name, parent, start, end) as compressed numpy arrays."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


def merge(summaries):
    """Sum several `Tracer.summary` results (one per traced process)."""
    total = {"self_s": Counter(), "inclusive_s": Counter(), "counts": Counter(), "spans": 0}
    for s in summaries:
        for key in ("self_s", "inclusive_s", "counts"):
            total[key].update(s[key])
        total["spans"] += s["spans"]
    return total
