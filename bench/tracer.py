"""Spans and counters for the traced run, attached from outside the package.

The tracer swaps wrappers in for the package's public functions and
methods, then restores the originals.  A function is replaced at every
binding that holds it: its defining module, each module that imported it
with ``from .x import y``, the package namespace and module-level tables
such as ``solutions.SOLVERS``.  Nothing in the package is edited.

Spans are kept in memory as [name, start_ns, end_ns, parent], in process
CPU time like the untraced figures, and summed at the end.  A span's self
time is its duration minus the durations of its direct child spans.
The hottest lattice methods (leq, join, chain_pair_ratio) only count
calls; a span around each would cost more than the work it measures.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import process_time_ns

# metric prefix -> (module, attribute path); the traced layers
SPANS = {
    "lattice.lattice_for": ("lattice", "lattice_for"),
    "transform.from_payload": ("transform", "LatticeGame.from_payload"),
    "transform.mobius": ("transform", "mobius"),
    "transform.zeta_expand": ("transform", "zeta_expand"),
    "games.is_supermodular": ("games", "is_supermodular"),
    "games.is_totally_positive": ("games", "is_totally_positive"),
    "games.clustering_restrict": ("games", "clustering_restrict"),
    "solutions.su": ("solutions", "su"),
    "solutions.cu": ("solutions", "cu"),
    "solutions.shapley_dividends": ("solutions", "shapley_dividends"),
    "solutions.myerson": ("solutions", "myerson"),
    "solutions.graph_restrict": ("solutions", "graph_restrict"),
    "solutions.split_to_nodes": ("solutions", "split_to_nodes"),
    "solutions.is_fixed_point": ("solutions", "is_fixed_point"),
    "solutions.Solution.expand": ("solutions", "Solution.expand"),
    "solutions.Solution.payload": ("solutions", "Solution.payload"),
    "coresep.core_feasible": ("coresep", "core_feasible"),
    "cli.main": ("cli", "main"),
}

# counted methods of every lattice class: metric prefix -> method name
COUNTED = {
    "lattice.leq": "leq",
    "lattice.join": "join",
    "lattice.chain_pair_ratio": "chain_pair_ratio",
}

# the first downset_indices/upset_indices call on each lattice builds its tables
ORDER_TABLES = "lattice.order_tables"
ORDER_METHODS = ("downset_indices", "upset_indices")


PACKAGE = "lattice_games"


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._open = []
        self._undo = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0, 0, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(rec)
            rec[1] = process_time_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = process_time_ns()
                open_.pop()

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _first_use(self, fn, seen):
        span = self._span(ORDER_TABLES, fn)

        @functools.wraps(fn)
        def wrapper(lat, *args):
            if id(lat) in seen:
                return fn(lat, *args)
            seen.add(id(lat))
            return span(lat, *args)

        return wrapper

    # -- patching -----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper):
        """Point every module-level name and table entry at the wrapper."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            value[key] = wrapper
                            self._undo.append((value, key, original))

    def _wrap_method(self, cls, attr, make):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(make(raw.__func__)))
        else:
            self._set(cls, attr, make(raw))

    def install(self):
        """Attach every wrapper; names missing from the package are skipped."""
        pkg = sys.modules[PACKAGE]
        for name, (modname, path) in SPANS.items():
            mod = getattr(pkg, modname, None)
            owner, _, attr = path.rpartition(".")
            holder = getattr(mod, owner, None) if owner else mod
            if holder is None or not hasattr(holder, attr):
                continue
            if isinstance(holder, type):
                self._wrap_method(holder, attr, lambda fn, name=name: self._span(name, fn))
            else:
                original = getattr(holder, attr)
                self._rebind(original, self._span(name, original))
        lattice_mod = getattr(pkg, "lattice", None)
        base = getattr(lattice_mod, "Lattice", None)
        classes = _subclasses(base) if base is not None else []
        seen = set()
        for cls in classes:
            for name, attr in COUNTED.items():
                if attr in cls.__dict__:
                    self._wrap_method(cls, attr, lambda fn, name=name: self._counted(name, fn))
            for attr in ORDER_METHODS:
                if attr in cls.__dict__:
                    self._wrap_method(cls, attr, lambda fn: self._first_use(fn, seen))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # -- summaries ----------------------------------------------------------

    def mark(self):
        """Position in the span list and the counts so far, to summarise a
        phase from there on."""
        return len(self.spans), Counter(self.counts)

    def summary(self, since=None, until=None):
        """{name: (calls, total_ns, self_ns)} over the spans recorded between
        two marks."""
        since = since[0] if since else 0
        until = until[0] if until else None
        calls, total, child = Counter(), Counter(), Counter()
        for name, start, end, parent in self.spans[since:until]:
            calls[name] += 1
            total[name] += end - start
            if parent >= since:
                child[self.spans[parent][0]] += end - start
        return {name: (calls[name], total[name], total[name] - child[name]) for name in calls}

    def counts_since(self, mark):
        """Calls of the counted methods from a mark on."""
        return self.counts - mark[1]


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(c for c in _subclasses(sub) if c not in out)
    return out
