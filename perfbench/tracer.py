"""Per-layer tracing of the ``quandles`` package from outside it.

The tracer wraps every public module-level function of every submodule and
installs the wrapper in every namespace that binds the function: the
defining module, each module that did ``from .x import y``, the package
namespace, and module-level tuples that hold the function
(``verification.ALL_CLAIMS``).  Each call records one span
``(name, start, end, parent, nested)``; spans stay in memory until the
caller asks for the summary or writes them out.

A few functions also get an observer that sees the arguments and result, so
that counts are taken where the work happens: distinct ``(G, psi)`` inputs
of the quandle constructor and the axiom check, the method of every
``decide`` verdict, and the size of every classification report.

Generator functions (``groups.all_group_isomorphisms``) are counted, not
timed: their frames interleave with the consumer, whose span absorbs them.
"""

from __future__ import annotations

import collections
import functools
import gzip
import importlib
import inspect
import json
import pkgutil
from time import perf_counter


def _quandle_key(q):
    """The (group table, automorphism images) a quandle was built from."""
    if q.provenance is not None:
        g, psi = q.provenance
        return (g.table, psi.images)
    return q.sym


class Tracer:
    """Wraps a package's public functions and records one span per call."""

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.counts: collections.Counter = collections.Counter()
        self.inputs: dict[str, set] = collections.defaultdict(set)
        self.verdicts: dict[int, tuple[str, str]] = {}
        self.reports: list[tuple[int, int, int]] = []
        self._stack: list[int] = []
        self._active: list[int] = []
        self._patches: list[tuple] = []

    # -- installation -----------------------------------------------------

    def _modules(self):
        mods = [self.package]
        for info in pkgutil.iter_modules(self.package.__path__):
            mods.append(importlib.import_module(f"{self.package.__name__}.{info.name}"))
        return mods

    def install(self) -> None:
        modules = self._modules()
        wrappers: dict[int, object] = {}
        for mod in modules[1:]:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or inspect.isclass(obj) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrappers[id(obj)] = self._wrap(obj, f"{short}.{attr}")
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                replacement = self._replacement(obj, wrappers)
                if replacement is not None:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, replacement)

    @staticmethod
    def _replacement(obj, wrappers):
        if id(obj) in wrappers:
            return wrappers[id(obj)]
        if isinstance(obj, tuple) and any(id(v) in wrappers for v in obj):
            return tuple(wrappers.get(id(v), v) for v in obj)
        return None

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, fn, name: str):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, name)
        name_id = len(self.names)
        self.names.append(name)
        self._active.append(0)
        spans, stack, active = self.spans, self._stack, self._active
        observe = self._observer(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            nested = active[name_id] > 0
            index = len(spans)
            spans.append((name_id, 0.0, 0.0, parent, nested))
            stack.append(index)
            active[name_id] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                active[name_id] -= 1
                stack.pop()
                spans[index] = (name_id, start, end, parent, nested)
            if observe is not None:
                observe(index, args or tuple(kwargs.values()), result)
            return result

        return wrapper

    def _wrap_generator(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[f"{name}.calls"] += 1
            for item in fn(*args, **kwargs):
                counts[f"{name}.yielded"] += 1
                yield item

        return wrapper

    def _observer(self, name: str):
        inputs, verdicts, reports = self.inputs, self.verdicts, self.reports
        if name == "quandle.general_alexander":
            return lambda _i, _args, quandle: inputs[name].add(_quandle_key(quandle))
        if name == "quandle.check_axioms":
            return lambda _i, args, _r: inputs[name].add(_quandle_key(args[0]))
        if name == "iso.decide":
            def record(index, _args, verdict):
                verdicts[index] = (verdict.result, verdict.method)
            return record
        if name == "classify.classify_order":
            return lambda _i, _args, report: reports.append(
                (len(report.pairs), report.class_count, len(report.verdict_log)))
        return None

    # -- summaries --------------------------------------------------------

    def span_name(self, index: int) -> str:
        return self.names[self.spans[index][0]]

    def has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.span_name(parent) == name:
                return True
            parent = self.spans[parent][3]
        return False

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per function: calls, inclusive seconds (outermost calls only, so
        recursion is not counted twice) and self seconds (duration minus the
        time covered by child spans)."""
        child = [0.0] * len(self.spans)
        for _nid, start, end, parent, _nested in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for index, (nid, start, end, _parent, nested) in enumerate(self.spans):
            row = out[self.names[nid]]
            row["calls"] += 1
            if not nested:
                row["s"] += end - start
            row["self_s"] += end - start - child[index]
        return out

    def write_spans(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent index."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for nid, start, end, parent, _nested in self.spans:
                fh.write(json.dumps([self.names[nid], start, end, parent]) + "\n")
