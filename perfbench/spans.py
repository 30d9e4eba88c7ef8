"""In-memory span recorder for the traced benchmark run.

`Tracer.instrument_package` replaces every public function of the package's
modules with a wrapper that records a span (name, start, end, parent, tag).
A function imported by name into other modules (for example `solve_ram`
into `cli`) is replaced under every name it has. Welfare models and
regularizers the benchmark builds are wrapped separately, because their
callables are closures that no module exposes. Spans are kept in flat
arrays and written out once, at the end of the run.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import importlib
import inspect
import json
import math
import time
from array import array
from collections import Counter, defaultdict
from typing import Callable, Optional

MODULES = ("core", "welfare", "transforms", "ram", "duality", "rum",
           "substitution", "modelspec", "cli")


def _first(args, kwargs, key):
    return args[0] if args else kwargs.get(key)


def _family(reg) -> str:
    name = getattr(reg, "name", "?")
    for prefix, family in (("entropy", "entropy"), ("quadratic", "quadratic"),
                           ("log_barrier", "logbarrier"), ("mdm", "mdm"),
                           ("mmm", "mmm"), ("cmm", "cmm")):
        if name.startswith(prefix):
            return family
    return "other"


def _points(mu) -> int:
    """Utility points in one call: the product of the leading axes."""
    shape = getattr(mu, "shape", ())
    return math.prod(shape[:-1]) if len(shape) >= 2 else 1


class Tracer:
    """Span recorder; one instance per traced process.

    It is also the traced run's instrument: `model`, `regularizer` and
    `spanned` are the hooks `workloads.Instrument` defines.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.tag = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.extra = array("d")
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self.labels: dict[int, str] = {}
        self.marks: dict[str, int] = {}
        self.counters_at: dict[str, Counter] = {}
        self.wrapped: list[str] = []

    def _intern(self, text: str) -> int:
        idx = self._name_ids.get(text)
        if idx is None:
            idx = self._name_ids[text] = len(self.names)
            self.names.append(text)
        return idx

    def mark(self, phase: str) -> None:
        """Remember where a phase (setup, warmup, jobs, after) starts: the
        span index and the counter values."""
        self.marks[phase] = len(self.name)
        self.counters_at[phase] = Counter(self.counters)

    def spanned(self, name: str, fn: Callable):
        """Call `fn()` inside a span of its own."""
        return self.wrap(fn, name)()

    def wrap(self, fn: Callable, name: str,
             tag: Optional[Callable | str] = None,
             extra: Optional[Callable] = None) -> Callable:
        """Wrap `fn` so each call records a span.

        `tag` names a sub-kind of the span (a model label, a regularizer
        family, a CLI command): a string, or a function of (args, kwargs).
        `extra(args, kwargs, result)` stores one number with the span
        (points, iterations, samples).
        """
        name_id = self._intern(name)
        spans_name, spans_tag, spans_parent = self.name, self.tag, self.parent
        spans_start, spans_end, spans_extra = self.start, self.end, self.extra
        stack, intern, clock = self._stack, self._intern, time.perf_counter
        fixed_tag = intern(tag) if isinstance(tag, str) else -1
        tag_of = tag if callable(tag) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans_name)
            spans_name.append(name_id)
            spans_tag.append(intern(str(tag_of(args, kwargs))) if tag_of else fixed_tag)
            spans_parent.append(stack[-1] if stack else -1)
            spans_extra.append(0.0)
            spans_end.append(0.0)
            stack.append(idx)
            spans_start.append(clock())
            try:
                result = fn(*args, **kwargs)
                if extra is not None:
                    spans_extra[idx] = float(extra(args, kwargs, result))
                return result
            finally:
                spans_end[idx] = clock()
                stack.pop()

        return traced

    def count(self, fn: Callable, counter: str) -> Callable:
        """Wrap `fn` to count its calls without a span (for very hot callables)."""
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def label_of(self, model) -> str:
        return self.labels.get(id(model), getattr(model, "name", "?"))

    # --- package instrumentation -----------------------------------------

    def _tagger(self, qualname: str):
        model_arg = lambda a, k: self.label_of(_first(a, k, "model"))
        sampler_family = lambda a, k: _first(a, k, "sampler").family
        return {
            "ram.solve_ram": (lambda a, k: _family(_first(a, k, "reg")),
                              lambda a, k, r: r.iterations),
            "duality.invert_choice": (model_arg, None),
            "duality.conjugate_V": (model_arg, None),
            "duality.anchor_family": (model_arg, None),
            "modelspec.build_model": (
                lambda a, k: _first(a, k, "spec").get("kind", "?"), None),
            "cli.main": (lambda a, k: (list(_first(a, k, "argv") or []) or ["?"])[0],
                         None),
            "rum.mc_choice_probs": (sampler_family, lambda a, k, r: r.samples),
            "rum.mc_welfare": (sampler_family, lambda a, k, r: r.samples),
        }.get(qualname, (None, None))

    def instrument_package(self, package: str = "welfarechoice") -> None:
        pkg = importlib.import_module(package)
        modules = {m: importlib.import_module(f"{package}.{m}") for m in MODULES}
        replacement: dict = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                qualname = f"{short}.{attr}"
                tag, extra = self._tagger(qualname)
                replacement[obj] = self.wrap(obj, qualname, tag, extra)
                self.wrapped.append(qualname)
        for mod in [pkg, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replacement:
                    setattr(mod, attr, replacement[obj])
        rum = modules["rum"]
        cls = rum.BinaryRUMConstruction
        cls.sample_xi = self.wrap(cls.sample_xi, "rum.binary.sample_xi",
                                  tag=lambda a, k: self.label_of(a[0].model),
                                  extra=lambda a, k, r: r.size)
        self.wrapped.append("rum.BinaryRUMConstruction.sample_xi")

    def model(self, model, label: str):
        """Wrapped copy of a benchmark-built WelfareModel."""
        wrapped = dataclasses.replace(
            model,
            value=self.wrap(model.value, "welfare.value", label,
                            lambda a, k, r: _points(a[0])),
            gradient=self.wrap(model.gradient, "welfare.gradient", label,
                               lambda a, k, r: _points(a[0])))
        self.labels[id(wrapped)] = label
        return wrapped

    def regularizer(self, reg):
        """Copy of a benchmark-built Regularizer whose gradient calls are counted."""
        return dataclasses.replace(
            reg, gradient=self.count(reg.gradient, "ram.regularizer_gradient.calls"))

    # --- analysis ----------------------------------------------------------

    def analyse(self, first: int, last: Optional[int] = None) -> dict:
        """Totals over spans [first, last): per name and per (name, tag).

        Inclusive time counts only the outermost span of each name, so a
        recursive call is not counted twice; self time is a span's duration
        minus the time its direct children cover.
        """
        last = len(self.name) if last is None else last
        names, tags = self.names, self.tag
        child_time = defaultdict(float)
        for i in range(first, last):
            p = self.parent[i]
            if p >= first:
                child_time[p] += self.end[i] - self.start[i]
        stats: dict = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0,
                                           "extra": 0.0})
        for i in range(first, last):
            dur = self.end[i] - self.start[i]
            name = names[self.name[i]]
            keys = [name]
            if tags[i] >= 0:
                keys.append(f"{name}[{names[tags[i]]}]")
            outer = True
            p = self.parent[i]
            while p >= first:
                if self.name[p] == self.name[i]:
                    outer = False
                    break
                p = self.parent[p]
            for key in keys:
                s = stats[key]
                s["calls"] += 1
                s["extra"] += self.extra[i]
                s["self_ms"] += 1e3 * (dur - child_time.get(i, 0.0))
                if outer:
                    s["ms"] += 1e3 * dur
        return dict(stats)

    def calls_under(self, child: str, ancestor: str, first: int, last: int,
                    child_tag: Optional[str] = None) -> int:
        """Number of `child` spans in [first, last) with an `ancestor` span."""
        cid, aid = self._name_ids.get(child), self._name_ids.get(ancestor)
        tid = -1 if child_tag is None else self._name_ids.get(child_tag)
        if cid is None or aid is None or tid is None:
            return 0
        count = 0
        for i in range(first, last):
            if self.name[i] != cid or (tid >= 0 and self.tag[i] != tid):
                continue
            p = self.parent[i]
            while p >= first:
                if self.name[p] == aid:
                    count += 1
                    break
                p = self.parent[p]
        return count

    def write(self, path: str, summary: dict) -> None:
        """Write every span, gzipped JSON (times in microseconds from the
        first span)."""
        t0 = self.start[0] if len(self.start) else 0.0
        doc = {
            "names": self.names,
            "columns": ["name", "tag", "parent", "start_us", "end_us", "extra"],
            "spans": [[self.name[i], self.tag[i], self.parent[i],
                       round(1e6 * (self.start[i] - t0), 1),
                       round(1e6 * (self.end[i] - t0), 1), self.extra[i]]
                      for i in range(len(self.name))],
            "marks": self.marks,
            "counters": dict(self.counters),
            "wrapped": self.wrapped,
            "summary": summary,
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
