"""Per-layer spans and counters for one traced pass, recorded from outside.

``Tracer.install`` wraps the public functions (each module's ``__all__``) of
every ``eulerward`` module, plus the arithmetic of ``PolyST`` and
``TruncSeries``.  The wrapper replaces the original in every module namespace
that holds it, because ``verify``, ``trees`` and ``cli`` import names with
``from ... import``.  A layer is the module a function is defined in.

A span runs from a wrapped call's entry to its return; a generator's span is
the time spent inside it on each resume, so enumeration is timed across its
iteration, not its creation.  A layer's self time is its spans minus the
spans of the wrapped calls they make.  Wrappers do nothing while ``active``
is false, which is how the benchmark keeps its own checks out of the trace.

``MemoryProbe`` is the separate, untimed probe for ``stirlingperm.peak_mb``:
tracemalloc runs only while an enumeration call is open.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import tracemalloc
from collections import Counter
from time import perf_counter

from workloads import PINNED_VERIFY

LAYERS = ("numerics", "eulerian", "ward", "stirlingperm", "trees", "series", "verify", "cli")
POLYST_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__", "__pow__")
CLASS_METHODS = {
    ("numerics", "PolyST"): POLYST_OPS + ("evaluate", "render"),
    ("series", "TruncSeries"): POLYST_OPS
    + ("__truediv__", "inverse", "exp", "log", "compose", "reversion", "zdz"),
}
ENUMERATION = (
    "stirlingperm.enumerate_sequences",
    "stirlingperm.ascent_histogram",
    "stirlingperm.ascent_histograms_up_to",
)
TRANSFORMS = ("ward.euler_to_ward", "ward.ward_to_euler", "ward.general_inverse_transform")


def _public_callables():
    """(layer, qualified name, function) for everything the tracer wraps."""
    for layer in LAYERS:
        mod = importlib.import_module("eulerward." + layer)
        for name in mod.__all__:
            obj = getattr(mod, name)
            if not isinstance(obj, type) and callable(obj) and obj.__module__ == mod.__name__:
                yield layer, "%s.%s" % (layer, name), obj
    for (layer, cls_name), methods in CLASS_METHODS.items():
        cls = getattr(importlib.import_module("eulerward." + layer), cls_name)
        for attr in methods:
            fn = cls.__dict__[attr]
            yield layer, "%s.%s" % (layer, fn.__qualname__), fn


def _patch(wrappers):
    """Swap each original for its wrapper wherever the package holds it."""
    mods = [importlib.import_module("eulerward")]
    mods += [importlib.import_module("eulerward." + layer) for layer in LAYERS]
    for (layer, cls_name), methods in CLASS_METHODS.items():
        cls = getattr(importlib.import_module("eulerward." + layer), cls_name)
        for attr in methods:
            if id(cls.__dict__[attr]) in wrappers:
                setattr(cls, attr, wrappers[id(cls.__dict__[attr])])
    for mod in mods:
        for name, value in list(vars(mod).items()):
            if id(value) in wrappers:
                setattr(mod, name, wrappers[id(value)])


class Tracer:
    def __init__(self):
        self.active = False
        self._stack = []  # [layer, start, seconds spent in wrapped children]
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.fn_self_s = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.suite_s = dict.fromkeys(PINNED_VERIFY, 0.0)
        self.max_entry_bits = 0

    def install(self):
        wrappers = {}
        for layer, qual, fn in _public_callables():
            if id(fn) not in wrappers:
                wrap = self._generator if inspect.isgeneratorfunction(fn) else self._function
                wrappers[id(fn)] = wrap(fn, layer, qual)
        _patch(wrappers)

    def _enter(self, layer):
        self._stack.append([layer, perf_counter(), 0.0])

    def _exit(self, qual):
        end = perf_counter()
        layer, start, children = self._stack.pop()
        span = end - start
        self.self_s[layer] += span - children
        self.fn_self_s[qual] += span - children
        if self._stack:
            self._stack[-1][2] += span
        return span

    def _function(self, fn, layer, qual):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.calls[qual] += 1
            tracer._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = tracer._exit(qual)
            tracer._record(layer, qual, args, result, span)
            return result

        return traced

    def _generator(self, fn, layer, qual):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            if not tracer.active:
                yield from it
                return
            tracer.calls[qual] += 1
            while True:
                tracer._enter(layer)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._exit(qual)
                if qual == "stirlingperm.enumerate_sequences":
                    tracer.counts["objects"] += 1
                yield item

        return traced

    def _record(self, layer, qual, args, result, span):
        """Counters read off a finished call; kept cheap (no full-table scans)."""
        if qual in ("eulerian.eulerian_table", "ward.ward_table"):
            self.counts[layer + ".entries"] += sum(len(row) for row in result.rows)
            if layer == "eulerian":
                self.max_entry_bits = max(self.max_entry_bits, _max_bits(result.rows[-1]))
        elif qual == "stirlingperm.ascent_histogram":
            self.counts["objects"] += sum(result)
        elif qual == "stirlingperm.ascent_histograms_up_to":
            self.counts["objects"] += sum(map(sum, result))
        elif qual == "verify.run_suite" and args and args[0] in self.suite_s:
            self.suite_s[args[0]] += span
        if layer == "series" and (not self._stack or self._stack[-1][0] != "series"):
            # coefficients the series layer hands back to its callers
            if hasattr(result, "coeffs"):
                self.counts["coeffs"] += len(result.coeffs)
            elif isinstance(result, list):
                self.counts["coeffs"] += len(result)

    def metrics(self):
        """Per-layer metrics of the pass, by the names BENCHMARK.json uses."""
        c = self.calls
        s = self.self_s
        words = c["trees.perm_to_tree"]
        enum_s = sum(self.fn_self_s[q] for q in ENUMERATION)
        out = {layer + ".self_s": s[layer] for layer in LAYERS}
        out.update(
            {
                "stirlingperm.objects": self.counts["objects"],
                "stirlingperm.objects_per_s": _rate(self.counts["objects"], enum_s),
                "trees.words": words,
                "trees.words_per_s": _rate(words, s["trees"]),
                "trees.validations_per_word": _rate(c["stirlingperm.validate_word"], words),
                "series.mul_calls": c["series.TruncSeries.__mul__"],
                "series.compose_calls": c["series.TruncSeries.compose"],
                "series.coeffs_per_s": _rate(self.counts["coeffs"], s["series"]),
                "numerics.polyst_ops": sum(c["numerics.PolyST." + op] for op in POLYST_OPS),
                "numerics.binomial_calls": c["numerics.binomial"],
                "eulerian.entries": self.counts["eulerian.entries"],
                "ward.entries": self.counts["ward.entries"],
                "eulerian.entries_per_s": _rate(self.counts["eulerian.entries"], s["eulerian"]),
                "eulerian.max_entry_bits": self.max_entry_bits,
                "ward.transform_calls": sum(c[q] for q in TRANSFORMS),
                "cli.bytes_out": self.counts["bytes_out"],
            }
        )
        out.update({"verify.%s_s" % name: sec for name, sec in self.suite_s.items()})
        return out


def _rate(num, den):
    return num / den if den > 0 else 0.0


def _max_bits(row):
    """Largest entry size in a row: bit length of an int, or of the largest
    coefficient of a polynomial."""
    best = 0
    for v in row:
        if isinstance(v, int):
            best = max(best, abs(v).bit_length())
        else:
            best = max([best] + [abs(c).bit_length() for c in v.terms.values()])
    return best


class MemoryProbe:
    """Peak traced memory, in bytes, of the outermost enumeration calls.

    For a generator the window runs from its first resume to its end, so the
    consumer's short-lived objects in between are counted too.
    """

    def __init__(self):
        self.active = False
        self.peak = 0
        self._depth = 0

    def install(self):
        wrappers = {}
        for layer, qual, fn in _public_callables():
            if qual in ENUMERATION:
                wrap = self._generator if inspect.isgeneratorfunction(fn) else self._function
                wrappers[id(fn)] = wrap(fn)
        _patch(wrappers)

    def _open(self):
        self._depth += 1
        if self._depth == 1:
            tracemalloc.start()

    def _close(self):
        self._depth -= 1
        if self._depth == 0:
            self.peak = max(self.peak, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    def _function(self, fn):
        probe = self

        @functools.wraps(fn)
        def probed(*args, **kwargs):
            if not probe.active:
                return fn(*args, **kwargs)
            probe._open()
            try:
                return fn(*args, **kwargs)
            finally:
                probe._close()

        return probed

    def _generator(self, fn):
        probe = self

        @functools.wraps(fn)
        def probed(*args, **kwargs):
            if not probe.active:
                yield from fn(*args, **kwargs)
                return
            probe._open()
            try:
                yield from fn(*args, **kwargs)
            finally:
                probe._close()

        return probed
