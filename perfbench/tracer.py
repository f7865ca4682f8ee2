"""Spans around convexkit's public functions, installed from the benchmark's side.

A Tracer replaces a function or method with a wrapper that counts calls and
sums their wall time (inclusive of callees), then puts the original back on
restore(). Names that a module imported with `from .core import ...` are
separate bindings, so patch_everywhere() rebinds each of them.
"""

import time
from collections import defaultdict


class Span:
    __slots__ = ("calls", "seconds", "units")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.units = 0


class Tracer:
    def __init__(self):
        self.spans = defaultdict(Span)
        self._undo = []

    def wrap(self, key, fn, units=None):
        """A wrapper of fn recording into spans[key]; units(args) adds a work count."""
        span = self.spans[key]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.seconds += clock() - t0
                span.calls += 1
                if units is not None:
                    span.units += units(args)

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, key, units=None, wrapper=None):
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper or self.wrap(key, original, units))

    def patch_everywhere(self, home, modules, name, key, units=None):
        """Wrap home.name and rebind it in every module that imported the same object."""
        original = getattr(home, name)
        wrapper = self.wrap(key, original, units)
        for mod in [home] + [m for m in modules if m is not home]:
            if mod.__dict__.get(name) is original:
                self.patch(mod, name, key, wrapper=wrapper)

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def calls(self, key):
        return self.spans[key].calls if key in self.spans else 0

    def seconds(self, key):
        return self.spans[key].seconds if key in self.spans else 0.0

    def per_call_us(self, key):
        n = self.calls(key)
        return 1e6 * self.seconds(key) / n if n else 0.0
