"""Span recording around the public functions of each warpedsphere layer.

Tracing is done from outside the package: `Tracer.install` replaces every
module-level binding of a public function in the layer modules with a
wrapper that records a span.  The modules import those functions by name
(`from .grids import integrate`), so the binding in each importing module
is replaced too; calls through a function-local import read the defining
module's binding at call time and are caught the same way.  Private
helpers are not wrapped: their time counts as self time of the public
function that called them.

A span is (name, start, end, parent index, call id, exception name).
Spans stay in memory until `write` is called at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

PACKAGE = "warpedsphere"

#: the package's modules; each is one layer
LAYERS = ("cli", "families", "grids", "metrics", "distance", "potential",
          "functionals", "constants", "verification", "report")

_NAME, _START, _END, _PARENT, _CALL, _ERROR = range(6)


class Tracer:
    """Records nested spans for calls into the package's public functions."""

    def __init__(self):
        self.spans: list[list] = []
        self.call_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def install(self) -> None:
        modules = [importlib.import_module(f"{PACKAGE}.{layer}")
                   for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{name}")
        for module in modules:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, name, wrappers[obj])
                    self._patches.append((module, name, obj))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    def _wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1,
                    self.call_id, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[_ERROR] = type(exc).__name__
                raise
            finally:
                span[_END] = clock()
                stack.pop()

        return traced

    def write(self, path: str) -> None:
        """Write the spans as JSON lines, times in seconds from the first."""
        t0 = self.spans[0][_START] if self.spans else 0.0
        with open(path, "w") as handle:
            for i, s in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "name": s[_NAME], "start": s[_START] - t0,
                    "end": s[_END] - t0, "parent": s[_PARENT],
                    "call": s[_CALL], "error": s[_ERROR]}) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Calls are single-threaded, so children nest inside their parent and
    do not overlap one another: the covered time is their summed length."""
    own = [s[_END] - s[_START] for s in spans]
    for s in spans:
        if s[_PARENT] >= 0:
            own[s[_PARENT]] -= s[_END] - s[_START]
    return own


def summarize(spans: list[list], calls: int) -> dict:
    """Per-call totals from the spans of `calls` traced CLI calls.

    Returns {"layer_self": {layer: s}, "self": {fn: s}, "inclusive":
    {fn: s}, "calls": {fn: n}, "errors": {"fn:exception": n}}, every
    value divided by `calls`.  Inclusive time counts only the outermost
    span of a name, so a function that reaches itself is not counted
    twice.
    """
    own = self_times(spans)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    self_by, incl_by, count_by, errors = {}, {}, {}, {}
    for i, s in enumerate(spans):
        name = s[_NAME]
        layer_self[name.split(".", 1)[0]] += own[i]
        self_by[name] = self_by.get(name, 0.0) + own[i]
        count_by[name] = count_by.get(name, 0) + 1
        if s[_ERROR]:
            key = f"{name}:{s[_ERROR]}"
            errors[key] = errors.get(key, 0) + 1
        p = s[_PARENT]
        while p >= 0 and spans[p][_NAME] != name:
            p = spans[p][_PARENT]
        if p < 0:
            incl_by[name] = incl_by.get(name, 0.0) + s[_END] - s[_START]
    per = 1.0 / calls
    return {
        "layer_self": {k: v * per for k, v in layer_self.items()},
        "self": {k: v * per for k, v in self_by.items()},
        "inclusive": {k: v * per for k, v in incl_by.items()},
        "calls": {k: v * per for k, v in count_by.items()},
        "errors": {k: v * per for k, v in errors.items()},
    }
