"""Spans around calls into the public functions of each chaincliq module.

The tracer replaces every public function of the seven layer modules with
a timing wrapper at each place it is bound: the defining module, the
package namespace, and every layer module that imported the name into
its own namespace (cli, oracle, search and chains do). Private helpers
are neither patched nor read, so work they do shows up as self time of
the public function that called them. A generator function such as
`enumerate_chains` is timed per `next()` instead of per call.

Spans are kept in flat arrays (name id, start, end, parent) until the
benchmark writes them out. Callbacks registered per function name see
each return value, which is how counts such as B&B nodes are taken from
public result fields.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from time import perf_counter
from types import FunctionType
from typing import Callable

LAYERS = ("cli", "chains", "graphs", "derived", "witness", "oracle", "search")


class Tracer:
    def __init__(self, on_result: dict[str, Callable[[object], None]] | None = None) -> None:
        self.on_result = on_result or {}
        package = importlib.import_module("chaincliq")
        modules = {layer: importlib.import_module(f"chaincliq.{layer}") for layer in LAYERS}
        self.names: list[str] = []
        self._wrappers: dict[FunctionType, FunctionType] = {}
        for layer, mod in modules.items():
            for name, fn in vars(mod).items():
                if not name.startswith("_") and isinstance(fn, FunctionType) \
                        and fn.__module__ == mod.__name__:
                    self._wrappers[fn] = self._wrap(fn, f"{layer}.{name}")
        self._bindings = [
            (ns, name, fn)
            for ns in (package, *modules.values())
            for name, fn in vars(ns).items()
            if not name.startswith("_") and isinstance(fn, FunctionType) and fn in self._wrappers
        ]
        self.reset()

    def reset(self) -> None:
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def install(self) -> None:
        for ns, name, fn in self._bindings:
            setattr(ns, name, self._wrappers[fn])

    def uninstall(self) -> None:
        for ns, name, fn in self._bindings:
            setattr(ns, name, fn)

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.span_name.append(name_id)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _wrap(self, fn: FunctionType, name: str) -> FunctionType:
        name_id = len(self.names)
        self.names.append(name)
        hook = self.on_result.get(name)

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    idx = self._open(name_id)
                    t0 = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.end[idx] = perf_counter()
                        self.start[idx] = t0
                        self._stack.pop()
                    if hook:
                        hook(item)
                    yield item
            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_id)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self.start[idx] = t0
                self._stack.pop()
            if hook:
                hook(result)
            return result
        return traced

    def summarize(self) -> dict[str, dict[str, float]]:
        """Per span name: calls and inclusive seconds; per layer: self seconds,
        entries from outside the layer and their inclusive seconds; plus the
        total of the top-level spans."""
        layer_of = [name.split(".", 1)[0] for name in self.names]
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        own = list(dur)
        calls = dict.fromkeys(self.names, 0)
        incl = dict.fromkeys(self.names, 0.0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        entries = dict.fromkeys(LAYERS, 0)
        entry_s = dict.fromkeys(LAYERS, 0.0)
        top = 0.0
        for i in range(n):
            name = self.names[self.span_name[i]]
            layer = layer_of[self.span_name[i]]
            calls[name] += 1
            incl[name] += dur[i]
            p = self.parent[i]
            if p >= 0:
                own[p] -= dur[i]
            else:
                top += dur[i]
            if p < 0 or layer_of[self.span_name[p]] != layer:
                entries[layer] += 1
                entry_s[layer] += dur[i]
        for i in range(n):
            self_s[layer_of[self.span_name[i]]] += own[i]
        return {"calls": calls, "incl_s": incl, "self_s": self_s, "entries": entries,
                "entry_s": entry_s, "top_s": top}

    def write_spans(self, path, header: str) -> None:
        """One line per span: name, start and end in microseconds, parent span index."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(header + "\nindex\tname\tstart_us\tend_us\tparent\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.start)):
                out.write(f"{i}\t{self.names[self.span_name[i]]}\t"
                          f"{(self.start[i] - t0) * 1e6:.1f}\t{(self.end[i] - t0) * 1e6:.1f}\t"
                          f"{self.parent[i]}\n")
