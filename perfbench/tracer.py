"""Outside-in span tracing of ``lattice_forge``.

``Tracer.install`` wraps every public function in each layer module's
``__all__`` and rebinds the wrapper at every namespace of the package that
binds the original. Calls across modules and global lookups inside a
module therefore both pass through a wrapper. Classes are not wrapped.

Each call records a span (name, start, end, parent span, request id) in
memory; ``summary`` turns the spans into per-layer and per-function self
times. A span's self time is its duration minus the time its child spans
cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("numtheory", "lattice", "metrics", "pointset", "integration", "kernels", "sphere", "cli")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.requests: list[int] = []
        self.raised: list[bool] = []
        self.request_id = -1
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        requests, raised, stack = self.requests, self.raised, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            requests.append(self.request_id)
            raised.append(False)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[idx] = True
                raise
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        package = importlib.import_module("lattice_forge")
        modules = [importlib.import_module(f"lattice_forge.{layer}") for layer in LAYERS]
        wrapped = {}
        for layer, mod in zip(LAYERS, modules):
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn):
                    wrapped[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for ns in [package, *modules]:
            for attr, value in list(vars(ns).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(ns, attr, hit[1])

    def spans(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "request": r, "raised": x}
            for n, s, e, p, r, x in zip(
                self.names, self.starts, self.ends, self.parents, self.requests, self.raised
            )
        ]

    def summary(self) -> dict[str, float]:
        """Self seconds, calls and raised calls per layer and per function,
        plus ``covered_s``, the time inside any root span."""
        child = [0.0] * len(self.names)
        covered = 0.0
        for i, p in enumerate(self.parents):
            dur = self.ends[i] - self.starts[i]
            if p >= 0:
                child[p] += dur
            else:
                covered += dur
        out: dict[str, float] = {"covered_s": covered}
        for i, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            self_s = self.ends[i] - self.starts[i] - child[i]
            for key in (layer, name):
                out[f"{key}.self_s"] = out.get(f"{key}.self_s", 0.0) + self_s
                out[f"{key}.calls"] = out.get(f"{key}.calls", 0) + 1
            out[f"{layer}.raised"] = out.get(f"{layer}.raised", 0) + int(self.raised[i])
        return out
