"""Per-layer tracing of pgrouplab from outside the program.

`Tracer.install()` wraps every public function of every pgrouplab module, and
the public methods of `CayleyGroup`, then rebinds each wrapper at every name
the original is bound to.  Several modules import functions by name (`submod`
binds `rref`, `poly_divmod` and `mat_rank`; `freelie` binds `rref`;
`groups.catalog` binds `aut_order`; `cli` binds `census` as `run_census`), so
patching only the defining module would miss those calls.  The package
attribute `pgrouplab.groups.catalog` is the `catalog` function, not the
module, so modules are found through `sys.modules`.

A layer is a pgrouplab module (`groups` covers the whole subpackage).  Each
call opens a frame on a stack; when it closes, its duration minus that of
the traced calls it made is added to its layer's self time.  Generator
functions are timed per resumption and also count the items they yield.
Nothing is written while the round runs: counters and one span per benchmark
operation stay in memory and are returned by `report()`.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("groups", "fplin", "submod", "walk", "bounds", "qcombin", "freelie", "cli")

# Element-level CayleyGroup helpers run inside the traced kernels millions of
# times; their cost is left in the caller's self time.
UNTRACED_METHODS = {"mul", "power", "conjugate", "commutator"}


def layer_of(module_name: str) -> str:
    parts = module_name.split(".")
    return parts[1] if len(parts) > 1 else parts[0]


class _Stat:
    __slots__ = ("calls", "incl_s", "items", "depth")

    def __init__(self):
        self.calls = 0
        self.incl_s = 0.0
        self.items = 0
        self.depth = 0


class Tracer:
    def __init__(self):
        self.stats: dict = {}  # "layer.function" -> _Stat
        self.wrapped: dict = {}  # "layer.function" -> the original function
        self.layer_self = {layer: 0.0 for layer in LAYERS}
        self.op_spans: list = []  # (label, start, end, {layer: self_s})
        self._stack: list = []  # frames: [layer, start, child_s, stat]

    # -- frames ---------------------------------------------------------------

    def _enter(self, layer: str, stat: _Stat) -> list:
        stat.depth += 1
        frame = [layer, 0.0, 0.0, stat]
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _exit(self, frame: list):
        end = time.perf_counter()
        layer, start, child_s, stat = frame
        self._stack.pop()
        dur = end - start
        self.layer_self[layer] += dur - child_s
        if self._stack:
            self._stack[-1][2] += dur
        stat.depth -= 1
        if stat.depth == 0:
            stat.incl_s += dur

    # -- wrapping ---------------------------------------------------------------

    def wrap(self, fn, key: str, layer: str):
        if self.wrapped.setdefault(key, fn) is not fn:
            raise ValueError(f"two functions traced as {key}")
        stat = self.stats[key] = _Stat()
        enter, leave = self._enter, self._exit
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                stat.calls += 1
                gen = fn(*args, **kwargs)
                while True:
                    frame = enter(layer, stat)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        leave(frame)
                    stat.items += 1
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stat.calls += 1
            frame = enter(layer, stat)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)

        return traced

    def install(self):
        """Wrap pgrouplab's public functions and rebind them everywhere."""
        import pgrouplab.cli  # noqa: F401  (the package itself loads every other module)
        from pgrouplab.groups.cayley import CayleyGroup

        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "pgrouplab" or name.startswith("pgrouplab."))]
        wrappers: dict = {}  # id(original) -> wrapper
        for mod in modules:
            layer = layer_of(mod.__name__)
            if layer not in LAYERS:
                continue
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__ or id(obj) in wrappers:
                    continue
                wrappers[id(obj)] = self.wrap(obj, f"{layer}.{name}", layer)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, name, wrappers[id(obj)])
        for name, obj in list(vars(CayleyGroup).items()):
            if name.startswith("_") or name in UNTRACED_METHODS or not inspect.isfunction(obj):
                continue
            setattr(CayleyGroup, name, self.wrap(obj, f"groups.{name}", "groups"))
        CayleyGroup.__init__ = self.wrap(CayleyGroup.__init__, "groups.table_build", "groups")

    # -- benchmark operations ------------------------------------------------------

    def begin_op(self) -> tuple:
        return dict(self.layer_self), time.perf_counter()

    def end_op(self, label: str, mark: tuple):
        before, start = mark
        end = time.perf_counter()
        delta = {k: v - before[k] for k, v in self.layer_self.items() if v != before[k]}
        self.op_spans.append((label, start, end, delta))

    # -- results -------------------------------------------------------------------

    def report(self) -> dict:
        """Flat counters: "<key>.calls", "<key>.s", "<key>.items", "<layer>.calls", "<layer>.self_s"."""
        out: dict = {}
        layer_calls = {layer: 0 for layer in LAYERS}
        for key, st in self.stats.items():
            out[f"{key}.calls"] = st.calls
            out[f"{key}.s"] = st.incl_s
            out[f"{key}.items"] = st.items
            layer_calls[key.split(".", 1)[0]] += st.calls
        for layer in LAYERS:
            out[f"{layer}.calls"] = layer_calls[layer]
            out[f"{layer}.self_s"] = self.layer_self[layer]
        return out
