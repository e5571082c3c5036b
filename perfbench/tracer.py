"""Per-layer spans around rfva's public functions, installed from outside.

The tracer replaces every binding of a traced function in every loaded
``rfva`` module (``from .x import f`` copies the name, so one function can
have several binding sites) and the traced methods on their classes. Each
call opens a span; a span's self time is its duration minus the time its
child spans cover. Generator functions get one span per ``next()``, so only
time spent producing items is counted, and the inner generator is closed
when the consumer stops early. ``lru_cache`` wrappers keep ``cache_clear``
and ``cache_info``. Leaving the context restores every original binding.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

PACKAGE = "rfva"
LAYERS = ("grouprep", "repdecomp", "lattice", "rfgrowth", "exactalg", "catalog", "cli")
METHODS = (("grouprep", "Rep", "inverse"), ("exactalg", "Lattice", "contains"))
# Summed over the results of each traced function named here.
RESULT_SUMS = {
    "grouprep.close_group": lambda rep: len(rep.elements),
    "lattice.is_invariant_lattice": int,
}


class Stat:
    """Counts for one span name. A leaf call opened no child span, which for
    a cached function means the call was answered from its cache."""

    __slots__ = ("calls", "self_s", "yielded", "leaf_calls", "result_sum")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.yielded = 0
        self.leaf_calls = 0
        self.result_sum = 0

    def as_dict(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}


def _traced_functions():
    """span name -> function, for every public function of the layer modules."""
    found = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"{PACKAGE}.{layer}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(inspect.unwrap(obj)):
                found[f"{layer}.{name}"] = obj
    return found


class Tracer:
    """Context manager; ``stats`` maps span names to counts and self times."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.site_calls: dict[str, int] = {}
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _stat(self, name):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def _enter(self, name):
        if self._stack:
            self._stack[-1][3] = True
        frame = [name, time.perf_counter(), 0.0, False]
        self._stack.append(frame)
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[0]} closed out of order")
        duration = end - frame[1]
        st = self._stat(frame[0])
        st.self_s += duration - frame[2]
        if not frame[3]:
            st.leaf_calls += 1
        if self._stack:
            self._stack[-1][2] += duration

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name, site, fn):
        stat = self._stat(name)
        self.site_calls.setdefault(site, 0)
        tracer = self

        if inspect.isgeneratorfunction(inspect.unwrap(fn)):

            def drive(inner):
                try:
                    while True:
                        frame = tracer._enter(name)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            tracer._exit(frame)
                        stat.yielded += 1
                        yield item
                finally:
                    inner.close()

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                stat.calls += 1
                tracer.site_calls[site] += 1
                return drive(fn(*args, **kwargs))

            return traced_gen

        measure = RESULT_SUMS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stat.calls += 1
            tracer.site_calls[site] += 1
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if measure is not None:
                stat.result_sum += measure(result)
            return result

        for attr in ("cache_clear", "cache_info", "cache_parameters"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def _bind(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    # -- install / restore ---------------------------------------------------

    def __enter__(self):
        functions = _traced_functions()
        by_id = {id(fn): (name, fn) for name, fn in functions.items()}
        for modname, mod in sorted(sys.modules.items()):
            if mod is None or (modname != PACKAGE and not modname.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = by_id.get(id(obj))
                if hit is not None:
                    name, fn = hit
                    self._bind(mod, attr, self._wrap(name, f"{modname}:{attr}", fn))
        for layer, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"{PACKAGE}.{layer}"), cls_name)
            fn = vars(cls)[meth]
            name = f"{layer}.{cls_name}.{meth}"
            self._bind(cls, meth, self._wrap(name, f"{PACKAGE}.{layer}:{cls_name}.{meth}", fn))
        return self

    def __exit__(self, *exc):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        return False

    def snapshot(self) -> dict:
        return {
            "stats": {name: st.as_dict() for name, st in self.stats.items()},
            "sites": dict(self.site_calls),
        }
