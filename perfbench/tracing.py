"""Spans recorded from outside the program, and the statistics drawn from them.

The benchmark wraps public functions of ``safemanip`` in place.  A wrapped
call records one span: name, start, end, the span that was open when it was
called, and an optional tag computed from its return value.  Spans stay in
memory and are written once, when the run ends.  The loop is synchronous in
one thread, so spans nest strictly, nothing waits on anything else, and a
span's self time is its duration minus the durations of its direct children.
"""

import functools
import importlib
import sys
import time
from dataclasses import dataclass

import numpy as np


class HookError(RuntimeError):
    """A hooked name is missing, or a required one was never called."""


@dataclass(frozen=True)
class Hook:
    """``attr`` of ``safemanip.<module>`` (``Class.method`` allowed), recorded
    as span ``name``; ``tag`` maps the return value to a short label."""

    module: str
    attr: str
    name: str
    tag: object = None


class Tracer:
    """In-memory span store; ``wrap`` returns the recording wrapper."""

    def __init__(self):
        self.names = []
        self.parent = []
        self.start = []
        self.end = []
        self.tags = []
        self._open = []

    def wrap(self, name, fn, tag=None):
        names, parent, start, end, tags, open_ = (
            self.names, self.parent, self.start, self.end, self.tags,
            self._open)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            names.append(name)
            parent.append(open_[-1] if open_ else -1)
            tags.append(None)
            end.append(0.0)
            open_.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                open_.pop()
            if tag is not None:
                tags[idx] = tag(result)
            return result

        return traced

    def spans(self):
        """Arrays (names, parent, start, end, tags) of everything recorded."""
        return (np.asarray(self.names, dtype=object),
                np.asarray(self.parent, dtype=int),
                np.asarray(self.start, dtype=float),
                np.asarray(self.end, dtype=float),
                list(self.tags))

    def write(self, path):
        """Write all spans as CSV: index, parent, name, start_s, end_s, tag."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w") as fh:
            fh.write("index,parent,name,start_s,end_s,tag\n")
            for i, (nm, p, s, e, tg) in enumerate(zip(
                    self.names, self.parent, self.start, self.end, self.tags)):
                if isinstance(tg, tuple):
                    tg = ";".join(map(str, tg))
                fh.write(f"{i},{p},{nm},{s - t0:.9f},{e - t0:.9f},"
                         f"{'' if tg is None else tg}\n")


def merge(tracers) -> Tracer:
    """One tracer holding the spans of several, parents re-indexed."""
    out = Tracer()
    for tr in tracers:
        base = len(out.start)
        out.names += tr.names
        out.parent += [p + base if p >= 0 else -1 for p in tr.parent]
        out.start += tr.start
        out.end += tr.end
        out.tags += tr.tags
    return out


def self_times(parent, start, end):
    """Per-span self time: duration minus the time its direct children
    cover.  Children of one synchronous parent never overlap."""
    parent = np.asarray(parent, dtype=int)
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    self_t = dur.copy()
    child = parent >= 0
    np.subtract.at(self_t, parent[child], dur[child])
    return self_t


def _resolve(hook):
    module = importlib.import_module(f"safemanip.{hook.module}")
    owner = module
    *path, leaf = hook.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if isinstance(owner, type):
        original = owner.__dict__.get(leaf)
    else:
        original = getattr(owner, leaf, None)
    if not callable(original):
        raise HookError(f"hook target safemanip.{hook.module}.{hook.attr} "
                        "is missing")
    return owner, leaf, original


class Installed:
    """Hooks patched into every ``safemanip`` module that binds the target;
    ``restore`` puts the originals back."""

    def __init__(self, tracer, hooks):
        self._undo = []
        self.sites = {}
        try:
            for hook in hooks:
                self._install(tracer, hook)
        except BaseException:
            self.restore()
            raise

    def _install(self, tracer, hook):
        owner, leaf, original = _resolve(hook)
        wrapped = tracer.wrap(hook.name, original, hook.tag)
        sites = []
        if isinstance(owner, type):
            self._undo.append((owner, leaf, original))
            setattr(owner, leaf, wrapped)
            sites.append(f"{owner.__module__}.{owner.__name__}.{leaf}")
        else:
            # modules bind imported names at import time, so patch every
            # module of the package that holds the same function object
            for mod_name, mod in sorted(sys.modules.items()):
                if mod is None or not (mod_name == "safemanip"
                                       or mod_name.startswith("safemanip.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, attr, original))
                        setattr(mod, attr, wrapped)
                        sites.append(f"{mod_name}.{attr}")
        self.sites[hook.name] = tuple(sites)

    def restore(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def tail_percentile(values, beyond: int = 10):
    """``(P, value)``: the highest integer percentile P with at least
    ``beyond`` samples strictly above its value."""
    x = np.asarray(values, dtype=float)
    for p in range(99, 0, -1):
        v = float(np.percentile(x, p))
        if int(np.count_nonzero(x > v)) >= beyond:
            return p, v
    raise ValueError(f"{x.size} samples leave no percentile with "
                     f"{beyond} beyond it")


def tick_times(rk4_ends, solve_starts, solve_ends):
    """Durations of the control ticks between consecutive returns of the RK4
    step, each minus the planner solves that started inside it."""
    edges = np.asarray(rk4_ends, dtype=float)
    ticks = np.diff(edges)
    s0 = np.asarray(solve_starts, dtype=float)
    dur = np.asarray(solve_ends, dtype=float) - s0
    # a solve starting after edge k-1 and before edge k belongs to tick k-1
    # of the diff array; solves before the first edge have no complete tick
    slot = np.searchsorted(edges, s0) - 1
    inside = (slot >= 0) & (slot < ticks.size)
    np.subtract.at(ticks, slot[inside], dur[inside])
    return ticks
