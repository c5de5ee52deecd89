"""Run-time tracing of the package's layers from outside the package.

``Tracer.install`` wraps the traced functions of ``rotsurf4`` in place: the
module attribute, every other name in the package bound to the same
object (``rotsurf4.cli.fd_jet2``, ``rotsurf4.fd_jet2``, ...), the
``Profile.value/deriv1/deriv2`` methods and the closure returned by
``RotationalSurface.as_map``.  ``uninstall`` puts every original object
back.  No source file changes.

Spans are kept in memory as ``(id, name, start, end, cpu, parent,
thread, trace, ok)`` tuples, one list per thread, and written out at the
end.  ``start``/``end`` are wall-clock (``perf_counter``) and ``cpu`` is
the thread CPU time (``thread_time``) the span took.  The trace id is the
index of the CLI command that caused the span.  Spans on the CLI's pool
threads have the command's root span as parent.

The CLI runs 4 pool threads on 2 cores under the interpreter lock, so a
span's wall time includes the time other threads hold the lock.  Per-call
self times are therefore taken from thread CPU time (``cpu_self_times``);
only the root span's self time (``cli.self_s``) is wall time, with the
intervals of its overlapping pool-thread children merged (``self_times``).
"""

from __future__ import annotations

import csv
import functools
import itertools
import sys
import threading
from time import perf_counter, thread_time

# (layer module, attribute) of every traced module-level function; the span
# name is "<module>.<attribute>"
FUNCTIONS = (
    ("expr", "parse"),
    ("expr", "differentiate"),
    ("geometry", "fd_jet2"),
    ("geometry", "gram_schmidt_normals"),
    ("geometry", "analytic_jet2"),
    ("forms", "first_form"),
    ("forms", "second_tensor"),
    ("forms", "invariants"),
    ("forms", "is_circle"),
    ("octet", "octet_generic"),
    ("rotational", "closed_forms_at"),
    ("rotational", "closed_invariants_at"),
    ("rotational", "closed_octet_at"),
    ("msc", "msc_residual"),
    ("msc", "power_law_invariants"),
    ("cli", "build_parser"),
)
# span names of the Profile methods
METHODS = {"value": "expr.value", "deriv1": "expr.deriv1", "deriv2": "expr.deriv2"}
SURFACE_MAP = "geometry.surface_map"
ROOT = "cli.main"


def _package_namespaces():
    """Every module of the package, the package itself included."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "rotsurf4" or name.startswith("rotsurf4."))]


class Tracer:
    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._buffers: list[list[tuple]] = []
        self._patches: list[tuple[object, str, object]] = []
        self.root = 0
        self.trace_id = -1
        self.d2_trees: list = []  # the tree of every deriv2 call

    # -- recording ---------------------------------------------------------

    def _state(self):
        local = self._local
        try:
            return local.stack, local.buffer
        except AttributeError:
            local.stack, local.buffer = [], []
            self._buffers.append(local.buffer)  # list.append is atomic
            return local.stack, local.buffer

    def _wrap(self, name: str, fn):
        ids, tracer = self._ids, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, buffer = tracer._state()
            if stack and stack[-1][1] == name:
                # a recursive call (differentiate) belongs to the outer span
                return fn(*args, **kwargs)
            sid = next(ids)
            parent = stack[-1][0] if stack else tracer.root
            stack.append((sid, name))
            ok = False
            c0 = thread_time()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = perf_counter()
                c1 = thread_time()
                stack.pop()
                buffer.append((sid, name, t0, t1, c1 - c0, parent, threading.get_ident(),
                               tracer.trace_id, ok))

        return traced

    def command(self, index: int, call):
        """Run ``call()`` as the root span of command ``index``."""
        stack, buffer = self._state()
        sid = next(self._ids)
        self.trace_id, self.root = index, sid
        stack.append((sid, ROOT))
        ok = False
        c0 = thread_time()
        t0 = perf_counter()
        try:
            result = call()
            ok = True
            return result
        finally:
            t1 = perf_counter()
            c1 = thread_time()
            stack.pop()
            buffer.append((sid, ROOT, t0, t1, c1 - c0, 0, threading.get_ident(), index, ok))
            self.root = 0

    def _recording_d2(self, traced):
        trees = self.d2_trees

        @functools.wraps(traced)
        def deriv2(profile, u):
            trees.append(profile.d2)
            return traced(profile, u)

        return deriv2

    # -- patching ------------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        for module in _package_namespaces():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        import rotsurf4.cli  # noqa: F401  (loads every layer module)
        from rotsurf4.expr import Profile
        from rotsurf4.rotational import RotationalSurface

        for module_name, attr in FUNCTIONS:
            original = getattr(sys.modules[f"rotsurf4.{module_name}"], attr)
            self._rebind(original, self._wrap(f"{module_name}.{attr}", original))

        for attr, name in METHODS.items():
            original = Profile.__dict__[attr]
            traced = self._wrap(name, original)
            if attr == "deriv2":
                traced = self._recording_d2(traced)
            self._patches.append((Profile, attr, original))
            setattr(Profile, attr, traced)

        tracer = self
        as_map = RotationalSurface.__dict__["as_map"]

        @functools.wraps(as_map)
        def traced_as_map(surface):
            return tracer._wrap(SURFACE_MAP, as_map(surface))

        self._patches.append((RotationalSurface, "as_map", as_map))
        RotationalSurface.as_map = traced_as_map

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def spans(self) -> list[tuple]:
        return sorted(itertools.chain.from_iterable(self._buffers))


def write_spans(path, spans: list[tuple]) -> None:
    with open(path, "w", newline="") as stream:
        writer = csv.writer(stream)
        writer.writerow(["id", "name", "start", "end", "cpu", "parent", "thread", "trace", "ok"])
        writer.writerows(spans)


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> wall duration minus the part of its interval that its
    child spans cover.  Children on the CLI's pool threads overlap each
    other, so their intervals are merged before they are subtracted."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, _, t0, t1, _, parent, *_ in spans:
        children.setdefault(parent, []).append((t0, t1))
    out = {}
    for sid, _, t0, t1, *_ in spans:
        covered, reach = 0.0, t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, reach), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out[sid] = (t1 - t0) - covered
    return out


def cpu_self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> thread CPU time minus that of its child spans on the same
    thread.  Children on other threads (the CLI's pool) used another
    thread's CPU, so they are not subtracted."""
    thread_of = {sid: thread for sid, _, _, _, _, _, thread, *_ in spans}
    out = {sid: cpu for sid, _, _, _, cpu, *_ in spans}
    for sid, _, _, _, cpu, parent, thread, *_ in spans:
        if thread_of.get(parent) == thread:
            out[parent] -= cpu
    return out
