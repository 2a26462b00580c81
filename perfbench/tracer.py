"""In-memory span tracer that wraps the package's public functions from outside.

Every binding of a traced function is replaced: the defining module's
attribute, each ``from .x import f`` copy in the other package modules, and
values of module-level dicts (``cli._COMMANDS`` maps command names to
functions).  A function that no longer exists is recorded as absent.

Spans are (name, start, end, parent, thread).  A span's parent is the
innermost open span on its own thread; a span opened on a pool thread with
nothing open there takes the innermost open span of the thread that installed
the tracer, so the points of ``sweep`` nest under ``cmd_sweep``.  Self time is
a span's duration minus the union of its children's intervals, so children
that overlap in time on several threads are subtracted once.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict

# (module, function) pairs timed as spans: calls, total_s and self_s.
SPANS = [
    ("cli", "load_config"),
    ("cli", "cmd_sweep"),
    ("cli", "cmd_kernel"),
    ("cli", "emit"),
    ("core", "validate"),
    ("kernels", "g_thermal_accelerated"),
    ("kernels", "thermal_image_sum"),
    ("kernels", "wightman_vacuum_accelerated_sum"),
    ("kernels", "g_thermal_inertial_sum"),
    ("kernels", "image_sum_inverse_power_sum"),
    ("response", "response_accelerated"),
    ("response", "planck_response_oracle"),
    ("master", "steady_state"),
    ("master", "evolve"),
    ("master", "closed_form"),
    ("rates", "atom_total_rate"),
    ("rates", "derivative_coupling_rates"),
    ("rates", "field_rates"),
    ("numerics", "half_line_cos_sin_integral"),
    ("numerics", "damped_line_integral"),
    ("fermion", "fermion_rates"),
]

# (module, function) pairs that are only counted; they sit inside quadrature
# integrands, where a span per call would dominate the measured time.
COUNTS = [
    ("numerics", "neville"),
    ("kernels", "image_sum_inverse_power"),
]

PACKAGE = "unruh_kinetics"


def _size(x) -> int:
    try:
        return int(getattr(x, "size", 1))
    except (TypeError, ValueError):
        return 1


class Tracer:
    """Install with ``install()``, run the work, then ``uninstall()`` and
    read ``layer_metrics()``.  ``stdout`` is the text sink the CLI writes to
    while traced; it is used to count the bytes ``emit`` writes."""

    def __init__(self, stdout=None):
        self.stdout = stdout
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._lock = threading.Lock()
        self._ticks: dict[str, itertools.count] = {}
        self._stacks: dict[int, list] = {}
        self._root = threading.get_ident()
        self._patched: list[tuple[object, object, object]] = []

    # -- recording --------------------------------------------------------

    def _add(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def _open(self, name: str) -> list:
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        parent = stack[-1] if stack else None
        if parent is None and tid != self._root:
            root = self._stacks.get(self._root)
            parent = root[-1] if root else None
        span = [name, time.perf_counter(), None, parent, tid]
        self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stacks[span[4]].pop()

    def _span_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    def _count_wrapper(self, name: str, fn):
        # next() on itertools.count is one C call, atomic under the GIL, and
        # far cheaper than a lock around a dict update in hot integrands.
        tick = self._ticks.setdefault(name + ".calls", itertools.count()).__next__

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return counted

    # -- per-function extras ------------------------------------------------

    def _integral_wrapper(self, name: str, fn):
        """Span, plus a count of every point the integrand is evaluated at."""
        traced = self._span_wrapper(name, fn)
        tick = self._ticks.setdefault("numerics.integrand_evals", itertools.count()).__next__

        def counting(f):
            def integrand(u, *rest):
                n = _size(u)
                if n == 1:
                    tick()
                else:
                    self._add("numerics.integrand_evals", n)
                return f(u, *rest)

            return integrand if callable(f) else f

        @functools.wraps(fn)
        def integral(*args, **kwargs):
            if args:
                args = (counting(args[0]),) + tuple(args[1:])
            elif "f" in kwargs:
                kwargs = dict(kwargs, f=counting(kwargs["f"]))
            return traced(*args, **kwargs)

        return integral

    def _evolve_wrapper(self, name: str, fn):
        """Span, plus the RK4 step count read from the result's length."""
        traced = self._span_wrapper(name, fn)

        @functools.wraps(fn)
        def evolve(*args, **kwargs):
            result = traced(*args, **kwargs)
            self._add("master.evolve.steps", max(len(result.taus) - 1, 0))
            return result

        return evolve

    def _emit_wrapper(self, name: str, fn):
        """Span, plus the bytes emit wrote to the captured stdout."""
        traced = self._span_wrapper(name, fn)

        @functools.wraps(fn)
        def emit(*args, **kwargs):
            start = self.stdout.tell() if self.stdout is not None else 0
            result = traced(*args, **kwargs)
            if self.stdout is not None:
                written = self.stdout.getvalue()[start:self.stdout.tell()]
                self._add("cli.emit.bytes", len(written.encode("utf-8")))
            return result

        return emit

    # -- install / uninstall ----------------------------------------------

    def _rebind(self, original, replacement) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for module in modules:
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    self._patched.append((namespace, key, original))
                    namespace[key] = replacement
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            self._patched.append((value, k, original))
                            value[k] = replacement

    def install(self) -> "Tracer":
        special = {
            "cli.emit": self._emit_wrapper,
            "master.evolve": self._evolve_wrapper,
            "numerics.half_line_cos_sin_integral": self._integral_wrapper,
        }
        for module_name, func, wrap in (
            [(m, f, self._span_wrapper) for m, f in SPANS]
            + [(m, f, self._count_wrapper) for m, f in COUNTS]
        ):
            name = f"{module_name}.{func}"
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                self.absent.append(name)
                continue
            original = getattr(module, func, None)
            if not callable(original):
                self.absent.append(name)
                continue
            self._rebind(original, special.get(name, wrap)(name, original))
        return self

    def uninstall(self) -> None:
        for container, key, original in reversed(self._patched):
            container[key] = original
        self._patched.clear()

    # -- reduction ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """calls, total_s and self_s per traced function, plus the counts.

        Call once, after ``uninstall()``: reading a tick counter advances it.
        """
        children: dict[int, list] = defaultdict(list)
        for span in self.spans:
            if span[3] is not None:
                children[id(span[3])].append(span)
        out: dict[str, float] = {}
        for module_name, func in SPANS:
            name = f"{module_name}.{func}"
            out[name + ".calls"] = 0
            out[name + ".total_s"] = 0.0
            out[name + ".self_s"] = 0.0
        for span in self.spans:
            name, start, end = span[0], span[1], span[2]
            if end is None:
                continue
            out[name + ".calls"] += 1
            out[name + ".total_s"] += end - start
            out[name + ".self_s"] += (end - start) - _covered(
                start, end, children.get(id(span), ())
            )
        for module_name, func in COUNTS:
            out[f"{module_name}.{func}.calls"] = 0
        for key in ("numerics.integrand_evals", "master.evolve.steps",
                    "cli.emit.bytes"):
            out[key] = 0
        for key, value in self.counts.items():
            out[key] = out.get(key, 0) + value
        for key, counter in self._ticks.items():
            out[key] = out.get(key, 0) + next(counter)
        return out


def _covered(start: float, end: float, spans) -> float:
    """Length of the union of the spans' intervals, clipped to [start, end]."""
    intervals = sorted(
        (max(s[1], start), min(s[2], end)) for s in spans if s[2] is not None
    )
    covered = 0.0
    cur_lo = cur_hi = None
    for lo, hi in intervals:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return covered
