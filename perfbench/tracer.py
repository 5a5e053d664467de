"""Outside-in layer tracer for gigwalk.

The tracer wraps public library functions by rebinding every attribute of
every loaded ``gigwalk`` module that refers to them.  Both the benchmark's
own calls and the library's internal calls (``gig_sample`` bound in ``walk``
and ``stats``, ``log_bessel_k`` bound in ``gig`` and ``kernels``, ...) then
pass through a span recorder, and nothing in the library changes.

Spans are kept in memory as ``Span`` records.  Each thread keeps its own
span stack, because ``stats._sharded`` runs shards on a thread pool; a span
opened on a pool thread with an empty stack takes as parent the innermost
open span of the thread that opened the session.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _size(*arrays):
    return int(np.prod(np.broadcast_shapes(*(np.shape(x) for x in arrays))))


def _density_elements(args, kwargs):
    return _size(_arg(args, kwargs, 2, "x"), _arg(args, kwargs, 3, "y"))


def _lambda_elements(args, kwargs):
    return _size(_arg(args, kwargs, 2, "z"), _arg(args, kwargs, 3, "x"))


def _grid_size(args, kwargs, index):
    from gigwalk import kernels

    grid = _arg(args, kwargs, index, "grid") or kernels.default_grid()
    return grid.size


def _intertwining_flops(args, kwargs):
    # per source point: two (n,) @ (n, n) vector-matrix products in chunks
    n = _grid_size(args, kwargs, 3)
    return 4 * n * n * len(list(_arg(args, kwargs, 2, "zs")))


def _stationarity_flops(args, kwargs):
    n = _grid_size(args, kwargs, 2)
    return 2 * n * n


def _gig_draws(args, kwargs):
    params = _arg(args, kwargs, 0, "params")
    size = _arg(args, kwargs, 2, "size")
    return (1 if size is None else int(size)), (params.lam, params.ab)


def _continuous_path_steps(args, kwargs):
    config = _arg(args, kwargs, 0, "config")
    size = _arg(args, kwargs, 2, "size")
    return config.steps * (1 if size is None else int(size))


# traced function -> work count taken from its arguments (None: calls only)
TARGETS = {
    "specfun.log_bessel_k": lambda a, k: _size(_arg(a, k, 0, "order"),
                                              _arg(a, k, 1, "argument")),
    "gig.gig_sample": _gig_draws,
    "gig.inverse_gamma_cdf": lambda a, k: _size(_arg(a, k, 1, "x")),
    "walk.n_infinity_batch": lambda a, k: int(_arg(a, k, 2, "size")),
    "walk.simulate_path": lambda a, k: _arg(a, k, 0, "config").steps,
    "walk.reconstruct_x_finite": None,
    "kernels.p_density": _density_elements,
    "kernels.q_density": _density_elements,
    "kernels.ktilde_density": _density_elements,
    "kernels.lambda_density": _lambda_elements,
    "kernels.intertwining_residuals": _intertwining_flops,
    "kernels.check_stationarity": _stationarity_flops,
    "kernels.characterization_discrepancy": None,
    "stats.dufresne_test": None,
    "stats.n_part_statistics": None,
    "stats.scaling_limit_test": None,
    "stats.simulate_my_continuous": _continuous_path_steps,
    "stats.ks_one_sample": None,
    "stats.ks_two_sample": None,
    "cli.main": None,
}

# spans that also record process CPU time, for cpu_per_wall
CPU_TIMED = {"stats.dufresne_test", "stats.n_part_statistics",
             "stats.scaling_limit_test"}


@dataclass
class Span:
    sid: int
    parent: int | None
    job: int
    thread: int
    name: str
    start: float
    end: float = 0.0
    count: int | None = None
    key: tuple | None = None
    cpu: float = 0.0


class Tracer:
    """Records spans for the functions in TARGETS while a session is open."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._rebound: list[tuple] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, count_fn):
        tracer = self
        cpu_timed = name in CPU_TIMED

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else (
                tracer._main_stack[-1] if tracer._main_stack else None)
            span = Span(next(tracer._ids),
                        None if parent is None else parent.sid, tracer.job,
                        threading.get_ident(), name, 0.0)
            if count_fn is not None:
                count = count_fn(args, kwargs)
                if isinstance(count, tuple):
                    count, span.key = count
                span.count = count
            stack.append(span)
            cpu0 = time.process_time() if cpu_timed else 0.0
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if cpu_timed:
                    span.cpu = time.process_time() - cpu0
                stack.pop()
                tracer.spans.append(span)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self, job: int) -> None:
        """Rebind every gigwalk module attribute that refers to a target."""
        if self._rebound:
            raise RuntimeError("tracer already installed")
        self.job = job
        self._main_stack = self._stack()
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "gigwalk" or n.startswith("gigwalk."))]
        for qualified, count_fn in TARGETS.items():
            mod_name, attr = qualified.split(".")
            original = getattr(sys.modules[f"gigwalk.{mod_name}"], attr)
            wrapper = self._wrap(qualified, original, count_fn)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._rebound.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in self._rebound:
            setattr(module, key, original)
        self._rebound = []

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("job,sid,parent,thread,name,start,end,count\n")
            for s in self.spans:
                parent = "" if s.parent is None else s.parent
                count = "" if s.count is None else s.count
                fh.write(f"{s.job},{s.sid},{parent},{s.thread},{s.name},"
                         f"{s.start!r},{s.end!r},{count}\n")


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Thread time a span spends outside its child spans.

    On the span's own thread this is its duration minus the union of its
    children there.  A parent whose children run on pool threads waits
    while they run, so on its own thread the window each pool thread was
    busy with its children is subtracted as well; on each pool thread the
    gaps between those children (the batched walk recursion between
    ``gig_sample`` calls, shard hand-over) are added.  With no pool threads
    this is the span minus the part of it its children cover.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        own, pooled = [], defaultdict(list)
        for c in children.get(s.sid, ()):
            (own if c.thread == s.thread else pooled[c.thread]).append(
                (c.start, c.end))
        windows = {t: (min(a for a, _ in iv), max(b for _, b in iv))
                   for t, iv in pooled.items()}
        busy = (s.end - s.start) - union_length(
            own + list(windows.values()), s.start, s.end)
        for t, (lo, hi) in windows.items():
            busy += (hi - lo) - union_length(pooled[t], lo, hi)
        out[s.sid] = busy
    return out
