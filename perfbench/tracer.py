"""Per-layer tracing for the benchmark, installed from outside the package.

Each traced function is replaced, in every ``colorpartitions`` module that
holds a reference to it (``verify.color_map`` and ``render.color_map`` alike),
by a wrapper that times the call and charges it to the caller's span.  Call
stacks are thread-local, because the verification harness may run its grid
cells on a thread pool.  Counters live in per-thread state and are merged when
tracing stops, so the hot path takes no lock.

Spans of at least ``SPAN_MIN_S`` seconds are kept in memory (name, thread,
start, end, parent, request) and handed back at the end; shorter ones only
feed the per-function totals, which keeps a run with millions of calls small.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter
from time import perf_counter

PACKAGE = "colorpartitions"

# (module, function) pairs, in report order.
TARGETS = (
    ("cli", "main"),
    ("verify", "check_product_counts"),
    ("verify", "check_bijection"),
    ("verify", "check_gordon"),
    ("verify", "check_finitized"),
    ("verify", "finitized_top_ok"),
    ("families", "ranked_partitions"),
    ("families", "rank_window_members"),
    ("families", "colored_members_up_to"),
    ("families", "gordon_members"),
    ("families", "boxed_counts"),
    ("families", "rank_window_counts"),
    ("kernels", "count_rank_bounded_partitions"),
    ("coloring", "color_map"),
    ("coloring", "inverse_map"),
    ("series", "restricted_product"),
    ("series", "bosonic_sum"),
    ("series", "fermionic_multisum"),
    ("series", "finitized_lhs"),
    ("series", "finitized_rhs"),
    ("series", "gaussian_binomial"),
    ("render", "bijection_rows"),
    ("render", "render_table"),
    ("render", "render_coefficients"),
    ("render", "render_report"),
)

TARGET_NAMES = tuple(f"{module}.{function}" for module, function in TARGETS)

CELL_SPANS = tuple(name for name in TARGET_NAMES if name.startswith("verify.check_"))

SPAN_MIN_S = 1e-3


class _ThreadState:
    __slots__ = ("index", "stack", "stats", "active", "spans", "counters", "seen")

    def __init__(self, index: int):
        self.index = index
        self.stack: list[list] = []  # [name, child seconds] per open span
        self.stats: dict[str, list] = {}  # name -> [calls, self s, total s]
        self.active: Counter = Counter()  # open spans per name (recursion)
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.seen: Counter = Counter()  # argument keys per name


def _observe_rank_window_members(state, args, kwargs, result):
    state.counters["rank_window_members.kept"] += len(result)
    state.seen[("rank_window_members", _arg(args, kwargs, 1, "n"))] += 1


def _observe_colored_members_up_to(state, args, kwargs, result):
    key = (
        _arg(args, kwargs, 0, "params"),
        _arg(args, kwargs, 1, "max_weight"),
        _arg(args, kwargs, 2, "max_size"),
    )
    state.seen[("colored_members_up_to", key)] += 1


def _observe_finitized_top_ok(state, args, kwargs, result):
    if result:
        state.counters["finitized_top_ok.passed"] += 1


def _observe_kernel(state, args, kwargs, result):
    state.counters["kernel.weights"] += len(result)


def _arg(args, kwargs, position, name):
    if len(args) > position:
        return args[position]
    return kwargs.get(name)


OBSERVERS = {
    "families.rank_window_members": _observe_rank_window_members,
    "families.colored_members_up_to": _observe_colored_members_up_to,
    "verify.finitized_top_ok": _observe_finitized_top_ok,
    "kernels.count_rank_bounded_partitions": _observe_kernel,
}


class Tracer:
    """Wraps the target functions while active; use as a context manager."""

    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._cached = None  # the ranked_partitions cache, while it exists
        self._cache_start = self._cache_end = None
        self.request = 0  # id of the operation being run, stamped on spans
        self.missing: list[str] = []  # targets the package no longer defines

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        ranked = getattr(sys.modules.get(f"{PACKAGE}.families"), "ranked_partitions", None)
        if hasattr(ranked, "cache_info"):
            self._cached = ranked
            self._cache_start = ranked.cache_info()
        modules = [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for (module_name, function), name in zip(TARGETS, TARGET_NAMES):
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(home, function, None) if home is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                if getattr(module, function, None) is original:
                    self._patches.append((module, function, original))
                    setattr(module, function, wrapper)

    def uninstall(self) -> None:
        if self._cached is not None:
            self._cache_end = self._cached.cache_info()
        for module, function, original in reversed(self._patches):
            setattr(module, function, original)
        self._patches.clear()

    def _new_state(self) -> _ThreadState:
        with self._states_lock:
            state = _ThreadState(len(self._states))
            self._states.append(state)
        self._local.state = state
        return state

    def _wrap(self, name, func):
        observe = OBSERVERS.get(name)
        tracer = self
        local = self._local

        def wrapper(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = tracer._new_state()
            stack = state.stack
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            state.active[name] += 1
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                elapsed = end - start
                stack.pop()
                state.active[name] -= 1
                if stack:
                    stack[-1][1] += elapsed
                record = state.stats.get(name)
                if record is None:
                    record = state.stats[name] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += elapsed - frame[1]
                if not state.active[name]:
                    record[2] += elapsed
                if elapsed >= SPAN_MIN_S:
                    state.spans.append(
                        (name, state.index, start, end, parent, tracer.request)
                    )
            if observe is not None:
                observe(state, args, kwargs, result)
            return result

        wrapper.__name__ = getattr(func, "__name__", name)
        wrapper.__doc__ = getattr(func, "__doc__", None)
        return wrapper

    def functions(self) -> dict[str, list]:
        """Merged [calls, self s, total s] per target name (zeros if never called)."""
        merged = {name: [0, 0.0, 0.0] for name in TARGET_NAMES}
        for state in self._states:
            for name, (calls, self_s, total_s) in state.stats.items():
                record = merged[name]
                record[0] += calls
                record[1] += self_s
                record[2] += total_s
        return merged

    def counters(self) -> Counter:
        merged = Counter()
        for state in self._states:
            merged.update(state.counters)
        return merged

    def seen(self) -> Counter:
        merged = Counter()
        for state in self._states:
            merged.update(state.seen)
        return merged

    def cache_stats(self) -> tuple[int, int]:
        """(hits, misses) of the ranked_partitions cache while tracing, if it has one."""
        if self._cache_start is None or self._cache_end is None:
            return 0, 0
        return (
            self._cache_end.hits - self._cache_start.hits,
            self._cache_end.misses - self._cache_start.misses,
        )

    def spans(self) -> list[tuple]:
        return sorted(
            (span for state in self._states for span in state.spans),
            key=lambda span: span[2],
        )
