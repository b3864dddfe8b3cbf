"""Per-layer attribution from outside the program.

Two tools, both living in the benchmark's own files:

* :class:`ModuleProfile` — deterministic profiling (``cProfile``)
  grouped by module.  Time spent in a function of a named layer is that
  layer's self time; time spent in stdlib or builtin code (``json``,
  ``heapq``, file I/O) is charged to the layer that called it, walking
  the call graph up until a layer is reached.
* :class:`Timers` — wall-clock accumulators for wrappers installed
  around a layer's entry points (the serve and dist layers, where the
  interesting time is spent waiting, not computing).
"""

from __future__ import annotations

import cProfile
import functools
import os
import pstats
import threading
import time
from collections import defaultdict
from typing import Callable, Optional

from common import BENCH_DIR

#: Module path (relative to ``src/repro``) -> layer name.  A prefix
#: ending in ``/`` matches a whole package.
_LAYER_BY_PATH = (
    ("sim/batch.py", "sim.batch"),
    ("sim/fast.py", "sim.fast"),
    ("sim/events.py", "sim.events"),
    ("sim/kernel.py", "sim.kernel"),
    ("sim/process.py", "sim.process"),
    ("sim/random_streams.py", "rng"),
    ("core/merge_sim.py", "core.merge_sim"),
    ("core/cache.py", "core.cache"),
    ("core/strategies.py", "core.strategies"),
    ("core/metrics.py", "core.metrics"),
    ("core/parameters.py", "core.parameters"),
    ("core/writes.py", "core.writes"),
    ("disks/drive.py", "disks.drive"),
    ("disks/", "disks.other"),
    ("faults/", "faults"),
    ("workloads/", "rng"),
    ("sweep/engine.py", "sweep.engine"),
    ("sweep/keys.py", "sweep.keys"),
    ("sweep/store.py", "sweep.store"),
    ("sweep/", "sweep.other"),
    ("api.py", "api"),
)

#: Layers whose self time the traced campaign run reports by name.
REPORTED_LAYERS = (
    "sim.batch", "sim.fast", "sim.events", "sim.kernel", "sim.process",
    "core.merge_sim", "core.cache", "core.strategies", "disks.drive",
    "faults", "core.metrics", "rng", "sweep.engine", "sweep.keys",
    "sweep.store",
)

_RNG_BUILTIN = "of '_random.Random' objects"

#: The benchmark's own code (progress listeners, timers) is its own layer.
_BENCH_PREFIX = str(BENCH_DIR) + "/"

#: Passes of the unowned-time share computation (call chains through
#: stdlib code are far shorter than this).
_SHARE_ITERATIONS = 64


def _layer_of(func: tuple, repro_prefix: str) -> Optional[str]:
    """The layer ``func`` belongs to, or ``None`` for unowned code."""
    filename, _line, name = func
    if filename.startswith(_BENCH_PREFIX):
        return "bench"
    if filename == "~":
        return "rng" if _RNG_BUILTIN in name else None
    if filename.startswith(repro_prefix):
        rel = filename[len(repro_prefix):]
        for prefix, layer in _LAYER_BY_PATH:
            if rel == prefix or (prefix.endswith("/") and rel.startswith(prefix)):
                return layer
        return "repro.other"
    if filename.endswith("/random.py"):
        return "rng"
    return None


class ModuleProfile:
    """cProfile accumulated over several enable/disable windows."""

    def __init__(self, repro_src: str) -> None:
        self._profile = cProfile.Profile()
        self._prefix = repro_src.rstrip("/") + "/repro/"
        # A moved module would leave its layer reading zero.
        missing = [prefix for prefix, _layer in _LAYER_BY_PATH
                   if not os.path.exists(self._prefix + prefix)]
        if missing:
            raise ProbeError(
                f"cannot attribute layers: no {', '.join(missing)} under "
                f"{self._prefix}"
            )

    def __enter__(self) -> "ModuleProfile":
        self._profile.enable()
        return self

    def __exit__(self, *exc_info) -> None:
        self._profile.disable()

    def attribute(self) -> dict:
        """Self seconds per layer plus call counts.

        Returns ``{"self_s": {layer: s}, "total_s": s, "calls": {...}}``.
        ``calls["rng"]`` counts calls *into* the RNG layer from outside
        it; ``calls["<file>:<name>"]`` are raw call counts of every
        function, for callers that need one.
        """
        stats = pstats.Stats(self._profile).stats
        layer_of = {func: _layer_of(func, self._prefix) for func in stats}
        # Unowned code (stdlib, builtins) belongs to the layers that call
        # it: each unowned function gets a share per layer, its callers'
        # shares weighted by the cumulative time of each call edge.  The
        # shares of mutually recursive callers are a fixed point, found
        # by iterating.
        unowned = [func for func in stats if layer_of[func] is None]
        shares: dict[tuple, dict[str, float]] = {func: {} for func in unowned}
        for _ in range(_SHARE_ITERATIONS):
            for func in unowned:
                callers = {
                    caller: edge for caller, edge in stats[func][4].items()
                    if caller != func
                }
                weight = sum(edge[3] for edge in callers.values())
                share: dict[str, float] = defaultdict(float)
                for caller, edge in callers.items():
                    part = edge[3] / weight if weight > 0 else 1 / len(callers)
                    layer = layer_of.get(caller)
                    if layer is not None:
                        share[layer] += part
                    else:
                        for name, value in shares.get(caller, {}).items():
                            share[name] += part * value
                shares[func] = share
        self_s: dict[str, float] = defaultdict(float)
        total = 0.0
        for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
            total += tt
            if layer_of[func] is not None:
                self_s[layer_of[func]] += tt
                continue
            for name, value in shares[func].items():
                self_s[name] += tt * value
            self_s["unowned"] += tt * (1.0 - sum(shares[func].values()))
        rng_calls = 0
        for func, (_cc, _nc, _tt, _ct, callers) in stats.items():
            if layer_of[func] != "rng":
                continue
            rng_calls += sum(
                edge[1] for caller, edge in callers.items()
                if layer_of.get(caller) != "rng"
            )
        calls = {"rng": rng_calls}
        for (filename, _line, name), (_cc, nc, *_rest) in stats.items():
            key = f"{filename.rsplit('/', 1)[-1]}:{name}"
            calls[key] = calls.get(key, 0) + nc
        return {"self_s": dict(self_s), "total_s": total, "calls": calls}

    def cumulative_s(self, filename_suffix: str, name: str) -> float:
        """Cumulative seconds in the function ``name`` of a file."""
        stats = pstats.Stats(self._profile).stats
        return sum(
            ct for (filename, _line, fname), (_cc, _nc, _tt, ct, _c)
            in stats.items()
            if fname == name and filename.endswith(filename_suffix)
        )


class Timers:
    """Thread-safe wall-clock and count accumulators for wrappers."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def add(self, name: str, seconds: float) -> None:
        with self._lock:
            self.seconds[name] += seconds
            self.counts[name] += 1

    def bump(self, name: str, count: int = 1) -> None:
        with self._lock:
            self.counts[name] += count

    def wrap(self, name: str, func: Callable) -> Callable:
        """A synchronous wrapper timing every call of ``func``."""

        @functools.wraps(func)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                self.add(name, time.perf_counter() - start)

        return timed

    def wrap_async(self, name: str, func: Callable) -> Callable:
        """A coroutine wrapper timing every awaited call of ``func``."""

        @functools.wraps(func)
        async def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return await func(*args, **kwargs)
            finally:
                self.add(name, time.perf_counter() - start)

        return timed

    def snapshot(self) -> dict:
        with self._lock:
            return {"seconds": dict(self.seconds), "counts": dict(self.counts)}


class ProbeError(RuntimeError):
    """A layer probe could not be installed or never fired.

    A probe that silently measured nothing would report its layer as
    free, so a traced run that hits one fails instead.
    """


def patch(owner, attribute: str, make: Callable[[Callable], Callable],
          undo: list) -> None:
    """Replace ``owner.attribute`` by ``make(original)``; record the undo.

    Raises :class:`ProbeError` when the attribute does not exist (an
    entry point renamed or moved), so the traced run fails rather than
    reporting the layer as taking no time.
    """
    original = owner.__dict__.get(attribute) if isinstance(owner, type) \
        else getattr(owner, attribute, None)
    if original is None:
        raise ProbeError(
            f"cannot install layer probe: {getattr(owner, '__name__', owner)}"
            f".{attribute} does not exist"
        )
    setattr(owner, attribute, make(original))
    undo.append((owner, attribute, original))


def require_fired(counts: dict, names, where: str) -> None:
    """Raise :class:`ProbeError` unless every probe in ``names`` counted."""
    silent = sorted(name for name in names if not counts.get(name))
    if silent:
        raise ProbeError(
            f"layer probes in {where} never fired: {', '.join(silent)} (the "
            "program no longer calls an entry point the benchmark measures)"
        )


def unpatch(undo: list) -> None:
    while undo:
        owner, attribute, original = undo.pop()
        setattr(owner, attribute, original)
