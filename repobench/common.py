"""Shared plumbing of the benchmark: paths, host readings, statistics.

Everything here reads only the benchmark's own processes and the
host-wide counters in ``/proc`` (never writes there), so the same
helpers serve the timed runs, the traced runs and the probes.
"""

from __future__ import annotations

import gc
import heapq
import json
import os
import random
import select
import statistics
import sys
import time
from pathlib import Path
from typing import Iterable, Optional

#: The benchmark directory (this file's parent).
BENCH_DIR = Path(__file__).resolve().parent

#: Scratch space for stores and server output, inside the checkout.
WORK_DIRNAME = ".bench_work"

def checkout_root() -> Path:
    """The checkout the benchmark runs against: the working directory."""
    return Path.cwd()


def program_src(root: Path) -> Optional[Path]:
    """``<root>/src`` when it holds the ``repro`` package, else ``None``."""
    src = root / "src"
    if (src / "repro" / "__init__.py").is_file():
        return src
    return None


def use_program(root: Path) -> Path:
    """Put the checkout's ``src`` first on ``sys.path`` (and children's).

    Exits with status 2, printing no result, when the checkout has no
    program to measure.
    """
    src = program_src(root)
    if src is None:
        print(f"error: no src/repro package under {root}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    previous = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = (
        str(src) if not previous else f"{src}{os.pathsep}{previous}"
    )
    return src


def pin_to_one_cpu() -> int:
    """Confine this process, and every process it starts, to one CPU.

    The workloads hand work between threads and processes that never
    run at once (a closed-loop client and its server, a worker and its
    coordinator).  On one CPU no hand-off needs a cross-CPU wake-up,
    which on a virtual machine is the costliest and least steady part
    of a hand-off.  Returns the CPU chosen.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


# -- host and process readings ---------------------------------------------


def host_cpu_ticks() -> tuple[int, int]:
    """``(total, steal)`` jiffies of the aggregate ``cpu`` line."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()[1:]
    values = [int(v) for v in fields]
    # user nice system idle iowait irq softirq steal guest guest_nice;
    # guest time is already counted in user/nice.
    total = sum(values[:8])
    steal = values[7] if len(values) > 7 else 0
    return total, steal


class HostWindow:
    """Steal share of the whole host over one measured window."""

    def __init__(self) -> None:
        self._start = host_cpu_ticks()
        self._end: Optional[tuple[int, int]] = None

    def stop(self) -> None:
        self._end = host_cpu_ticks()

    @property
    def steal_pct(self) -> float:
        end = self._end or host_cpu_ticks()
        total = end[0] - self._start[0]
        steal = end[1] - self._start[1]
        return 100.0 * steal / total if total > 0 else 0.0


def process_run_ns(pid: int) -> int:
    """Nanoseconds ``pid``'s threads have run on a CPU (scheduler clock).

    Sums ``schedstat`` over every live thread: unlike the tick-grained
    ``stat`` counters this resolves a single millisecond request.
    Threads that ended between readings drop out, so callers difference
    readings taken while the thread set is stable.
    """
    total = 0
    task_dir = f"/proc/{pid}/task"
    for tid in os.listdir(task_dir):
        try:
            with open(f"{task_dir}/{tid}/schedstat") as handle:
                total += int(handle.read().split()[0])
        except (FileNotFoundError, ProcessLookupError):
            continue
    return total


def process_tree(pid: int) -> list[int]:
    """``pid`` and every live process descended from it."""
    tree = [pid]
    for parent in tree:
        try:
            for tid in os.listdir(f"/proc/{parent}/task"):
                with open(f"/proc/{parent}/task/{tid}/children") as handle:
                    tree += [int(child) for child in handle.read().split()]
        except (FileNotFoundError, ProcessLookupError):
            continue
    return tree


def tree_run_ns(pids: Iterable[int]) -> int:
    """:func:`process_run_ns` summed over ``pids``; ended ones count 0."""
    total = 0
    for pid in pids:
        try:
            total += process_run_ns(pid)
        except (FileNotFoundError, ProcessLookupError):
            continue
    return total


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of ``pid`` in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def read_line(stream, timeout_s: float) -> str:
    """The next line a child prints, or ``TimeoutError`` after ``timeout_s``."""
    ready, _, _ = select.select([stream], [], [], timeout_s)
    if not ready:
        raise TimeoutError(f"no output within {timeout_s:g}s")
    return stream.readline()


# -- host speed ---------------------------------------------------------------

#: CPU milliseconds :func:`calibration_ms` takes on the 2-vCPU VM the
#: bounds were set on, in its faster speed mode.  Scaled figures read as
#: if the host had run at that speed throughout.
REFERENCE_LOOP_MS = 4.4


def calibration_ms() -> float:
    """CPU milliseconds this thread spends on a fixed loop.

    The loop uses the standard library only — a heap, a dict, JSON
    round-trips — so no change to the program can change its cost; only
    the host's speed can.
    """
    start = time.thread_time()
    rng = random.Random(12345)
    heap: list[tuple[float, int]] = []
    table: dict[int, int] = {}
    for i in range(2500):
        heapq.heappush(heap, (rng.random(), i))
        table[i % 997] = table.get(i % 997, 0) + i
    order = [heapq.heappop(heap)[1] for _ in range(len(heap))]
    blob = json.dumps([{"a": i, "b": str(i), "c": [i, i + 1]}
                       for i in order[:800]])
    json.loads(blob)
    return (time.thread_time() - start) * 1e3


class HostSpeed:
    """The host's speed through a run, read by :func:`calibration_ms`.

    The VM's CPU speed flips between two modes within fractions of a
    second, alike for the benchmark's processes and the calibration loop
    when all run on the one CPU the benchmark is pinned to.  A workload
    reads the loop between rounds, and within long rounds between cells
    or shards, and scales what it measured between two readings by
    :meth:`scale`: multiply times by it, divide rates by it.  The
    readings' own time is kept out of :meth:`clock`.
    """

    def __init__(self) -> None:
        self.readings: list[float] = []
        self._paused_wall = self._paused_cpu = 0.0
        self.read()

    def read(self) -> None:
        """Time the loop once, with the garbage collector held off."""
        wall, cpu = time.perf_counter(), time.thread_time()
        collecting = gc.isenabled()
        gc.disable()
        try:
            self.readings.append(calibration_ms())
        finally:
            if collecting:
                gc.enable()
        self._paused_wall += time.perf_counter() - wall
        self._paused_cpu += time.thread_time() - cpu

    def clock(self) -> tuple[float, float]:
        """``(wall s, process CPU s)``, leaving out the readings' time."""
        return (time.perf_counter() - self._paused_wall,
                time.process_time() - self._paused_cpu)

    @property
    def last(self) -> int:
        """Index of the latest reading."""
        return len(self.readings) - 1

    def scale(self, first: int, last: Optional[int] = None) -> float:
        """:data:`REFERENCE_LOOP_MS` over the mean of readings ``first``
        to ``last`` (default ``first + 1``), both included."""
        end = first + 1 if last is None else last
        window = self.readings[first:end + 1]
        return REFERENCE_LOOP_MS * len(window) / sum(window)

    @property
    def loop_ms(self) -> float:
        """Median reading of the run, for the host table."""
        return median(self.readings)


# -- statistics ---------------------------------------------------------------


def percentile(values: Iterable[float], pct: int) -> float:
    """The ``pct``-th percentile (inclusive interpolation)."""
    data = sorted(values)
    if not data:
        return 0.0
    if len(data) == 1:
        return data[0]
    return statistics.quantiles(data, n=100, method="inclusive")[pct - 1]


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


# -- output ---------------------------------------------------------------------


def load_manifest() -> dict:
    """``BENCHMARK.json`` beside the benchmark directory."""
    with open(BENCH_DIR.parent / "BENCHMARK.json") as handle:
        return json.load(handle)


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    return {m["name"]: m["unit"] for m in load_manifest()[kind]}
