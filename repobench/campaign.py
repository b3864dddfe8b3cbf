"""The ``campaign`` workload: an uncached paper-shaped sweep per round.

Each round runs two specs — the paper grid on the ``batch`` kernel and
a small grid outside the batch envelope (a transient fault plan, write
disks) that falls back to the fast kernel — through the inline
:class:`~repro.sweep.SweepEngine` into a fresh result store.  Nothing is
cached, so the simulator layers do nearly all the work.

Operations are trials.  The oracles (checked outside the timed phase):
every trial conserves blocks, respects the paper's transfer lower bound,
splits its stall time exactly into healthy and fault stalls and never
has more disks busy than it has; every round reproduces round one
exactly; and a seeded sample of cells re-run on the ``reference``
kernel is bit-identical.
"""

from __future__ import annotations

import contextlib
import os
import random
import shutil
import time
from typing import Optional

from common import HostSpeed, HostWindow, median, peak_rss_mb, percentile

#: The paper grid: both strategies, D from 1 to 10, several N,
#: synchronized or not, k from 10 to 25.  A middle k keeps the cell
#: cost distribution from splitting into two modes with the median
#: between them, where it would jump with every small shift.
PAPER_GRID = {
    "strategy": ["intra-run", "inter-run"],
    "num_disks": [1, 2, 5, 10],
    "prefetch_depth": [2, 5, 10],
    "synchronized": [False, True],
    "num_runs": [10, 18, 25],
}
#: Cells outside the batch envelope (they fall back to the fast kernel).
FALLBACK_GRID = {
    "strategy": ["intra-run", "inter-run"],
    "num_disks": [2, 5],
    "write_disks": [0, 2],
}
BLOCKS_PER_RUN = 100
TRIALS = 1
#: Cells per round re-run on the reference kernel (one from the
#: fallback grid among them).
REFERENCE_SAMPLE = 4
#: Relative slack for ``healthy + fault == cpu`` stall time: far above
#: float rounding (~1e-16 relative), far below any real accounting slip.
STALL_TOLERANCE = 1e-9
#: Untraced runs read the host speed after every this many cells
#: (about 0.1 s of work; a reading costs about 5 ms).
READ_EVERY_CELLS = 8
#: Profile entry of the fast-kernel fallback: ``MergeTrial.run``.
FALLBACK_ENTRY = "merge_sim.py:run"


def _fault_plan():
    from repro.faults.plan import FaultPlan, TransientFault

    return FaultPlan(transients=(TransientFault(drive=0, probability=0.05),))


def build_specs(seed: int) -> list:
    """The round's two sweep specs, seeded from the benchmark seed."""
    from repro.sweep import SweepSpec

    base = {"blocks_per_run": BLOCKS_PER_RUN, "kernel": "batch"}
    paper = SweepSpec(
        name="campaign-paper", base=base, grid=PAPER_GRID,
        trials=TRIALS, base_seed=seed * 1000,
    )
    fallback = SweepSpec(
        name="campaign-fallback",
        base={**base, "num_runs": 10, "prefetch_depth": 5,
              "fault_plan": _fault_plan()},
        grid=FALLBACK_GRID, trials=TRIALS, base_seed=seed * 1000 + 500,
    )
    return [paper, fallback]


class CellClock:
    """Progress listener timing each cell, in wall and CPU time.

    A cell's cost runs from the previous cell settling (or the sweep
    starting) to its own last trial settling — what a sweep caller
    waits per cell.  With ``read_every`` it also reads the host speed
    after every ``read_every``-th cell; ``speed.clock()`` leaves the
    readings out of every cell.
    """

    def __init__(self, speed: HostSpeed, read_every: Optional[int]) -> None:
        from repro.sweep import ProgressListener

        outer = self
        self.wall_ms: list[float] = []
        self.cpu_ms: list[float] = []
        #: Index of the host-speed reading before each cell's end.
        self.marks: list[int] = []
        self._start = self._done = (0.0, 0.0)
        self._cell = None
        now = speed.clock

        def close_cell() -> None:
            self.wall_ms.append((self._done[0] - self._start[0]) * 1e3)
            self.cpu_ms.append((self._done[1] - self._start[1]) * 1e3)
            self.marks.append(speed.last)
            self._start = self._done
            if read_every and len(self.cpu_ms) % read_every == 0:
                speed.read()

        class Listener(ProgressListener):
            def on_begin(self, stats):
                outer._start = now()
                outer._cell = None

            def on_job(self, job, outcome, stats):
                stamp = now()
                if outer._cell is not None and job.cell != outer._cell:
                    close_cell()
                outer._cell = job.cell
                outer._done = stamp

            def on_end(self, stats):
                if outer._cell is not None:
                    close_cell()

        self.listener = Listener()


def setup(ctx) -> dict:
    """Imports and spec expansion: everything before the first trial."""
    specs = build_specs(ctx.seed)
    for spec in specs:
        spec.jobs()
    return {"specs": specs}


def teardown(state) -> None:
    pass


def trial_violations(config, metrics) -> list[str]:
    """The per-trial properties every merge must satisfy."""
    problems = []
    if metrics.blocks_depleted != config.num_runs * config.blocks_per_run:
        problems.append(
            f"blocks_depleted {metrics.blocks_depleted} != k x blocks per run"
        )
    bound = (
        metrics.blocks_fetched * config.disk.transfer_ms_per_block
        / config.num_disks
    )
    if metrics.total_time_ms < bound:
        problems.append(
            f"total_time_ms {metrics.total_time_ms} below transfer bound {bound}"
        )
    # The two stall accumulators are summed separately from the total,
    # so they agree to rounding, not bit for bit.
    split = metrics.healthy_stall_ms + metrics.fault_stall_ms
    if abs(split - metrics.cpu_stall_ms) > STALL_TOLERANCE * max(
        1.0, metrics.cpu_stall_ms
    ):
        problems.append(
            f"healthy + fault stall {split} != cpu stall {metrics.cpu_stall_ms}"
        )
    if metrics.peak_concurrency > config.num_disks:
        problems.append(
            f"peak_concurrency {metrics.peak_concurrency} > D={config.num_disks}"
        )
    return problems


def reference_mismatches(spec, cell_index: int, cell) -> list[int]:
    """Trials of one cell that differ from the ``reference`` kernel."""
    import dataclasses

    from repro import api

    config = spec.cells()[cell_index]
    reference = api.run_trials(
        [dataclasses.replace(config, kernel="reference")] * config.trials,
        trials=list(range(config.trials)),
    )
    return [
        trial for trial, (got, want) in enumerate(zip(cell.trials, reference))
        if got.to_dict() != want.to_dict()
    ]


def measure(state, ctx) -> dict:
    from repro.sweep import ResultStore, SweepEngine

    specs = state["specs"]
    configs = [spec.cells() for spec in specs]
    trials_per_round = sum(c.trials for cs in configs for c in cs)
    speed = HostSpeed()
    # A round lasts seconds, over which the host's speed flips; the
    # traced run reads only between rounds, so the profile never sees
    # the loop.
    clock = CellClock(speed, None if ctx.trace else READ_EVERY_CELLS)
    profile = None
    if ctx.trace:
        from layers import ModuleProfile

        profile = ModuleProfile(str(ctx.src))
    # Failed trials as (round, spec, cell, trial), each counted once.
    failed: set[tuple] = set()
    errors: list[str] = []
    problems: list[str] = []
    blocks = 0
    wall = 0.0
    cpu_s = 0.0
    #: (blocks per CPU second, CPU ms per trial, wall ms per trial) of
    #: each round, scaled to the reference speed.
    per_round: list[tuple[float, float, float]] = []
    #: CPU ms of every cell, scaled to the reference speed.
    cell_cpu_ms: list[float] = []
    store_bytes = []
    # The reference-kernel sample of round 0: seeded, one fallback cell.
    rng = random.Random(ctx.seed)
    sample = [(0, i) for i in rng.sample(range(len(configs[0])),
                                         REFERENCE_SAMPLE - 1)]
    sample.append((1, rng.randrange(len(configs[1]))))
    host = HostWindow()
    deadline = time.perf_counter() + ctx.seconds
    round_index = 0
    while round_index == 0 or time.perf_counter() < deadline:
        store_root = ctx.work / f"campaign-store-{round_index}"
        engine = SweepEngine(
            store=ResultStore(store_root), workers=1, allow_partial=True,
            progress=clock.listener,
        )
        cells_before = len(clock.cpu_ms)
        first_reading = speed.last
        start, cpu_start = speed.clock()
        with profile or contextlib.nullcontext():
            results = [engine.run_spec(spec) for spec in specs]
        end, cpu_end = speed.clock()
        round_wall = end - start
        round_cpu = cpu_end - cpu_start
        wall += round_wall
        cpu_s += round_cpu
        speed.read()
        scale = speed.scale(first_reading, speed.last)
        cell_cpu_ms += [
            ms * speed.scale(mark) for ms, mark in
            zip(clock.cpu_ms[cells_before:], clock.marks[cells_before:])
        ]
        # -- oracles, outside the timed window --
        round_blocks = 0
        for spec_index, result in enumerate(results):
            for failure in result.failures:
                failed.add((round_index, spec_index,
                            *divmod(failure.index, TRIALS)))
                errors.append(f"{failure.description}: {failure.error}")
            for cell_index, cell in enumerate(result.cells):
                config = configs[spec_index][cell_index]
                for trial, metrics in enumerate(cell.trials):
                    round_blocks += metrics.blocks_depleted
                    for problem in trial_violations(config, metrics):
                        failed.add((round_index, spec_index, cell_index, trial))
                        problems.append(f"{config.describe()}: {problem}")
        blocks += round_blocks
        per_round.append((round_blocks / round_cpu / scale,
                          round_cpu * 1e3 * scale / trials_per_round,
                          round_wall * 1e3 * scale / trials_per_round))
        if ctx.trace:
            store_bytes += [
                path.stat().st_size for path in store_root.rglob("*.json")
                if "campaigns" not in path.parts
            ]
        if ctx.plant and round_index == 0:
            # Self-test: one metric of one sampled trial perturbed.
            spec_index, cell_index = sample[0]
            results[spec_index].cells[cell_index].trials[0].total_time_ms += 1e-6
        cells = [[cell.to_dict() for cell in r.cells] for r in results]
        if round_index == 0:
            first_results, first_cells = results, cells
        else:
            for key in _trial_mismatches(first_cells, cells):
                failed.add((round_index, *key))
                problems.append(f"round {round_index} differs at {key}")
        shutil.rmtree(store_root, ignore_errors=True)
        round_index += 1
    host.stop()
    rss = peak_rss_mb(os.getpid())

    for spec_index, cell_index in sample:
        cell = first_results[spec_index].cells[cell_index]
        for trial in reference_mismatches(specs[spec_index], cell_index, cell):
            failed.add((0, spec_index, cell_index, trial))
            problems.append(
                f"{cell.config_description} trial {trial}: differs from the "
                "reference kernel"
            )

    attempted = round_index * trials_per_round
    outcome = {
        "attempted": attempted,
        "failed": len(failed),
        "errors": errors,
        "problems": problems,
        "metrics": {
            "peak_rss_mb": rss,
            "blocks_per_cpu_s": median(r[0] for r in per_round),
            "cpu_ms_per_op": median(r[1] for r in per_round),
            "wall_ms_per_op": median(r[2] for r in per_round),
            "cpu_p50_ms": percentile(cell_cpu_ms, 50),
            "cpu_p90_ms": percentile(cell_cpu_ms, 90),
        },
        "host": {"host.steal_pct": host.steal_pct, "host.cpu_s": cpu_s,
                 "host.loop_ms": speed.loop_ms},
        "notes": [
            f"{round_index} rounds x {trials_per_round} trials, "
            f"{len(clock.cpu_ms)} cells timed",
            f"unscaled wall: {blocks / wall:.0f} blocks/s, "
            f"{attempted / wall:.2f} trials/s, cell p50/p90 "
            f"{percentile(clock.wall_ms, 50):.3f} / "
            f"{percentile(clock.wall_ms, 90):.3f} ms",
        ],
    }
    if profile is not None:
        outcome["layers"] = _layer_metrics(profile, attempted, store_bytes)
    return outcome


def _trial_mismatches(base: list, other: list) -> list[tuple]:
    """``(spec, cell, trial)`` of every trial that differs between rounds."""
    return [
        (spec_index, cell_index, trial)
        for spec_index, (cells_a, cells_b) in enumerate(zip(base, other))
        for cell_index, (a, b) in enumerate(zip(cells_a, cells_b))
        for trial, (ta, tb) in enumerate(zip(a["trials"], b["trials"]))
        if ta != tb
    ]


def _layer_metrics(profile, trials: int, store_bytes: list[int]) -> dict:
    """Per-trial self times and counts from the module profile."""
    from layers import REPORTED_LAYERS, require_fired

    report = profile.attribute()
    self_s = report["self_s"]
    calls = report["calls"]
    per_trial_ms = 1e3 / trials
    metrics = {
        f"{layer}.self_ms": self_s.get(layer, 0.0) * per_trial_ms
        for layer in REPORTED_LAYERS
    }
    named = sum(self_s.get(layer, 0.0) for layer in REPORTED_LAYERS)
    total = report["total_s"]
    metrics["profile.other_ms"] = (total - named) * per_trial_ms
    metrics["profile.named_share"] = named / total if total > 0 else 0.0
    # Trials the batch kernel hands back run through ``MergeTrial.run``;
    # the fallback grid guarantees some, so a missing entry means the
    # probe no longer sees them.
    fallback = calls.get(FALLBACK_ENTRY, 0)
    put_ms = profile.cumulative_s("sweep/store.py", "put") * per_trial_ms
    require_fired(
        {FALLBACK_ENTRY: fallback, "sweep/store.py:put": put_ms,
         "sweep.store.puts": len(store_bytes)},
        (FALLBACK_ENTRY, "sweep/store.py:put", "sweep.store.puts"),
        "the campaign profile",
    )
    metrics["sim.trials"] = trials
    metrics["sim.batch.fallback_trials"] = fallback
    metrics["sim.batch.native_trials"] = trials - fallback
    metrics["rng.calls"] = calls["rng"]
    metrics["sweep.store.put_ms"] = put_ms
    metrics["sweep.store.puts"] = len(store_bytes)
    metrics["sweep.store.bytes_written"] = sum(store_bytes)
    return metrics
