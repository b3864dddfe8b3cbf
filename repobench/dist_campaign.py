"""The ``dist-campaign`` workload: small cells through ``repro.dist``.

Each round stands up a :class:`~repro.dist.Coordinator` on a fresh
store and one :class:`~repro.dist.DistWorker` thread (two busy threads,
one per core of a two-core host), and runs a campaign of many small
cells over HTTP to completion.  Jobs are small, so leasing, upload and
the coordinator's store merge are a large share of each one.

Operations are jobs.  The oracles: each round's store holds exactly one
entry per job and nothing else, every round's aggregates equal round
one's, and for a seeded sample of cells both the aggregates and the
stored entries equal an inline :class:`~repro.sweep.SweepEngine` run on
the ``reference`` kernel.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import shutil
import threading
import time

from common import HostSpeed, HostWindow, median, peak_rss_mb, percentile
from layers import ProbeError, Timers, patch, require_fired, unpatch

GRID = {
    "strategy": ["intra-run", "inter-run"],
    "num_disks": [1, 2, 3, 4],
    "prefetch_depth": [1, 2, 4],
    "num_runs": [6, 8],
}
BLOCKS_PER_RUN = 40
TRIALS = 2
SHARD_SIZE = 4
REFERENCE_SAMPLE = 4
#: Untraced runs read the host speed after every this many shards
#: (about 50 ms of work; a reading costs about 5 ms).
READ_EVERY_SHARDS = 2
ROUND_TIMEOUT_S = 120.0


def build_spec(seed: int):
    from repro.sweep import SweepSpec

    return SweepSpec(
        name="dist-campaign",
        base={"blocks_per_run": BLOCKS_PER_RUN, "kernel": "batch"},
        grid=GRID, trials=TRIALS, base_seed=seed * 1000,
    )


def setup(ctx) -> dict:
    """Imports, spec expansion and one coordinator bound and listening."""
    from repro.dist import Coordinator, CoordinatorConfig
    from repro.dist.coordinator import start_coordinator_in_thread

    spec = build_spec(ctx.seed)
    coordinator = Coordinator(spec, CoordinatorConfig(
        port=0, shard_size=SHARD_SIZE, cache_dir=str(ctx.work / "dist-setup"),
        exit_when_done=True,
    ))
    handle = start_coordinator_in_thread(coordinator)
    return {"handle": handle}


def teardown(state) -> None:
    handle = state.pop("handle", None)
    if handle is not None:
        handle.stop()


class TimedClient:
    """Factory of coordinator clients that time each shard round trip.

    A shard's latency runs from the worker's lease request to the
    coordinator's answer to its completion upload — what the worker
    waits per shard, seen from the client side.  Untraced, the worker
    thread reads the host speed after every ``READ_EVERY_SHARDS``-th
    shard, between its completion and the next lease.
    """

    def __init__(self, timers: Timers, detailed: bool,
                 speed: HostSpeed) -> None:
        from repro.dist import CoordinatorClient

        # Overriding a method the client no longer has would time nothing.
        missing = [name for name in ("lease", "complete", "_request")
                   if not callable(getattr(CoordinatorClient, name, None))]
        if missing:
            raise ProbeError(
                f"cannot install layer probe: CoordinatorClient has no "
                f"{', '.join(missing)}"
            )
        outer = self
        self.wall_ms: list[float] = []
        self.cpu_ms: list[float] = []
        #: Index of the host-speed reading before each shard's end.
        self.marks: list[int] = []
        self._lease_start = (0.0, 0.0)

        class Client(CoordinatorClient):
            def lease(self, worker):
                cpu_start = time.process_time()
                start = time.perf_counter()
                answer = super().lease(worker)
                if detailed:
                    timers.add("lease", time.perf_counter() - start)
                if answer.get("status") == "granted":
                    outer._lease_start = (start, cpu_start)
                return answer

            def complete(self, token, results):
                start = time.perf_counter()
                answer = super().complete(token, results)
                end = time.perf_counter()
                if detailed:
                    timers.add("complete", end - start)
                outer.wall_ms.append((end - outer._lease_start[0]) * 1e3)
                outer.cpu_ms.append(
                    (time.process_time() - outer._lease_start[1]) * 1e3
                )
                outer.marks.append(speed.last)
                if not detailed and \
                        len(outer.cpu_ms) % READ_EVERY_SHARDS == 0:
                    speed.read()
                return answer

            def _request(self, method, path, body=None):
                timers.bump("http")
                return super()._request(method, path, body)

        self.cls = Client


def _run_round(spec, ctx, store_root, timers: Timers, client_factory):
    """One campaign: coordinator + one worker thread, to completion."""
    from repro.dist import Coordinator, CoordinatorConfig, DistWorker
    from repro.dist.coordinator import start_coordinator_in_thread
    from repro.sweep import ResultStore

    store = ResultStore(store_root)
    if ctx.trace:
        store.put = timers.wrap("merge", store.put)
    coordinator = Coordinator(spec, CoordinatorConfig(
        port=0, shard_size=SHARD_SIZE, cache_dir=str(store_root),
        exit_when_done=True,
    ), store=store)
    handle = start_coordinator_in_thread(coordinator)
    host, port = handle.address
    sleep = timers.wrap("wait", time.sleep) if ctx.trace else time.sleep
    worker = DistWorker(
        host, port, worker_id="bench-worker", poll_s=0.01, sleep=sleep,
        client=client_factory.cls(host, port, client_id="bench-worker"),
    )
    failures: list[BaseException] = []

    def work() -> None:
        try:
            worker.run()
        except Exception as exc:  # reported as failed jobs, not a crash
            failures.append(exc)

    thread = threading.Thread(target=work, name="bench-dist-worker")
    thread.start()
    thread.join(ROUND_TIMEOUT_S)
    handle.join(ROUND_TIMEOUT_S)
    if thread.is_alive() or handle.thread.is_alive():
        handle.stop()
        thread.join(ROUND_TIMEOUT_S)
        raise RuntimeError("dist round did not finish")
    return coordinator, worker, failures


def measure(state, ctx) -> dict:
    from repro.sweep import ResultStore, SweepEngine

    teardown(state)  # the set-up coordinator only proves start-up cost
    timers = Timers()
    undo: list = []
    if ctx.trace:
        from repro.dist import worker as worker_mod
        from repro.sweep.store import CampaignManifest

        patch(worker_mod, "execute_job",
              lambda f: timers.wrap("execute", f), undo)
        for name in ("record", "record_shard"):
            patch(CampaignManifest, name,
                  lambda f: timers.wrap("manifest", f), undo)
    speed = HostSpeed()
    client_factory = TimedClient(timers, detailed=ctx.trace, speed=speed)
    spec = build_spec(ctx.seed)
    jobs = spec.jobs()
    cells = spec.cells()
    rng = random.Random(ctx.seed)
    sample = rng.sample(range(len(cells)), REFERENCE_SAMPLE)
    errors: list[str] = []
    problems: list[str] = []
    failed = 0
    attempted = 0
    blocks = 0
    wall = 0.0
    cpu_s = 0.0
    #: (blocks per CPU second, CPU ms per job, wall ms per job) of each
    #: round, scaled to the reference speed.
    per_round: list[tuple[float, float, float]] = []
    #: CPU ms of every shard, scaled to the reference speed.
    shard_cpu_ms: list[float] = []
    leases = 0
    base = None
    base_entries = None
    host = HostWindow()
    deadline = time.perf_counter() + ctx.seconds
    round_index = 0
    try:
        while round_index == 0 or time.perf_counter() < deadline:
            store_root = ctx.work / f"dist-store-{round_index}"
            shards_before = len(client_factory.cpu_ms)
            first_reading = speed.last
            start, cpu_start = speed.clock()
            coordinator, worker, crashes = _run_round(
                spec, ctx, store_root, timers, client_factory
            )
            end, cpu_end = speed.clock()
            round_wall = end - start
            round_cpu = cpu_end - cpu_start
            wall += round_wall
            cpu_s += round_cpu
            speed.read()
            scale = speed.scale(first_reading, speed.last)
            shard_cpu_ms += [
                ms * speed.scale(mark) for ms, mark in
                zip(client_factory.cpu_ms[shards_before:],
                    client_factory.marks[shards_before:])
            ]
            round_blocks = blocks
            # -- oracles, outside the timed window --
            attempted += len(jobs)
            leases += worker.stats.leases
            aggregator = coordinator.aggregator
            round_failed = len(jobs) - aggregator.completed
            errors += [f"worker stopped: {exc!r}" for exc in crashes]
            errors += [
                f"job {index}: {error}"
                for index, error in aggregator.failures().items()
            ]
            store = ResultStore(store_root)
            keys = sorted(store.keys())
            if keys != sorted(job.key for job in jobs):
                round_failed += abs(len(keys) - len(jobs)) or 1
                problems.append(
                    f"round {round_index}: store holds {len(keys)} entries "
                    f"for {len(jobs)} jobs"
                )
            results = [cell.to_dict() for cell in aggregator.result()]
            for cell in results:
                for trial in cell["trials"]:
                    blocks += trial["blocks_depleted"]
            round_blocks = blocks - round_blocks
            per_round.append((round_blocks / round_cpu / scale,
                              round_cpu * 1e3 * scale / len(jobs),
                              round_wall * 1e3 * scale / len(jobs)))
            if ctx.plant and round_index == 0:
                # Self-test: one stored entry of a sampled cell altered.
                _alter_entry(store, jobs, sample[0])
            entries = {
                index: [
                    _entry(store, job.key) for job in jobs if job.cell == index
                ]
                for index in sample
            }
            if base is None:
                base, base_entries = results, entries
            elif results != base or entries != base_entries:
                round_failed += 1
                problems.append(f"round {round_index} differs from round 0")
            failed += min(round_failed, len(jobs))
            shutil.rmtree(store_root, ignore_errors=True)
            round_index += 1
    finally:
        unpatch(undo)
    host.stop()
    rss = peak_rss_mb(os.getpid())

    engine = SweepEngine(store=None, workers=1)
    for index in sample:
        config = dataclasses.replace(cells[index], kernel="reference")
        reference = engine.run_config(config).to_dict()
        if base[index] != reference or \
                base_entries[index] != reference["trials"]:
            failed += 1
            problems.append(
                f"{reference['config_description']}: dist result differs "
                "from the reference kernel"
            )

    outcome = {
        "attempted": attempted,
        "failed": min(failed, attempted),
        "errors": errors,
        "problems": problems,
        "metrics": {
            "peak_rss_mb": rss,
            "blocks_per_cpu_s": median(r[0] for r in per_round),
            "cpu_ms_per_op": median(r[1] for r in per_round),
            "wall_ms_per_op": median(r[2] for r in per_round),
            "cpu_p50_ms": percentile(shard_cpu_ms, 50),
            "cpu_p90_ms": percentile(shard_cpu_ms, 90),
        },
        "host": {"host.steal_pct": host.steal_pct, "host.cpu_s": cpu_s,
                 "host.loop_ms": speed.loop_ms},
        "notes": [
            f"{round_index} rounds x {len(jobs)} jobs, "
            f"{len(client_factory.cpu_ms)} shards timed",
            f"unscaled wall: {blocks / wall:.0f} blocks/s, "
            f"{attempted / wall:.2f} jobs/s, shard p50/p90 "
            f"{percentile(client_factory.wall_ms, 50):.3f} / "
            f"{percentile(client_factory.wall_ms, 90):.3f} ms",
        ],
    }
    if ctx.trace:
        snap = timers.snapshot()
        seconds, counts = snap["seconds"], snap["counts"]
        require_fired(counts, ("lease", "execute", "complete", "merge",
                               "manifest", "http"), "the dist round")
        per_job = 1e3 / attempted
        outcome["layers"] = {
            f"dist.{name}_ms": seconds.get(name, 0.0) * per_job
            for name in ("lease", "execute", "complete", "merge", "manifest",
                         "wait")
        }
        outcome["layers"]["dist.leases"] = leases
        outcome["layers"]["dist.http_requests"] = counts.get("http", 0)
    return outcome


def _entry(store, key: str):
    """A stored trial as a dict, or ``None`` when the store lacks it."""
    metrics = store.get(key)
    return None if metrics is None else metrics.to_dict()


def _alter_entry(store, jobs, cell_index: int) -> None:
    job = next(job for job in jobs if job.cell == cell_index)
    path = store.path_for(job.key)
    payload = json.loads(path.read_text())
    payload["metrics"]["total_time_ms"] += 1.0
    path.write_text(json.dumps(payload))
