"""The ``serve-mix`` workload: one closed-loop client against a live server.

The server (:mod:`serve_proc`) runs in its own process on a private
store and computes misses on its pool of worker processes.  Set-up
starts it and warms a hot set of requests; each measured round then
sends, in a seeded order, ``HITS_PER_ROUND`` requests drawn
from the hot set (answered entirely from the result store) and
``MISSES_PER_ROUND`` requests with fresh seeds whose trials are all
computed on the ``batch`` kernel.  One request is in flight at a time.

Operations are requests.  The oracles: every hot-set answer equals its
warm-up answer, which equals a direct ``repro.api.run_trials`` call on
the ``reference`` kernel; a seeded sample of misses is re-run on the
reference kernel; and every answer's hit and miss counts match the
request's class.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import signal
import subprocess
import sys
import time

from common import (
    BENCH_DIR,
    HostSpeed,
    HostWindow,
    median,
    peak_rss_mb,
    percentile,
    process_tree,
    read_line,
    tree_run_ns,
)
from layers import ProbeError, require_fired

TRIALS = 4
HITS_PER_ROUND = 16
MISSES_PER_ROUND = 4
#: One miss in this many is re-run on the reference kernel.
MISS_SAMPLE_EVERY = 10
SERVER_READY_TIMEOUT_S = 60.0

#: Hot-set shapes: both strategies at D = 1, 2, 5, 10 (N and
#: synchronization vary with them), k = 25 runs of 100 blocks.
_HOT_SHAPES = [
    {"strategy": strategy, "num_disks": disks, "prefetch_depth": depth,
     "synchronized": synchronized}
    for strategy in ("intra-run", "inter-run")
    for disks, depth, synchronized in (
        (1, 2, False), (2, 10, True), (5, 5, False), (10, 10, True),
    )
]
#: Miss shapes, cycled in order: both strategies, D = 1, 2, 5, 10,
#: synchronized or not, k = 10 runs of 60 blocks.
_MISS_SHAPES = [
    {"strategy": strategy, "num_disks": disks, "prefetch_depth": depth,
     "synchronized": synchronized}
    for strategy in ("intra-run", "inter-run")
    for disks, depth in ((1, 5), (2, 2), (5, 10), (10, 5))
    for synchronized in (False, True)
]


def hot_set(seed: int) -> list[dict]:
    """The hot requests: fixed shapes, simulation seeds from ``seed``."""
    return [
        {"config": {**shape, "num_runs": 25, "blocks_per_run": 100},
         "seed": seed * 100_000 + 100 * i}
        for i, shape in enumerate(_HOT_SHAPES)
    ]


def miss_request(seed: int, number: int) -> dict:
    """The ``number``-th fresh request of a run: never seen by the store."""
    shape = _MISS_SHAPES[number % len(_MISS_SHAPES)]
    return {
        "config": {**shape, "num_runs": 10, "blocks_per_run": 60},
        "seed": seed * 100_000 + 50_000 + number * TRIALS,
    }


def _simulate(client, request: dict) -> dict:
    return client.simulate(
        request["config"], trials=TRIALS, seed=request["seed"],
        kernel="batch",
    )


def setup(ctx) -> dict:
    """Start the server process and warm the hot set."""
    from repro.serve import NO_RETRY, ServeClient

    store = ctx.work / "serve-store"
    stats = ctx.work / "serve-stats.json"
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "serve_proc.py"),
         "--cache-dir", str(store), "--trace", str(int(ctx.trace)),
         "--stats-out", str(stats)],
        stdout=subprocess.PIPE, text=True,
    )
    state = {"proc": proc, "stats": stats, "store": store}
    try:
        line = read_line(proc.stdout, SERVER_READY_TIMEOUT_S)
        if not line.startswith("port "):
            if proc.wait(timeout=SERVER_READY_TIMEOUT_S) == 3:
                raise ProbeError("the serve process could not install its "
                                 "layer probes (its error is above)")
            raise RuntimeError("serve process did not start")
        client = ServeClient("127.0.0.1", int(line.split()[1]),
                             retry=NO_RETRY, timeout_s=120.0)
        state["client"] = client
        state["hot"] = hot_set(ctx.seed)
        state["warm"] = []
        for request in state["hot"]:
            answer = _simulate(client, request)
            if answer["cache"]["misses"] != TRIALS:
                raise RuntimeError("hot-set warm-up found a non-empty store")
            state["warm"].append(answer["trials"])
        # The server and its pool workers, all started by the warm-up.
        state["pids"] = process_tree(proc.pid)
    except BaseException:
        teardown(state)
        raise
    return state


def helper_cpu_s(state) -> float:
    """CPU seconds the server and its pool have spent (start-up, warm-up)."""
    return tree_run_ns(state["pids"]) / 1e9


def teardown(state) -> None:
    """Drain the server; its pool workers end with it."""
    proc = state["proc"]
    if proc.poll() is None:
        pool = process_tree(proc.pid)[1:]
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            _stop_orphans(pool)
    proc.stdout.close()


def _stop_orphans(pids: list[int]) -> None:
    """Kill the pool workers of a killed server; wait until they end."""
    for pid in pids:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
    deadline = time.monotonic() + 10.0
    while any(map(_running, pids)) and time.monotonic() < deadline:
        time.sleep(0.01)


def _running(pid: int) -> bool:
    """Whether ``pid`` exists and has not yet exited (is no zombie)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError):
        return False


def _config(request: dict, kernel: str):
    """The ``SimulationConfig`` the server builds from ``request``."""
    from repro.serve.protocol import parse_simulate_request

    return parse_simulate_request({
        "config": request["config"], "trials": TRIALS,
        "seed": request["seed"], "kernel": kernel,
    }).config


def _plant(state) -> None:
    """Self-test: alter one hot-set store entry after warm-up."""
    from repro.sweep.store import ResultStore, compute_key

    config = _config(state["hot"][0], "batch")
    path = ResultStore(state["store"]).path_for(compute_key(config, 0))
    payload = json.loads(path.read_text())
    payload["metrics"]["total_time_ms"] += 1.0
    path.write_text(json.dumps(payload))


def _reference(request: dict) -> list[dict]:
    """Direct ``run_trials`` on the reference kernel for one request."""
    from repro import api

    config = _config(request, "reference")
    metrics = api.run_trials([config] * TRIALS, trials=list(range(TRIALS)))
    return [m.to_dict() for m in metrics]


def measure(state, ctx) -> dict:
    from repro.serve import ServeError

    if ctx.plant:
        _plant(state)
    client = state["client"]
    hot = state["hot"]
    pids = state["pids"]
    # Per request class: wall latency and server CPU time, in ms.
    latencies: dict[str, list[float]] = {"hit": [], "miss": []}
    server_cpu: dict[str, list[float]] = {"hit": [], "miss": []}
    #: Server CPU ms of every request, scaled to the reference speed.
    scaled_cpu: list[float] = []
    #: (miss blocks per server CPU second, server CPU ms per request,
    #: wall ms per request) of each round, scaled to the reference speed.
    per_round: list[tuple[float, float, float]] = []
    blocks = 0
    attempted = 0
    failed = 0
    errors: list[str] = []
    problems: list[str] = []
    sampled: list[tuple[dict, list]] = []
    misses_sent = 0
    host = HostWindow()
    speed = HostSpeed()
    cpu_start = tree_run_ns(pids) / 1e9 + time.process_time()
    wall = 0.0
    deadline = time.perf_counter() + ctx.seconds
    round_index = 0
    while round_index == 0 or time.perf_counter() < deadline:
        order = [("hit", i % len(hot)) for i in range(HITS_PER_ROUND)]
        order += [("miss", None)] * MISSES_PER_ROUND
        random.Random(ctx.seed * 7919 + round_index).shuffle(order)
        marks = {kind: len(values) for kind, values in server_cpu.items()}
        marks["blocks"] = blocks
        wall_mark = wall
        for kind, index in order:
            if kind == "hit":
                request = hot[index]
            else:
                request = miss_request(ctx.seed, misses_sent)
                misses_sent += 1
            attempted += 1
            cpu_before = tree_run_ns(pids)
            start = time.perf_counter()
            try:
                answer = _simulate(client, request)
            except ServeError as exc:
                wall += time.perf_counter() - start
                failed += 1
                errors.append(f"{kind} request failed: {exc}")
                continue
            elapsed = time.perf_counter() - start
            server_cpu[kind].append((tree_run_ns(pids) - cpu_before) / 1e6)
            wall += elapsed
            latencies[kind].append(elapsed * 1e3)
            # -- oracles, outside the timed window --
            cache = answer["cache"]
            if kind == "hit":
                ok = (cache["hits"], cache["misses"]) == (TRIALS, 0) and \
                    answer["trials"] == state["warm"][index]
            else:
                blocks += sum(t["blocks_depleted"] for t in answer["trials"])
                ok = (cache["hits"], cache["misses"]) == (0, TRIALS)
                if (misses_sent - 1) % MISS_SAMPLE_EVERY == 0:
                    sampled.append((request, answer["trials"]))
            if not ok:
                failed += 1
                problems.append(
                    f"{kind} answer wrong for {request['config']} "
                    f"seed={request['seed']}: cache={cache}"
                )
        round_cpu = {kind: sum(values[marks[kind]:])
                     for kind, values in server_cpu.items()}
        speed.read()
        scale = speed.scale(speed.last - 1)
        scaled_cpu += [value * scale for kind, values in server_cpu.items()
                       for value in values[marks[kind]:]]
        per_round.append((
            (blocks - marks["blocks"]) * 1e3 / max(round_cpu["miss"], 1e-9)
            / scale,
            (round_cpu["hit"] + round_cpu["miss"]) * scale / len(order),
            (wall - wall_mark) * 1e3 * scale / len(order),
        ))
        round_index += 1
    cpu_s = tree_run_ns(pids) / 1e9 + time.process_time() - cpu_start
    host.stop()
    rss = peak_rss_mb(os.getpid()) + sum(map(peak_rss_mb, pids))

    for index, request in enumerate(hot):
        if state["warm"][index] != _reference(request):
            failed += 1
            problems.append(
                f"hot answer {request['config']} differs from the "
                "reference kernel"
            )
    for request, trials in sampled:
        if trials != _reference(request):
            failed += 1
            problems.append(
                f"miss answer {request['config']} seed={request['seed']} "
                "differs from the reference kernel"
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
            "cpu_p50_ms": percentile(scaled_cpu, 50),
            "cpu_p90_ms": percentile(scaled_cpu, 90),
        },
        "host": {"host.steal_pct": host.steal_pct, "host.cpu_s": cpu_s,
                 "host.loop_ms": speed.loop_ms},
        "notes": [
            f"{round_index} rounds, {len(latencies['hit'])} hits + "
            f"{misses_sent} misses, {len(sampled)} misses checked on the "
            "reference kernel",
            f"unscaled wall: {attempted / wall:.2f} requests/s",
            *(
                f"unscaled {kind} wall p50/p90 "
                f"{percentile(latencies[kind], 50):.3f} / "
                f"{percentile(latencies[kind], 90):.3f} ms, server CPU "
                f"p50/p90 {percentile(server_cpu[kind], 50):.3f} / "
                f"{percentile(server_cpu[kind], 90):.3f} ms, over "
                f"{len(latencies[kind])}"
                for kind in latencies
            ),
        ],
    }
    if ctx.trace:
        teardown(state)
        outcome["layers"] = _layer_metrics(
            json.loads(state["stats"].read_text())
        )
    return outcome


def _layer_metrics(stats: dict) -> dict:
    """Per-request (hit path) and per-computed-trial (miss path) times."""
    seconds, counts = stats["seconds"], stats["counts"]
    require_fired(counts, (
        "requests", "connections", "trials_hit", "framing_read",
        "framing_write", "parse", "key", "lookup", "encode", "dispatch",
        "execute", "store_write",
    ), "the serve process")
    per_request = 1e3 / counts["requests"]
    computed = counts["store_write"]
    per_trial = 1e3 / computed
    framing = seconds["framing_read"] + seconds["framing_write"]
    return {
        "netutil.framing_ms": framing * per_request,
        "serve.parse_ms": seconds["parse"] * per_request,
        "serve.key_ms": seconds["key"] * per_request,
        "serve.lookup_ms": seconds["lookup"] * per_request,
        "serve.encode_ms": seconds["encode"] * per_request,
        "serve.requests": counts["requests"],
        "serve.connections": counts["connections"],
        "serve.trials_hit": counts["trials_hit"],
        "serve.queue_wait_ms": max(
            0.0, seconds["dispatch"] - seconds["execute"]
        ) * per_trial,
        "serve.execute_ms": seconds["execute"] * per_trial,
        "serve.store_write_ms": seconds["store_write"] * per_trial,
        "serve.trials_computed": computed,
    }
