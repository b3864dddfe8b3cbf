"""Run one workload of the repository benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 repobench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` makes a separate, instrumented run that reports the
per-layer metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
list the same metrics as a table, plus host readings and any oracle
failures.  Exits 2 without a result when the checkout holds no
``src/repro`` package, and 3 when a ``--trace 1`` run cannot install a
layer probe or a probe never fired.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from common import (
    BENCH_DIR,
    WORK_DIRNAME,
    HostSpeed,
    checkout_root,
    median,
    metric_units,
    pin_to_one_cpu,
    read_line,
    use_program,
)
from layers import ProbeError

#: Workload name -> module implementing ``setup``/``measure``/``teardown``.
WORKLOADS = {
    "campaign": "campaign",
    "serve-mix": "serve_mix",
    "dist-campaign": "dist_campaign",
}

#: Fresh-process set-ups measured per run; ``setup_s`` is the median
#: of their CPU seconds, each scaled to the reference host speed
#: (:class:`common.HostSpeed`, read around every probe).
SETUP_PROBES = 5

#: How long one probe may take to report ready.
PROBE_TIMEOUT_S = 60.0


@dataclasses.dataclass
class Context:
    """What a workload needs to know about this run."""

    seed: int
    seconds: float
    trace: bool
    work: Path
    src: Path
    #: Self-test only: plant one wrong answer the oracles must catch.
    plant: bool = False


def probe_setup(root: Path, workload: str, seed: int) -> tuple[float, float]:
    """Set-up cost of the workload in a fresh process.

    Returns ``(cpu_s, wall_s)``: the CPU seconds the probe and any
    process it started spent from exec to ready (interpreter start,
    imports, servers, warm-up), and the wall seconds the same took as
    seen from here.
    """
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--probe"],
        cwd=root, stdout=subprocess.PIPE, text=True,
    )
    try:
        line = read_line(child.stdout, PROBE_TIMEOUT_S)
        elapsed = time.perf_counter() - start
        child.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        child.stdout.close()
    fields = line.split()
    if len(fields) != 2 or fields[0] != "ready" or child.returncode != 0:
        raise RuntimeError(
            f"setup probe for {workload} failed (exit {child.returncode})"
        )
    return float(fields[1]), elapsed


def _print_table(title: str, values: dict, units: dict) -> None:
    print(f"== {title}")
    for name, value in values.items():
        unit = units.get(name, "")
        print(f"  {name:34s} {value:>16.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--plant", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    root = checkout_root()
    src = use_program(root)
    pin_to_one_cpu()
    module = importlib.import_module(WORKLOADS[args.workload])
    work = root / WORK_DIRNAME / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    ctx = Context(
        seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
        work=work, src=src, plant=args.plant,
    )
    try:
        if args.probe:
            state = module.setup(ctx)
            helper = getattr(module, "helper_cpu_s", None)
            cpu_s = time.process_time() + (helper(state) if helper else 0.0)
            print(f"ready {cpu_s!r}", flush=True)
            module.teardown(state)
            return 0
        # (scaled CPU s, CPU s, wall s) of each set-up probe.
        setup_samples = []
        if not args.trace:
            speed = HostSpeed()
            for _ in range(SETUP_PROBES):
                cpu_s, wall_s = probe_setup(root, args.workload, args.seed)
                speed.read()
                scale = speed.scale(speed.last - 1)
                setup_samples.append((cpu_s * scale, cpu_s, wall_s))
        state = module.setup(ctx)
        try:
            outcome = module.measure(state, ctx)
        finally:
            module.teardown(state)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # other runs' directories, or already gone

    for note in outcome.get("notes", []):
        print(f"# {note}")
    # Operations that raised count as failed; an answer that fails an
    # oracle also makes the run incorrect.
    for error in outcome["errors"][:20]:
        print(f"OPERATION FAILED: {error}", file=sys.stderr)
    for problem in outcome["problems"][:20]:
        print(f"ORACLE FAILURE: {problem}", file=sys.stderr)
    host = outcome["host"]
    if args.trace:
        units = metric_units("per_layer")
        layers = {**outcome.get("layers", {}), **host}
        unknown = sorted(set(layers) - set(units))
        if unknown:
            raise KeyError(f"layer metrics missing from BENCHMARK.json: {unknown}")
        # A layer this workload does not exercise reads zero.
        metrics = {name: float(layers.get(name, 0.0)) for name in units}
    else:
        units = metric_units("end_to_end")
        measured = {
            **outcome["metrics"],
            "setup_s": median(sample[0] for sample in setup_samples),
        }
        metrics = {name: float(measured[name]) for name in units}
        print("# setup probes, scaled CPU / CPU / wall s: " + "  ".join(
            f"{scaled:.3f}/{cpu:.3f}/{wall:.3f}"
            for scaled, cpu, wall in setup_samples
        ))
        _print_table("host", host, metric_units("per_layer"))
    _print_table(f"{args.workload} (trace={args.trace})", metrics, units)
    result = {
        "correct": not outcome["problems"],
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ProbeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(3)
