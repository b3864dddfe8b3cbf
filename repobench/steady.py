"""Steadiness check: run a workload N times and compare spreads to bounds.

From the root of a checkout::

    python3 repobench/steady.py --workload serve-mix --runs 10
    python3 repobench/steady.py --workload all --runs 10 --aa

Each run is ``run.py --trace 0`` with its own seed.  For every
end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``), the spread ``(Q3 - Q1) /
median`` and the largest deviation from the median, against the
metric's bound in ``BENCHMARK.json``.  A spread above a third of its
bound is flagged.

``--aa`` runs two sets of the same code, alternating run by run, and
applies the acceptance rule: every spread (``setup_s`` excepted) within
its bound, no second-set median worse than the first by more than the
bound, and the same share of failed operations in both sets.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from common import BENCH_DIR, load_manifest

RUN_TIMEOUT_S = 180.0


def run_once(workload: str, seed: int, seconds: float) -> dict:
    """One untraced run; returns its result object plus ``wall_s``."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}"
        )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - start
    result["host"] = {
        fields[0]: float(fields[1]) for fields in map(str.split, lines)
        if fields and fields[0].startswith("host.")
    }
    return result


def summarize(results: list[dict], metric: str) -> dict:
    values = [r["metrics"][metric]["value"] for r in results]
    q1, mid, q3 = statistics.quantiles(values, n=4)
    center = statistics.median(values)
    return {
        "median": center,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / center if center else float("inf"),
        "max_dev": max(abs(v - center) for v in values) / center
        if center else float("inf"),
    }


def _worse(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of it."""
    change = (second - first) / first
    return change if better == "lower" else -change


def report(workload: str, sets: list[list[dict]], manifest: dict) -> bool:
    ok = True
    print(f"== {workload}: {len(sets)} set(s) x {len(sets[0])} runs")
    for index, results in enumerate(sets):
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        walls = [r["wall_s"] for r in results]
        steal = [r["host"].get("host.steal_pct", 0.0) for r in results]
        print(f"  set {index + 1}: failed share {shares}, correct "
              f"{all(r['correct'] for r in results)}, run wall "
              f"{min(walls):.1f}-{max(walls):.1f}s, host steal "
              f"{min(steal):.1f}-{max(steal):.1f}%")
    header = (f"  {'metric':14s} {'bound':>6s} {'median':>12s} {'Q1':>12s} "
              f"{'Q3':>12s} {'spread':>7s} {'maxdev':>7s}")
    print(header)
    for spec in manifest["end_to_end"]:
        name, bound = spec["name"], spec["bound"]
        stats = [summarize(results, name) for results in sets]
        for index, s in enumerate(stats):
            flag = ""
            if name != "setup_s" and s["spread"] > bound:
                flag, ok = " SPREAD>BOUND", False
            elif s["spread"] > bound / 3:
                flag = " spread>bound/3"
            print(f"  {name:14s} {bound:6.2f} {s['median']:12.5g} "
                  f"{s['q1']:12.5g} {s['q3']:12.5g} {s['spread']:7.3f} "
                  f"{s['max_dev']:7.3f}{flag}  (set {index + 1})")
        if len(stats) == 2:
            worse = _worse(stats[0]["median"], stats[1]["median"],
                           spec["better"])
            verdict = "ok" if worse <= bound else "WORSE THAN BOUND"
            ok &= worse <= bound
            print(f"  {name:14s} second median vs first: {worse:+.3f} {verdict}")
    if len(sets) == 2:
        shares = [{r["failed"] / r["attempted"] for r in s} for s in sets]
        same = len(shares[0] | shares[1]) == 1
        ok &= same
        print(f"  failed share identical across sets: {same}")
    return ok


def main(argv=None) -> int:
    manifest = load_manifest()
    names = [w["name"] for w in manifest["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        default=manifest["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--aa", action="store_true",
                        help="two alternating sets of the same code")
    args = parser.parse_args(argv)

    workloads = names if args.workload == "all" else [args.workload]
    seeds = range(args.first_seed, args.first_seed + args.runs)
    ok = True
    for workload in workloads:
        sets: list[list[dict]] = [[] for _ in range(2 if args.aa else 1)]
        for seed in seeds:
            for results in sets:
                results.append(run_once(workload, seed, args.seconds))
        ok &= report(workload, sets, manifest)
    print("STEADY" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
