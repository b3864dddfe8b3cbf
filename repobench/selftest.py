"""Self-test: each workload's oracles catch a planted wrong answer.

From the root of a checkout::

    python3 repobench/selftest.py

For every workload it makes two short runs with the same seed: a clean
one, which must report ``correct: true`` and no failed operations, and
one with a planted wrong answer, which must report ``correct: false``
and at least one failed operation.  The plants are

* ``campaign`` — one metric of one trial in the reference-checked
  sample perturbed by 1e-6 ms after the sweep returns;
* ``serve-mix`` — one hot-set store entry altered on disk after
  warm-up, so later hits serve it;
* ``dist-campaign`` — one stored entry of a reference-checked cell
  altered after the coordinator merged it.

Exits 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys

from common import BENCH_DIR, load_manifest

SECONDS = 2.0
TIMEOUT_S = 180.0


def run(workload: str, plant: bool) -> dict:
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
               workload, "--seed", "1", "--seconds", str(SECONDS),
               "--trace", "0"]
    if plant:
        command.append("--plant")
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} exited {done.returncode}:\n"
                           f"{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["oracle"] = [line for line in done.stderr.splitlines()
                        if line.startswith("ORACLE FAILURE")]
    return result


def main() -> int:
    ok = True
    for workload in (w["name"] for w in load_manifest()["workloads"]):
        clean = run(workload, plant=False)
        planted = run(workload, plant=True)
        clean_ok = clean["correct"] and clean["failed"] == 0
        caught = not planted["correct"] and planted["failed"] > 0
        ok &= clean_ok and caught
        print(f"{workload:14s} clean: correct={clean['correct']} "
              f"failed={clean['failed']}/{clean['attempted']} "
              f"{'ok' if clean_ok else 'BAD'}; planted: "
              f"correct={planted['correct']} "
              f"failed={planted['failed']}/{planted['attempted']} "
              f"{'caught' if caught else 'MISSED'}")
        for line in planted["oracle"][:3]:
            print(f"    {line}")
    print("SELF-TEST PASSED" if ok else "SELF-TEST FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
