"""The ``repro.serve`` server process of the ``serve-mix`` workload.

Run from the checkout root::

    python3 repobench/serve_proc.py --cache-dir DIR [--trace 1 --stats-out FILE]

Prints ``port <n>`` once the server accepts connections, serves until
SIGTERM (a graceful drain), then exits.  Misses run on a pool of
``POOL_WORKERS`` processes, as under ``repro serve``'s default
``--workers 2``.  With ``--trace 1`` it first wraps the server's layer
entry points in timers — HTTP framing, request parsing, key derivation,
store lookup, response encoding, the miss path's dispatch and store
write — and writes their totals as JSON to ``--stats-out`` on exit;
execution time is the ``elapsed_s`` each pool job reports.  The program
itself is unchanged.  A probe that cannot be installed stops the
process (exit 3) before it reports a port.
"""

from __future__ import annotations

import argparse
import asyncio
import ctypes
import json
import signal
import sys
import threading
import time
from pathlib import Path

from common import checkout_root, use_program
from layers import ProbeError, Timers, patch

#: Miss-path worker processes: the ``repro serve`` CLI default.
POOL_WORKERS = 2

_PR_SET_PDEATHSIG = 1


def _die_with_parent() -> None:
    """Ask the kernel to SIGTERM this process if the benchmark dies."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_PDEATHSIG, signal.SIGTERM, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # best effort: the benchmark also stops us explicitly


def install_timers(timers: Timers, undo: list) -> None:
    """Wrap the serve layers' entry points (this process only)."""
    from repro.serve import server as server_mod
    from repro.serve.cache import CacheFront
    from repro.serve.server import SimulationServer

    local = threading.local()

    def writing(original):
        return timers.wrap_async("framing_write", original)

    def reading(original):
        async def timed(*args, **kwargs):
            start = time.perf_counter()
            parsed = await original(*args, **kwargs)
            timers.add("framing_read", time.perf_counter() - start)
            if parsed is not None:
                timers.bump("requests")
            return parsed
        return timed

    def keying(original):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                timers.add("key", elapsed)
                if getattr(local, "in_lookup", False):
                    local.key_inside += elapsed
        return timed

    def looking_up(original):
        def timed(*args, **kwargs):
            local.in_lookup, local.key_inside = True, 0.0
            start = time.perf_counter()
            try:
                hits, misses = original(*args, **kwargs)
            finally:
                local.in_lookup = False
            timers.add("lookup", time.perf_counter() - start - local.key_inside)
            timers.bump("trials_hit", len(hits))
            return hits, misses
        return timed

    def dispatching(original):
        # Pool round trip of one trial; the job's own ``elapsed_s`` is
        # its execution time in the worker process.
        async def timed(*args, **kwargs):
            start = time.perf_counter()
            payload = await original(*args, **kwargs)
            timers.add("dispatch", time.perf_counter() - start)
            if "elapsed_s" in payload:
                timers.add("execute", payload["elapsed_s"])
            return payload
        return timed

    def connecting(original):
        async def counted(*args, **kwargs):
            timers.bump("connections")
            return await original(*args, **kwargs)
        return counted

    patch(server_mod, "read_http_request", reading, undo)
    patch(server_mod, "write_json_response", writing, undo)
    patch(server_mod, "parse_simulate_request",
          lambda f: timers.wrap("parse", f), undo)
    patch(server_mod, "simulate_response",
          lambda f: timers.wrap("encode", f), undo)
    patch(CacheFront, "key_for", keying, undo)
    patch(CacheFront, "lookup_trials", looking_up, undo)
    patch(CacheFront, "store_trial",
          lambda f: timers.wrap("store_write", f), undo)
    patch(SimulationServer, "_execute", dispatching, undo)
    patch(SimulationServer, "_on_connection", connecting, undo)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--stats-out")
    args = parser.parse_args(argv)

    _die_with_parent()
    use_program(checkout_root())
    from repro.serve.server import ServeConfig, SimulationServer

    timers = Timers()
    undo: list = []
    if args.trace:
        try:
            install_timers(timers, undo)
        except ProbeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
    server = SimulationServer(ServeConfig(
        host="127.0.0.1", port=0, workers=POOL_WORKERS,
        cache_dir=args.cache_dir, deadline_s=120.0,
    ))
    asyncio.run(server.run(
        install_signal_handlers=True,
        on_ready=lambda: print(f"port {server.port}", flush=True),
    ))
    if args.stats_out:
        Path(args.stats_out).write_text(json.dumps(timers.snapshot()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
