"""Server child of the live-wire workload: one exp1 deployment on loopback.

Started by :mod:`perfbench.live`, one process per dialect::

    python3 perfbench/live_server.py --system rgma-ps-lucky --seed 1 [--probes]

It compiles the plan on the asyncio runtime, binds the listeners and
reports ``{"event": "bound", ...}`` as one JSON line on standard
output.  It then obeys one command per line on standard input:

* ``fill`` — wait until every R-GMA producer buffer holds its full
  history, then report ``ready``;
* ``calibrate`` — time the host-speed calibration here, on the
  server's CPU, and report it;
* ``trace on`` / ``trace off`` (with ``--probes``) — install the span
  probes and start a traced window / remove them and report the
  window's per-layer totals;
* ``stop`` (or end of input) — stop the deployment, report counters and
  peak memory, and exit.

With ``--probes`` the compile is traced too, and ``bound`` carries the
self time of the compile span (``core.topology.compile``).
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import pathlib
import sys
from collections import Counter
from time import perf_counter

if __package__ in (None, ""):  # `python3 perfbench/live_server.py`
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from perfbench import common
from perfbench.live import TIME_SCALE
from perfbench.trace import Probes, SpanRecorder, install_substrate_probes

FILL_TIMEOUT_S = 60.0


def emit(event: str, **fields) -> None:
    sys.stdout.write(json.dumps({"event": event, **fields}) + "\n")
    sys.stdout.flush()


async def wait_for_full_buffers(dep) -> int:
    """Block until every producer table is at its history bound; rows held."""
    from repro.rgma.producer_servlet import ProducerServlet

    servlets = [o for o in dep.objects.values() if isinstance(o, ProducerServlet)]
    deadline = perf_counter() + FILL_TIMEOUT_S
    while True:
        rows = [
            (len(s.db.table(table)), s.history_rows)
            for s in servlets
            for table in {p.table for p in s.producers}
        ]
        if all(held >= bound for held, bound in rows):
            return sum(held for held, _bound in rows)
        if perf_counter() > deadline:
            raise RuntimeError(f"producer buffers still filling after {FILL_TIMEOUT_S} s: {rows}")
        await asyncio.sleep(0.005)


class Tracing:
    """The child's traced windows: probes in, totals out."""

    def __init__(self) -> None:
        self.rec = SpanRecorder()
        self.dep = None
        self.probes: Probes | None = None
        self.started = 0.0
        self.cache_before = Counter()
        self.refused_before = 0
        # Request id -> wall seconds inside the entry LiveService.request.
        self.server_s: dict[int, float] = {}

    def _done(self, request, elapsed: float) -> None:
        if request is not None and elapsed > self.server_s.get(request, 0.0):
            self.server_s[request] = elapsed

    def _refused(self) -> int:
        return sum(s.refusals for s in self.dep.services.values()) if self.dep else 0

    def start(self, dep=None) -> None:
        """Probe the substrates, and either the compile (no ``dep`` yet) or ``dep``."""
        from repro.live import protocols
        from repro.live.runtime import AsyncioRuntime, LiveService

        self.dep = dep
        probes = self.probes = Probes(self.rec)
        if dep is None:
            compile_ = AsyncioRuntime.__dict__["compile"]
            probes.set(
                AsyncioRuntime, "compile", probes.timed_call("core.topology.compile", compile_)
            )
        else:
            request = LiveService.__dict__["request"]
            probes.set(
                LiveService,
                "request",
                probes.timed_resumes("live.runtime", request, on_done=self._done),
            )
            for attr in ("_serve_line", "_serve_http"):
                probes.function(
                    protocols,
                    attr,
                    lambda fn: probes.timed_resumes("live.protocols", fn, new_request=True),
                )
            for service in dep.services.values():
                spec = service.spec
                handle = probes.timed_resumes("core.kernels", spec.handle)
                probes.set(service, "spec", dataclasses.replace(spec, handle=handle))
        install_substrate_probes(probes)
        self.rec.reset_totals()
        self.server_s.clear()
        self.cache_before = common.cache_counts()
        self.refused_before = self._refused()
        self.started = perf_counter()

    def stop(self) -> dict:
        wall = perf_counter() - self.started
        self.probes.restore()
        self.probes = None
        return {
            "wall_s": wall,
            "self_s": dict(self.rec.self_s),
            "calls": dict(self.rec.calls),
            "refused": self._refused() - self.refused_before,
            "server_s": sum(self.server_s.values()),
            "server_requests": len(self.server_s),
            "cache": dict(common.cache_counts() - self.cache_before),
        }


async def serve(args: argparse.Namespace) -> None:
    from repro.core.topology.catalog import exp1_plan
    from repro.live.runtime import AsyncioRuntime

    tracing = Tracing() if args.probes else None
    plan = exp1_plan(args.system, args.seed)
    if tracing is not None:
        tracing.start()
    dep = AsyncioRuntime(time_scale=TIME_SCALE).compile(plan)
    compile_s = tracing.stop()["self_s"]["core.topology.compile"] if tracing else None
    loop = asyncio.get_running_loop()
    commands = asyncio.StreamReader()
    await loop.connect_read_pipe(lambda: asyncio.StreamReaderProtocol(commands), sys.stdin)
    calibrate = common.Calibrator()
    await dep.start()
    try:
        emit("bound", port=dep.ports[dep.entry], compile_s=compile_s)
        while True:
            command = (await commands.readline()).decode().strip()
            if command in ("", "stop"):
                break
            if command == "fill":
                fill_start = perf_counter()
                rows = await wait_for_full_buffers(dep)
                emit("ready", fill_s=perf_counter() - fill_start, rows=rows)
            elif command == "calibrate":
                emit("calibrated", seconds=calibrate())
            elif tracing is not None and command == "trace on":
                tracing.start(dep)
                emit("trace", on=True)
            elif tracing is not None and command == "trace off":
                emit("trace", on=False, **tracing.stop())
            else:
                raise RuntimeError(f"unknown command {command!r}")
    finally:
        if tracing is not None and tracing.probes is not None:
            tracing.probes.restore()
        await dep.stop()
    if tracing is not None:
        tracing.rec.write(common.out_dir() / f"spans-live-{args.system}-seed{args.seed}.jsonl")
    services = dep.services.values()
    emit(
        "stopped",
        rss_mb=common.peak_rss_mb(),
        requests=sum(s.requests for s in services),
        refused=sum(s.refusals for s in services),
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--system", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--probes", action="store_true")
    args = parser.parse_args(argv)
    common.prepare_imports()
    asyncio.run(serve(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
