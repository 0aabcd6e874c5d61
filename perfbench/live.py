"""The live-wire workload: real loopback TCP against the three exp1 entry plans.

The benchmark starts one server child (:mod:`perfbench.live_server`)
per dialect and drives them from this process, on one thread, with at
most ``CONNECTIONS`` requests open at once:

1. **set-up** — each child's wall time from start until its listeners
   are bound: the median of the serving child's start and the spare
   starts made between rounds (a child started, then stopped once
   bound).  The serving child then waits until the R-GMA producer
   buffers hold their full 1000-row history (the rate keeps falling
   until then); that fill is paced by the model clock's sleeps, so it is
   reported apart, as ``rgma.buffer_fill_s``, and not in ``setup_s``;
2. **rounds** — the run is cut into ``ROUNDS`` rounds; in each, every
   dialect in turn gets a short closed loop and then a short open loop.
   Only the dialect under load runs: the other children are stopped
   (``SIGSTOP``) so their background publishers take no CPU.  Spreading
   each dialect over the whole run keeps one slow stretch of a shared
   host from landing on a single dialect;
   Each round is bracketed by host-speed calibrations on the server's
   and the client's CPU and its samples are taken at reference speed
   (:class:`perfbench.common.Calibrator`).  What host noise is left
   only ever slows a round, so the metrics use the fastest half of each
   dialect's rounds, ranked by the round's closed-loop rate, and every
   sample of those rounds;
3. **closed loop** — ``CONNECTIONS`` clients, each sending its next
   request when the previous one completes; ``req_per_s`` is the median
   rate over batches of ``BATCH`` consecutive completions, in rounds;
4. **open loop** — Poisson arrivals at a fixed rate per dialect, drawn
   from the seed; each latency is timed from when the request was *due*,
   so a stall counts against every request queued behind it.  The run is
   invalid if the generator ends a round more than ``BEHIND_S`` late.

A traced run traces the closed loop of every other round.  Its
per-layer totals are divided by the requests the closed loop completed
in those windows and reported per ``PASS_REQUESTS`` requests of each
dialect, the live counterpart of a DES pass.

Model time runs at ``TIME_SCALE`` wall seconds per model second, so
modelled sleeps are sub-millisecond and server CPU sets the rate, while
the R-GMA publisher and Hawkeye advertiser fire every few milliseconds.

Every response is checked: it must parse, carry a count above zero, and
have exactly the body length its header announced (LDIF entries, ClassAd
lines and SQL rows are counted against the announced value).
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import signal
import sys
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

from perfbench import common

HOST = "127.0.0.1"
TIME_SCALE = 1e-4
CONNECTIONS = 2
# Completions per closed-loop rate sample (a few per round per dialect).
BATCH = {"mds": 50, "hawkeye": 25, "rgma": 10}
PASS_REQUESTS = 100  # a live "pass": this many closed-loop requests per dialect
BEHIND_S = 0.25
READY_TIMEOUT_S = 120.0
EXCHANGE_TIMEOUT_S = 10.0  # a reply slower than this counts as failed
ROUNDS = 12
WARM_S = 0.05  # closed-loop warm-up after a child resumes (checked, not timed)

SYSTEMS = {"mds": "mds-gris-cache", "hawkeye": "hawkeye-agent", "rgma": "rgma-ps-lucky"}
# Share of the run's measured time per dialect; R-GMA answers ~50
# requests/s, so it gets more time to collect enough samples.
SHARE = {"mds": 0.2, "hawkeye": 0.2, "rgma": 0.6}
# Open-loop rates, a fifth to two fifths of each dialect's closed-loop
# capacity on a 2-core x86-64 host, so the queue stays short.
OPEN_RATE = {"mds": 300.0, "hawkeye": 200.0, "rgma": 20.0}
# Share of a dialect's round spent in the closed loop (rest: open loop).
CLOSED_SHARE = 0.4

_REQUEST = {
    "mds": b'SEARCH {"filter":"(objectclass=*)"}\n',
    "hawkeye": b'QUERY {"query":"status"}\n',
}
_SQL = b'{"sql":"SELECT * FROM cpuLoad"}'
_REQUEST["rgma"] = (
    b"POST /query HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\n"
    b"Content-Length: %d\r\n\r\n%s" % (len(_SQL), _SQL)
)


class BadResponse(Exception):
    """A response that does not parse or does not match its own header."""


async def _read_line_dialect(reader: asyncio.StreamReader, dialect: str) -> None:
    header = (await reader.readline()).decode("utf-8", "replace").rstrip("\n")
    if not header.startswith("OK "):
        raise BadResponse(f"{dialect}: {header[:120]!r}")
    head, _, nbytes = header.rpartition(" ")
    try:
        value = json.loads(head[3:])
        body = await reader.readexactly(int(nbytes))
    except (ValueError, asyncio.IncompleteReadError) as exc:
        raise BadResponse(f"{dialect}: bad frame {exc}") from exc
    if await reader.read(1):
        raise BadResponse(f"{dialect}: more body than the header announced")
    if dialect == "mds":
        count = value.get("entries", 0)
        found = body.count(b"\ndn: ") + body.startswith(b"dn: ")
    else:
        count = value.get("attrs", 0)
        found = body.count(b"\n") + 1 if body else 0
    if count <= 0 or found != count:
        raise BadResponse(f"{dialect}: value {value} but body holds {found}")


async def _read_http(reader: asyncio.StreamReader) -> None:
    status = (await reader.readline()).decode("latin-1").strip()
    if status != "HTTP/1.1 200 OK":
        raise BadResponse(f"rgma: {status[:120]!r}")
    headers = {}
    while True:
        line = (await reader.readline()).decode("latin-1")
        if line in ("\r\n", "\n", ""):
            break
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    try:
        rows = json.loads(headers["x-repro-value"])["rows"]
        body = await reader.readexactly(int(headers["content-length"]))
    except (KeyError, ValueError, TypeError, asyncio.IncompleteReadError) as exc:
        raise BadResponse(f"rgma: bad response {exc!r}") from exc
    if await reader.read(1):
        raise BadResponse("rgma: more body than Content-Length")
    lines = body.count(b"\n")
    if rows <= 0 or lines != rows + 1:
        raise BadResponse(f"rgma: {rows} rows announced, body has {lines - 1}")


async def exchange(port: int, dialect: str) -> None:
    """One request on a fresh connection (the study's harness did the same)."""
    reader, writer = await asyncio.open_connection(HOST, port)
    try:
        writer.write(_REQUEST[dialect])
        reply = _read_http(reader) if dialect == "rgma" else _read_line_dialect(reader, dialect)
        await asyncio.wait_for(reply, EXCHANGE_TIMEOUT_S)
    finally:
        writer.close()


@dataclass
class DialectStats:
    """Everything measured for one dialect over a run."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    # Untraced rounds: (closed-loop batch rates, open-loop latencies).
    rounds: list[tuple[list[float], list[float]]] = field(default_factory=list)
    traced_batch_rates: list[float] = field(default_factory=list)
    lags_s: list[float] = field(default_factory=list)
    behind_s: float = 0.0
    setups_s: list[float] = field(default_factory=list)
    compile_s: float = 0.0
    fill_s: float = 0.0
    rss_mb: float = 0.0
    # Traced windows: the child's per-layer totals, and the client's view.
    traced_wall_s: float = 0.0
    traced_self_s: Counter = field(default_factory=Counter)
    traced_calls: Counter = field(default_factory=Counter)
    traced_cache: Counter = field(default_factory=Counter)
    traced_refused: int = 0
    server_s: float = 0.0
    server_requests: int = 0
    client_s: float = 0.0
    client_requests: int = 0

    def fastest_rounds(self) -> tuple[list[float], list[float]]:
        """Batch rates and latencies of the fastest half of the untraced rounds."""
        ranked = sorted(self.rounds, key=lambda r: common.median(r[0]), reverse=True)
        kept = ranked[: (len(ranked) + 1) // 2]
        return [x for r in kept for x in r[0]], [x for r in kept for x in r[1]]

    async def timed(self, port: int, dialect: str, since: float) -> float | None:
        """One checked exchange; its latency from ``since``, or None if it failed."""
        self.attempted += 1
        try:
            await exchange(port, dialect)
        except (BadResponse, OSError, asyncio.IncompleteReadError, asyncio.TimeoutError) as exc:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"{dialect}: {exc!r}")
            return None
        return perf_counter() - since

    def add_window(self, window: dict, latencies: list[float]) -> None:
        """Add one traced window: the child's ``trace off`` reply and the
        client latencies of the requests completed in it."""
        self.traced_wall_s += window["wall_s"]
        self.traced_self_s.update(window["self_s"])
        self.traced_calls.update(window["calls"])
        self.traced_cache.update(window["cache"])
        self.traced_refused += window["refused"]
        self.server_s += window["server_s"]
        self.server_requests += window["server_requests"]
        self.client_s += sum(latencies)
        self.client_requests += len(latencies)


async def closed_loop(
    port: int, dialect: str, seconds: float, stats: DialectStats
) -> tuple[list[float], list[float]]:
    """``CONNECTIONS`` back-to-back clients; returns batch rates and latencies.

    Runs for ``seconds``, and on until one ``BATCH`` has completed.
    """
    done: list[float] = []
    latencies: list[float] = []
    batch = BATCH[dialect]
    end = perf_counter() + seconds
    give_up = end + 10 * seconds + 1.0

    async def client() -> None:
        while (perf_counter() < end or len(done) <= batch) and perf_counter() < give_up:
            latency = await stats.timed(port, dialect, perf_counter())
            if latency is not None:
                done.append(perf_counter())
                latencies.append(latency)

    await asyncio.gather(*(client() for _ in range(CONNECTIONS)))
    times = sorted(done)
    rates = [batch / (times[i + batch] - times[i]) for i in range(0, len(times) - batch, batch)]
    return rates, latencies


async def open_loop(
    port: int, dialect: str, seconds: float, rng: random.Random, stats: DialectStats
) -> list[float]:
    """Poisson arrivals for ``seconds``; returns latencies timed from the due time."""
    rate = OPEN_RATE[dialect]
    slots = asyncio.Semaphore(CONNECTIONS)
    tasks: list[asyncio.Task] = []
    latencies: list[float] = []
    lags: list[float] = []

    async def one(due: float) -> None:
        try:
            latency = await stats.timed(port, dialect, due)
            if latency is not None:
                latencies.append(latency)
        finally:
            slots.release()

    start = perf_counter()
    offset = rng.expovariate(rate)
    while offset < seconds:
        due = start + offset
        wait = due - perf_counter()
        if wait > 0:
            await asyncio.sleep(wait)
        await slots.acquire()
        lags.append(perf_counter() - due)
        tasks.append(asyncio.ensure_future(one(due)))
        offset += rng.expovariate(rate)
    await asyncio.gather(*tasks)
    if lags:
        stats.behind_s = max(stats.behind_s, max(lags[-max(1, len(lags) // 10):]))
    stats.lags_s.extend(lags)
    return latencies


class Child:
    """One server child process and its line-oriented control channel."""

    def __init__(self, dialect: str, seed: int, probes: bool) -> None:
        self.dialect = dialect
        self.seed = seed
        self.probes = probes
        self.proc: asyncio.subprocess.Process | None = None

    async def start(self) -> dict:
        """Start the child; returns its ``bound`` report."""
        args = [
            sys.executable,
            str(common.BENCH_DIR / "live_server.py"),
            "--system", SYSTEMS[self.dialect],
            "--seed", str(self.seed),
        ]
        if self.probes:
            args.append("--probes")
        self.proc = await asyncio.create_subprocess_exec(
            *args,
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            cwd=str(common.ROOT),
        )
        return await self.expect("bound", READY_TIMEOUT_S)

    async def expect(self, event: str, timeout: float = 30.0) -> dict:
        line = await asyncio.wait_for(self.proc.stdout.readline(), timeout)
        if not line:
            raise RuntimeError(f"{self.dialect} server exited before {event!r}")
        message = json.loads(line)
        if message.get("event") != event:
            raise RuntimeError(f"{self.dialect} server sent {message} instead of {event!r}")
        return message

    async def command(self, text: str, event: str, timeout: float = 30.0) -> dict:
        self.proc.stdin.write(text.encode() + b"\n")
        await self.proc.stdin.drain()
        return await self.expect(event, timeout)

    async def stop(self) -> dict:
        """Stop the deployment; returns the child's ``stopped`` report."""
        stopped = await self.command("stop", "stopped")
        await asyncio.wait_for(self.proc.wait(), 30.0)
        return stopped

    def pause(self) -> None:
        os.kill(self.proc.pid, signal.SIGSTOP)

    def resume(self) -> None:
        os.kill(self.proc.pid, signal.SIGCONT)

    async def close(self) -> None:
        """Kill the child if it is still running, then wait for it."""
        if self.proc is None:
            return
        if self.proc.returncode is None:
            self.proc.kill()
            self.resume()  # a stopped process dies only once continued
        await self.proc.wait()


async def _calibrate(child: Child, calibrate: common.Calibrator) -> float:
    """Host speed on the client's and the server's CPU (mean of both)."""
    server = (await child.command("calibrate", "calibrated"))["seconds"]
    return (calibrate() + server) / 2


async def _round(
    child: Child, port: int, seconds: float, traced: bool, rng, stats, calibrate
) -> None:
    dialect = child.dialect
    await closed_loop(port, dialect, WARM_S, stats)
    before = await _calibrate(child, calibrate)
    if traced:
        await child.command("trace on", "trace")
    rates, closed_latencies = await closed_loop(port, dialect, CLOSED_SHARE * seconds, stats)
    if traced:
        stats.add_window(await child.command("trace off", "trace"), closed_latencies)
    open_latencies = await open_loop(port, dialect, (1 - CLOSED_SHARE) * seconds, rng, stats)
    if not rates:
        raise RuntimeError(f"{dialect}: a round completed fewer than {BATCH[dialect]} requests")
    calibration = (before + await _calibrate(child, calibrate)) / 2
    # A rate is an inverse time, so it scales the other way.
    rates = [rate / common.at_reference_speed(1.0, calibration) for rate in rates]
    if traced:
        stats.traced_batch_rates.extend(rates)
    else:
        latencies = [common.at_reference_speed(x, calibration) for x in open_latencies]
        stats.rounds.append((rates, latencies))


async def _run_all(seed: int, seconds: float, trace: bool) -> dict[str, DialectStats]:
    """Start every child, then interleave the dialects over ``ROUNDS`` rounds.

    The whole run, set-up included, takes about ``seconds``: the rounds
    get what set-up left, less the spare starts and a fifth for
    calibrations and warm-ups.  Every round ends with a spare start of
    one dialect's child, stopped once bound, so each dialect's set-up
    time is a median over starts spread across the run.  With
    ``trace``, odd rounds are traced and even rounds are not, so the
    tracing overhead is measured in the same run.
    """
    started_run = perf_counter()
    stats = {d: DialectStats() for d in common.DIALECTS}
    children: dict[str, Child] = {}
    spares: list[Child] = []
    ports = {}
    rngs = {d: random.Random(f"{seed}:{d}") for d in common.DIALECTS}
    calibrate = common.Calibrator()

    async def start(dialect: str) -> tuple[Child, dict]:
        child = Child(dialect, seed, probes=trace)
        spares.append(child)
        started = perf_counter()
        bound = await child.start()
        stats[dialect].setups_s.append(perf_counter() - started)
        return child, bound

    try:
        for dialect in common.DIALECTS:
            child, bound = await start(dialect)
            spares.remove(child)
            children[dialect] = child
            stats[dialect].compile_s = bound["compile_s"]
            ready = await child.command("fill", "ready", READY_TIMEOUT_S)
            stats[dialect].fill_s = ready["fill_s"]
            ports[dialect] = bound["port"]
            child.pause()
        spare_s = ROUNDS * common.median([s for r in stats.values() for s in r.setups_s])
        elapsed = perf_counter() - started_run
        measure = max(0.5 * seconds, 0.8 * seconds - elapsed - spare_s)
        for index in range(ROUNDS):
            for dialect, child in children.items():
                child.resume()
                share = SHARE[dialect] * measure / ROUNDS
                traced = trace and index % 2 == 1
                await _round(
                    child, ports[dialect], share, traced, rngs[dialect], stats[dialect], calibrate
                )
                child.pause()
            spare, _bound = await start(common.DIALECTS[index % len(common.DIALECTS)])
            await spare.stop()
        for dialect, child in children.items():
            child.resume()
            stats[dialect].rss_mb = (await child.stop())["rss_mb"]
    finally:
        for child in [*children.values(), *spares]:
            await child.close()
    return stats


def run_workload(seed: int, seconds: float, trace: bool) -> common.Result:
    runs = asyncio.run(_run_all(seed, seconds, trace))
    res = common.Result()
    for run in runs.values():
        res.attempted += run.attempted
        res.failed += run.failed
        res.problems.extend(run.problems)
    res.detail["valid"] = all(run.behind_s <= BEHIND_S for run in runs.values())
    res.detail["generator_behind_s"] = {d: round(r.behind_s, 4) for d, r in runs.items()}
    res.detail["open_loop_samples"] = {
        d: sum(len(latencies) for _rates, latencies in r.rounds) for d, r in runs.items()
    }
    res.metrics.update(_per_layer(runs) if trace else _end_to_end(runs))
    return res


def _end_to_end(runs: dict[str, DialectStats]) -> dict[str, tuple[float, str]]:
    kept = {d: r.fastest_rounds() for d, r in runs.items()}
    rates = {d: common.median(batch_rates) for d, (batch_rates, _) in kept.items()}
    metrics: dict[str, tuple[float, str]] = {
        "pass_s": (sum(PASS_REQUESTS / rate for rate in rates.values()), "s"),
        "setup_s": (sum(common.median(r.setups_s) for r in runs.values()), "s"),
        "peak_rss_mb": (max(r.rss_mb for r in runs.values()), "MB"),
    }
    for dialect, (_, latencies) in kept.items():
        latencies_ms = [s * 1e3 for s in latencies]
        tail = common.TAILS[dialect]
        metrics[f"req_per_s.{dialect}"] = (rates[dialect], "1/s")
        metrics[f"latency_p50_ms.{dialect}"] = (common.median(latencies_ms), "ms")
        metrics[f"latency_p{tail}_ms.{dialect}"] = (
            common.quantile(latencies_ms, tail / 100),
            "ms",
        )
    return metrics


def _per_layer(runs: dict[str, DialectStats]) -> dict[str, tuple[float, str]]:
    """Per-layer totals of the traced windows, per live pass.

    Each dialect's totals are scaled to ``PASS_REQUESTS`` of the
    closed-loop requests completed in its windows, then summed, so a
    figure does not grow with the window length or the serving rate.
    """
    self_s: Counter = Counter()
    calls: Counter = Counter()
    cache: Counter = Counter()
    wall = refused = 0.0
    for run in runs.values():
        scale = PASS_REQUESTS / run.client_requests
        wall += run.traced_wall_s * scale
        refused += run.traced_refused * scale
        self_s.update({name: value * scale for name, value in run.traced_self_s.items()})
        calls.update({name: value * scale for name, value in run.traced_calls.items()})
        cache += run.traced_cache
    metrics = common.layer_metrics(self_s, calls, 1, wall)
    # The traced self time of the compile, once per deployment as a DES
    # pass compiles each of its points once.
    metrics["core.topology.compile_s"] = (sum(r.compile_s for r in runs.values()), "s")
    metrics["live.runtime.calls"] = (calls["live.runtime"], "count")
    metrics["live.runtime.refused"] = (refused, "count")
    metrics["rgma.buffer_fill_s"] = (runs["rgma"].fill_s, "s")
    for dialect, run in runs.items():
        # Closed-loop latency (timed from the send) minus the time inside
        # LiveService.request: framing, socket I/O and event-loop
        # scheduling on both sides.
        server_mean = run.server_s / max(1, run.server_requests)
        client_mean = run.client_s / run.client_requests
        metrics[f"live.protocols.{dialect}.self_s"] = (
            (client_mean - server_mean) * PASS_REQUESTS,
            "s",
        )
    metrics.update(common.cache_hit_ratios(cache))
    lag_ms = [lag * 1e3 for r in runs.values() for lag in r.lags_s]
    metrics["loadgen.lag_p99_ms"] = (common.quantile(lag_ms, 0.99), "ms")
    untraced = sum(
        PASS_REQUESTS / common.median([x for rates, _ in r.rounds for x in rates])
        for r in runs.values()
    )
    traced = sum(PASS_REQUESTS / common.median(r.traced_batch_rates) for r in runs.values())
    metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
    # The simulator is never imported on the live plane.
    for name in ("sim.events", "sim.rpc.arrived", "sim.rpc.refused", "sim.rpc.completed"):
        metrics[name] = (0, "count")
    return metrics
