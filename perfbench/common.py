"""Shared pieces of the benchmark: imports, statistics, metric names, output."""

from __future__ import annotations

import json
import os
import pathlib
import resource
import sys
import typing as _t
from collections import Counter
from dataclasses import dataclass, field
from heapq import heappop, heappush
from time import perf_counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = pathlib.Path(__file__).resolve().parent

DEFAULT_SEED = 1
DIALECTS = ("mds", "hawkeye", "rgma")
# The tail latency percentile reported per dialect.  Each has at least
# ten open-loop samples beyond it in the rounds kept.  Higher ones (p99
# for mds and hawkeye, p90 for R-GMA's ~90 kept samples) spread 25-50 %
# between runs on a shared host, past any usable bound.
TAILS = {"mds": 90, "hawkeye": 90, "rgma": 75}

# Environment switches that would let a cached or parallel result pass
# for a fast program, or swap the query plane under test.
ISOLATED_ENV = ("REPRO_POINTCACHE", "REPRO_JOBS", "REPRO_QUERY_COMPILE", "REPRO_FULL")

# Span name -> per-layer metric carrying its self time.
SELF_TIME_METRICS = {
    "sim.engine": "sim.engine.self_s",
    "sim.rpc": "sim.rpc.self_s",
    "core.kernels": "core.kernels.self_s",
    "core.topology.compile": "core.topology.compile_s",
    "core.runner.new_run": "core.runner.new_run_s",
    "live.runtime": "live.runtime.self_s",
    "live.protocols": "live.protocols.server.self_s",
}
# Span names reported as both ``<name>.calls`` and ``<name>.self_s``.
CALL_LAYERS = (
    "ldap.search",
    "ldap.write",
    "ldap.dn_parse",
    "ldap.ldif",
    "mds.provider",
    "mds.giis_query",
    "mds.gris_search",
    "relational.query",
    "relational.encode",
    "classad.query",
    "classad.advertise",
    "classad.serialize",
    "hawkeye.ingest",
    "hawkeye.advertise",
    "rgma.publish",
)


def end_to_end_units() -> dict[str, str]:
    units = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    for dialect in DIALECTS:
        units[f"req_per_s.{dialect}"] = "1/s"
        units[f"latency_p50_ms.{dialect}"] = "ms"
        units[f"latency_p{TAILS[dialect]}_ms.{dialect}"] = "ms"
    return units


def per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for metric in SELF_TIME_METRICS.values():
        units[metric] = "s"
    for layer in CALL_LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update(
        {
            "sim.events": "count",
            "sim.rpc.arrived": "count",
            "sim.rpc.refused": "count",
            "sim.rpc.completed": "count",
            "queryplane.ldap.cache_hit_ratio": "ratio",
            "queryplane.sql.cache_hit_ratio": "ratio",
            "live.runtime.calls": "count",
            "live.runtime.refused": "count",
            "rgma.buffer_fill_s": "s",
            "loadgen.lag_p99_ms": "ms",
            "trace.overhead_ratio": "ratio",
            "trace.unattributed_ratio": "ratio",
            "trace.wall_s": "s",
        }
    )
    for dialect in DIALECTS:
        units[f"live.protocols.{dialect}.self_s"] = "s"
    return units


def prepare_imports() -> dict[str, _t.Any]:
    """Import ``repro`` from this checkout's ``src/`` with isolated settings.

    Raises :class:`SystemExit` when the checkout has no source tree, so
    the benchmark never measures some other installed copy.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {SRC}")
    for name in ISOLATED_ENV:
        os.environ.pop(name, None)
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import repro
    from repro import queryplane
    from repro.core import parallel

    origin = pathlib.Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"perfbench: imported repro from {origin}, not {SRC}")
    return {
        "point_cache": "off" if parallel.default_cache() is None else "on",
        "jobs": parallel.default_jobs(),
        "query_plane": "compiled" if queryplane.compiled_default() else "interpreted",
        "python": sys.version.split()[0],
    }


def median(values: _t.Sequence[float]) -> float:
    return quantile(values, 0.5)


def quantile(values: _t.Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (numpy's default method)."""
    data = sorted(values)
    if not data:
        raise ValueError("quantile of no samples")
    pos = (len(data) - 1) * q
    low = int(pos)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (pos - low)


def ratio(part: float, whole: float) -> float:
    """``part / whole``; 1.0 when nothing was attempted (nothing missed)."""
    return part / whole if whole else 1.0


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def out_dir() -> pathlib.Path:
    path = BENCH_DIR / "out"
    path.mkdir(exist_ok=True)
    return path


def cache_counts() -> Counter:
    """Hits and misses of the LDAP filter and SQL parse compile caches.

    Keys are ``<plane>.hits`` and ``<plane>.misses``; a window's counts
    are ``after - before``, and windows add up with ``+``.
    """
    from repro.ldap import compile as ldap_compile
    from repro.relational import sqlparser

    counts: Counter = Counter()
    for plane, info in (
        ("ldap", ldap_compile.compile_text.cache_info()),
        ("sql", sqlparser._parse_memo.cache_info()),
    ):
        counts[f"{plane}.hits"] = info.hits
        counts[f"{plane}.misses"] = info.misses
    return counts


def cache_hit_ratios(counts: _t.Mapping[str, int]) -> dict[str, tuple[float, str]]:
    """``queryplane.<plane>.cache_hit_ratio`` from :func:`cache_counts` deltas."""
    out = {}
    for plane in ("ldap", "sql"):
        hits = counts.get(f"{plane}.hits", 0)
        misses = counts.get(f"{plane}.misses", 0)
        out[f"queryplane.{plane}.cache_hit_ratio"] = (ratio(hits, hits + misses), "ratio")
    return out


def layer_metrics(
    self_s: _t.Mapping[str, float],
    calls: _t.Mapping[str, int],
    passes: int,
    wall_s: float,
) -> dict[str, tuple[float, str]]:
    """Per-pass self times and call counts, plus the unattributed share.

    ``wall_s`` is the traced wall time over all ``passes``; the self
    times of every span add up to the root spans' total, and the rest of
    the wall time is reported as ``trace.unattributed_ratio``.
    """
    out: dict[str, tuple[float, str]] = {}
    for span, metric in SELF_TIME_METRICS.items():
        out[metric] = (self_s.get(span, 0.0) / passes, "s")
    for layer in CALL_LAYERS:
        out[f"{layer}.calls"] = (calls.get(layer, 0) / passes, "count")
        out[f"{layer}.self_s"] = (self_s.get(layer, 0.0) / passes, "s")
    attributed = sum(self_s.values())
    out["trace.wall_s"] = (wall_s / passes, "s")
    out["trace.unattributed_ratio"] = (1.0 - attributed / wall_s, "ratio")
    return out


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    detail: dict[str, _t.Any] = field(default_factory=dict)

    def line(self, expected_units: dict[str, str], valid: bool = True) -> str:
        """The final JSON line; raises if a metric is missing or mislabelled."""
        got = {name: unit for name, (_value, unit) in self.metrics.items()}
        if got != expected_units:
            missing = sorted(set(expected_units) - set(got))
            extra = sorted(set(got) - set(expected_units))
            wrong = sorted(
                k for k in got.keys() & expected_units.keys() if got[k] != expected_units[k]
            )
            raise RuntimeError(
                f"metric set mismatch: missing {missing} extra {extra} units {wrong}"
            )
        correct = valid and self.failed == 0 and not self.problems and self.attempted > 0
        return json.dumps(
            {
                "correct": correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in sorted(self.metrics.items())
                },
            }
        )



# -- host-speed calibration ------------------------------------------------------
#
# On a shared host, neighbouring load slows every process by up to 2x,
# in stretches of seconds to tens of seconds, and no repetition inside a
# 40-second run averages that away.  So every timed sample is taken
# between two calibration readings and reported at reference speed,
# ``seconds * CAL_REF_S / calibration``.  The calibration is fixed
# pure-Python work shaped like the program's own (heap operations, dict
# updates, small objects, generators) plus scattered reads over a buffer
# larger than a core's private caches, since the program's heaps are
# and shared-cache pressure slows them most.  It runs none of the
# program's code: a change to the program moves the reported numbers,
# a busy host moves them far less.

CAL_REF_S = 0.006  # calibration time that defines "reference speed"
_SCATTER_BYTES = 8 << 20


class _Item:
    __slots__ = ("key", "label")

    def __init__(self, key: int, label: str) -> None:
        self.key = key
        self.label = label


class Calibrator:
    """Times the calibration work; one per process (it owns an 8 MiB buffer)."""

    ROUNDS = 5

    def __init__(self) -> None:
        self._buffer = bytearray(range(256)) * (_SCATTER_BYTES // 256)

    def _work(self) -> int:
        heap: list[tuple[int, int, _Item]] = []
        counts: dict[tuple[str, int], int] = {}
        for i in range(800):
            heappush(heap, ((i * 7919) % 1013, i, _Item(i, f"n{i}")))
            key = ("k", i % 97)
            counts[key] = counts.get(key, 0) + 1
        total = 0
        while heap:
            total += heappop(heap)[2].key

        def items(n: int):
            for i in range(n):
                yield _Item(i, str(i))

        total += sum(len(item.label) for item in items(800)) + len(counts)
        buffer, mask, index = self._buffer, _SCATTER_BYTES - 1, 1
        for _ in range(10000):
            index = (index * 1103515245 + 12345) & mask
            total += buffer[index]
        return total

    def __call__(self) -> float:
        """Host speed now: the median of ``ROUNDS`` calibration rounds, in seconds."""
        times = []
        for _ in range(self.ROUNDS):
            start = perf_counter()
            self._work()
            times.append(perf_counter() - start)
        return median(times)


def at_reference_speed(seconds: float, calibration: float) -> float:
    return seconds * CAL_REF_S / calibration
