"""The two DES workloads: the paper's users axis and resources axis.

One *pass* runs every point of the workload serially through the
experiment modules' ``run_point`` with the bench windows (10 s warm-up,
30 s window); a run repeats passes until its time is used.  Each point
is timed between two host-speed calibrations and taken at reference
speed (:class:`perfbench.common.Calibrator`).  What noise is left
mostly lengthens a pass, while a calibration caught in a slow instant
shortens one, so a point's time is the lower quartile of its passes.  A
point is deterministic work with no per-request spread of its own, so a
dialect's latency percentiles all report the same number: the time of
the dialect's points.

Outputs are checked on every pass:

* each point's :class:`~repro.core.runner.PointResult` digest (summary,
  simulated events, crash flag) equals the first pass's, and at the
  default seed the digest recorded in ``digests.json``;
* every tracked service conserves requests:
  ``arrived == refused + completed + errors + dropped + open``.

``python3 perfbench/des.py`` re-records ``digests.json`` at the default
seed (do this only when a change is meant to alter simulated results).
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import pathlib
import sys
import typing as _t
from collections import Counter
from dataclasses import asdict, dataclass
from time import perf_counter

if __package__ in (None, ""):  # `python3 perfbench/des.py`
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from perfbench import common
from perfbench.trace import Probes, SpanRecorder, install_substrate_probes

DIGESTS = pathlib.Path(__file__).resolve().parent / "digests.json"
WARMUP, WINDOW = 10.0, 30.0
EXPERIMENTS = ("exp1", "exp2", "exp3", "exp4")

# (experiment module, system, x, dialect) per workload.
POINTS: dict[str, tuple[tuple[str, str, int, str], ...]] = {
    # The paper's 600-user point of every system (Figures 5-12).
    "des-users": (
        ("exp1", "mds-gris-cache", 600, "mds"),
        ("exp2", "mds-giis", 600, "mds"),
        ("exp2", "hawkeye-manager", 600, "hawkeye"),
        ("exp2", "rgma-registry-lucky", 600, "rgma"),
    ),
    # The largest surviving resource counts (Figures 13-20).  R-GMA has
    # no aggregate server, so its resources axis is exp3's producer count.
    "des-resources": (
        ("exp4", "mds-giis-part", 500, "mds"),
        ("exp4", "mds-giis-all", 200, "mds"),
        ("exp4", "hawkeye-manager", 1000, "hawkeye"),
        ("exp3", "rgma-ps", 90, "rgma"),
    ),
}


def point_key(exp: str, system: str, x: int) -> str:
    return f"{exp}/{system}@{x}"


def digest(result: _t.Any) -> str:
    """Stable digest of everything a figure reads from one point."""
    summary = {k: repr(v) for k, v in sorted(asdict(result.summary).items())}
    blob = json.dumps(
        [result.system, repr(result.x), summary, result.sim_events, result.crashed],
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


class PointMeter:
    """Measures each point from outside ``run_point``.

    It times ``new_run`` + ``compile_plan`` (the set-up share) and
    captures the :class:`~repro.core.runner.ScenarioRun` for the output
    checks.  It stays installed for every pass, untraced ones included
    (two clock reads per call); a traced pass opens spans around it.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.setup_s = 0.0
        self.run: _t.Any = None

    def install(self, probes: Probes) -> None:
        from repro.core import runner, topology

        for exp in EXPERIMENTS:  # bind the probes where run_point looks them up
            importlib.import_module(f"repro.core.experiments.{exp}")

        def timing(original, capture=False):
            def timed(*args, **kwargs):
                start = perf_counter()
                try:
                    value = original(*args, **kwargs)
                finally:
                    self.setup_s += perf_counter() - start
                if capture:
                    self.run = value
                return value

            return timed

        probes.function(runner, "new_run", lambda fn: timing(fn, capture=True))
        probes.function(topology, "compile_plan", timing)


def install_des_probes(probes: Probes) -> None:
    """Spans for the set-up calls, simulator, RPC and kernel-interpreter layers."""
    from repro.core import desruntime, runner, topology
    from repro.sim import rpc
    from repro.sim.engine import Simulator

    call = probes.timed_call
    probes.function(runner, "new_run", lambda fn: call("core.runner.new_run", fn))
    probes.function(topology, "compile_plan", lambda fn: call("core.topology.compile", fn))
    probes.set(Simulator, "run", call("sim.engine", Simulator.__dict__["run"]))
    probes.function(
        rpc, "_lifecycle", lambda fn: probes.timed_resumes("sim.rpc", fn, new_request=True)
    )
    serve = rpc.Service.__dict__["_serve"]
    probes.set(rpc.Service, "_serve", probes.timed_resumes("sim.rpc", serve))

    def wrap_kernel_service(original):
        def kernel_service(*args, **kwargs):
            service = original(*args, **kwargs)
            service.handler = probes.timed_resumes("core.kernels", service.handler)
            return service

        return kernel_service

    probes.function(desruntime, "kernel_service", wrap_kernel_service)
    install_substrate_probes(probes)


@dataclass
class PointSample:
    """One point of one pass."""

    dialect: str
    wall_s: float
    setup_s: float
    calibration_s: float
    events: int
    rpc: dict[str, int]
    digest: str
    failures: list[str]


def _conservation_errors(key: str, run: _t.Any) -> list[str]:
    errors = []
    for name, service in run.services.items():
        s = service.stats
        accounted = s.refused + s.completed + s.errors + s.dropped + service.concurrent
        if s.arrived != accounted:
            errors.append(f"{key}: service {name} arrived {s.arrived} != accounted {accounted}")
    return errors


def run_pass(
    points, seed: int, meter: PointMeter, calibrate: common.Calibrator
) -> dict[str, PointSample]:
    """Run every point once, timing each and checking its outputs."""
    out = {}
    for exp, system, x, dialect in points:
        module = importlib.import_module(f"repro.core.experiments.{exp}")
        key = point_key(exp, system, x)
        meter.reset()
        before = calibrate()
        start = perf_counter()
        result = module.run_point(system, x, seed=seed, warmup=WARMUP, window=WINDOW)
        wall = perf_counter() - start
        calibration = (before + calibrate()) / 2
        services = meter.run.services.values()
        failures = _conservation_errors(key, meter.run)
        if result.crashed:
            failures.append(f"{key}: crashed ({result.crash_reason})")
        out[key] = PointSample(
            dialect=dialect,
            wall_s=wall,
            setup_s=meter.setup_s,
            calibration_s=calibration,
            events=result.sim_events,
            rpc={
                name: sum(getattr(s.stats, name) for s in services)
                for name in ("arrived", "refused", "completed")
            },
            digest=digest(result),
            failures=failures,
        )
    return out


class _Checker:
    """Folds each pass's output checks into attempted/failed counts."""

    def __init__(self, res: common.Result, seed: int) -> None:
        self.res = res
        self.recorded = (
            json.loads(DIGESTS.read_text())["points"] if seed == common.DEFAULT_SEED else None
        )
        self.reference: dict[str, str] | None = None

    def __call__(self, samples: dict[str, PointSample]) -> None:
        if self.reference is None:
            self.reference = {key: s.digest for key, s in samples.items()}
            if self.recorded is not None:
                for key, s in samples.items():
                    if self.recorded.get(key) != s.digest:
                        s.failures.append(f"{key}: digest differs from digests.json")
        for key, s in samples.items():
            if s.digest != self.reference[key]:
                s.failures.append(f"{key}: digest differs from the first pass")
            self.res.attempted += 1
            self.res.failed += bool(s.failures)
            self.res.problems.extend(s.failures)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> common.Result:
    """Passes until ``seconds`` are used; every pass is checked.

    With ``trace`` the passes alternate untraced and traced, so the
    tracing overhead is measured in the same run as the layer numbers.
    """
    points = POINTS[name]
    res = common.Result()
    check = _Checker(res, seed)
    meter = PointMeter()
    calibrate = common.Calibrator()
    rec = SpanRecorder()
    untraced: list[dict[str, PointSample]] = []
    traced: list[dict[str, PointSample]] = []
    traced_wall = 0.0
    cache: Counter = Counter()

    with Probes(rec) as base:
        meter.install(base)
        deadline = perf_counter() + seconds
        longest = 0.0
        while True:
            gc.collect()
            start = perf_counter()
            if trace and len(untraced) > len(traced):
                with Probes(rec) as probes:
                    install_des_probes(probes)
                    before = common.cache_counts()
                    samples = run_pass(points, seed, meter, calibrate)
                    cache += common.cache_counts() - before
                traced_wall += perf_counter() - start
                traced.append(samples)
            else:
                samples = run_pass(points, seed, meter, calibrate)
                untraced.append(samples)
            longest = max(longest, perf_counter() - start)
            check(samples)
            done = not trace or (traced and len(traced) == len(untraced))
            if done and perf_counter() + longest > deadline:
                break

    res.detail["passes"] = {"untraced": len(untraced), "traced": len(traced)}
    if not trace:
        res.metrics.update(_end_to_end(untraced))
        return res
    res.metrics.update(common.layer_metrics(rec.self_s, rec.calls, len(traced), traced_wall))
    first = traced[0].values()
    res.metrics["sim.events"] = (sum(s.events for s in first), "count")
    for counter in ("arrived", "refused", "completed"):
        res.metrics[f"sim.rpc.{counter}"] = (sum(s.rpc[counter] for s in first), "count")
    res.metrics.update(common.cache_hit_ratios(cache))
    res.metrics["trace.overhead_ratio"] = (
        sum(_point_times(traced).values()) / sum(_point_times(untraced).values()),
        "ratio",
    )
    # The live plane is not part of a DES pass.
    res.metrics["live.runtime.calls"] = (0, "count")
    res.metrics["live.runtime.refused"] = (0, "count")
    res.metrics["rgma.buffer_fill_s"] = (0.0, "s")
    res.metrics["loadgen.lag_p99_ms"] = (0.0, "ms")
    for dialect in common.DIALECTS:
        res.metrics[f"live.protocols.{dialect}.self_s"] = (0.0, "s")
    rec.write(common.out_dir() / f"spans-{name}-seed{seed}.jsonl")
    return res


def _point_times(passes: list[dict[str, PointSample]]) -> dict[str, float]:
    """Each point's lower-quartile time over the passes, at reference speed."""
    return {
        key: common.quantile(
            [common.at_reference_speed(p[key].wall_s, p[key].calibration_s) for p in passes], 0.25
        )
        for key in passes[0]
    }


def _end_to_end(passes: list[dict[str, PointSample]]) -> dict[str, tuple[float, str]]:
    times = _point_times(passes)
    metrics: dict[str, tuple[float, str]] = {
        "pass_s": (sum(times.values()), "s"),
        # Set-up is repeated once per point and pass; its median is reported.
        "setup_s": (
            common.median(
                [
                    sum(common.at_reference_speed(s.setup_s, s.calibration_s) for s in p.values())
                    for p in passes
                ]
            ),
            "s",
        ),
        "peak_rss_mb": (common.peak_rss_mb(), "MB"),
    }
    first = passes[0]
    for dialect in common.DIALECTS:
        keys = [key for key, s in first.items() if s.dialect == dialect]
        arrived = sum(first[key].rpc["arrived"] for key in keys)
        wall = sum(times[key] for key in keys)
        metrics[f"req_per_s.{dialect}"] = (arrived / wall, "1/s")
        metrics[f"latency_p50_ms.{dialect}"] = (wall * 1e3, "ms")
        metrics[f"latency_p{common.TAILS[dialect]}_ms.{dialect}"] = (wall * 1e3, "ms")
    return metrics


def record_digests(seed: int = common.DEFAULT_SEED) -> None:
    """Re-record ``digests.json`` from one pass of every DES workload."""
    common.prepare_imports()
    meter = PointMeter()
    calibrate = common.Calibrator()
    points: dict[str, str] = {}
    with Probes(SpanRecorder()) as probes:
        meter.install(probes)
        for workload in POINTS.values():
            samples = run_pass(workload, seed, meter, calibrate)
            points.update({key: sample.digest for key, sample in samples.items()})
    DIGESTS.write_text(json.dumps({"seed": seed, "points": points}, indent=2) + "\n")


if __name__ == "__main__":
    record_digests()
