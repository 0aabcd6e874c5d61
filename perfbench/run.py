"""The repository benchmark: one command, three workloads, every metric by name.

Run from the root of a checkout::

    python3 perfbench/run.py --workload des-users --seed 1 --seconds 30 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``des-users`` — the paper's 600-user point of every system (exp1/exp2);
* ``des-resources`` — the largest resource counts (exp4, plus exp3's
  R-GMA producer count);
* ``live-wire`` — real loopback TCP against the three exp1 entry plans,
  one server child process per dialect (:mod:`perfbench.live`).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics from a traced run, its tracing overhead and the share
of traced wall time no span covers.  Spans are written to
``perfbench/out/``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it (prefixed ``#``) gives the settings that took effect.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

if __package__ in (None, ""):  # `python3 perfbench/run.py`
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from perfbench import common

WORKLOADS = ("des-users", "des-resources", "live-wire")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    settings = common.prepare_imports()
    trace = bool(args.trace)
    if args.workload == "live-wire":
        from perfbench import live

        result = live.run_workload(args.seed, args.seconds, trace)
    else:
        from perfbench import des

        result = des.run_workload(args.workload, args.seed, args.seconds, trace)

    settings.update(workload=args.workload, seed=args.seed, trace=args.trace, **result.detail)
    for problem in result.problems:
        print(f"# problem: {problem}")
    print("# settings " + json.dumps(settings, sort_keys=True))
    units = common.per_layer_units() if trace else common.end_to_end_units()
    print(result.line(units, valid=result.detail.get("valid", True)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
