"""Benchmark entry point: ``python3 perfbench/run.py --workload NAME --seed N``.

Runs one workload for ``--seconds`` and prints, as its last stdout line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the run
wraps the program's public layer boundaries in span timers and reports the
per-layer metrics instead (and writes its spans under ``perfbench/out/``).
Lines before the last are a human summary and one ``{"report": ...}`` JSON
line: host block, correctness checks, output digests, the workload's own
named figures.  See ``perfbench/README.md``.

Exit codes: 0 with a result; 2 when the checkout holds no program sources;
1 on any other error (no result is printed).
"""

from __future__ import annotations

import argparse
import importlib
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from pbench.common import OUT_DIR, READY, ProgramMissing, stop_helper_processes  # noqa: E402
from pbench.layers import END_TO_END, PER_LAYER, UNITS  # noqa: E402
from pbench.spans import Tracer  # noqa: E402

WORKLOADS = ("sweep_grid", "fleet_mixed", "service_jobs")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: time-to-ready probe (prints the ready line and exits)")
    return parser.parse_args(argv)


def _result_line(outcome, trace: bool) -> str:
    if trace:
        # A layer (or fleet phase) the workload never calls did no work: 0.
        values = {name: 0.0 for name, *_ in PER_LAYER}
        values.update(outcome.metrics)
    else:
        values = outcome.metrics
    names = [name for name, *_ in (PER_LAYER if trace else END_TO_END)]
    missing = [name for name in names if name not in values]
    if missing:
        raise RuntimeError(f"workload did not report {missing}")
    metrics = {name: {"value": float(values[name]), "unit": UNITS[name]} for name in names}
    return json.dumps(
        {"correct": outcome.correct, "attempted": outcome.attempted, "failed": outcome.failed, "metrics": metrics}
    )


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        return _main(args)
    finally:
        stop_helper_processes()


def _main(args) -> int:
    workload = importlib.import_module(f"pbench.{args.workload}")
    try:
        if args.setup_probe:
            teardown = workload.setup(args.seed)
            print(READY, flush=True)
            if teardown is not None:
                teardown()
            return 0
        outcome = workload.run(args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    if args.trace:
        Tracer.dump(OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl", outcome.spans)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"correct={outcome.correct} attempted={outcome.attempted} failed={outcome.failed}")
    for name, value in sorted(outcome.metrics.items()):
        print(f"  {name:<40s} {value:>16.6g} {UNITS[name]}")
    for name, (value, unit) in outcome.report.get("named_metrics", {}).items():
        print(f"  {name:<40s} {value!s:>16} {unit}")
    print(json.dumps({"report": outcome.report}, default=str))
    print(_result_line(outcome, bool(args.trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
