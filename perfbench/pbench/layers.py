"""The metric registry and the layer boundaries the traced run wraps.

:data:`END_TO_END` and :data:`PER_LAYER` are the names ``BENCHMARK.json``
declares (a test keeps the two in step).  Every workload reports every name:
the end-to-end metrics are defined for all three workloads (see README), and
a per-layer metric of a layer or phase a workload never touches reads 0.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .spans import SpanTotals, Tracer

#: (name, unit, better, bound) -- ``bound`` is the share of the parent's
#: median by which the metric may worsen before a change counts as a regression.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("throughput_per_s", "1/s", "higher", 0.24),
    ("phase1_s", "s", "lower", 0.24),
    ("phase2_s", "s", "lower", 0.24),
    ("phase3_s", "s", "lower", 0.24),
]

FLEET_PHASES = ("rr", "stateful", "faults")

_FLEET_PER_PHASE: List[Tuple[str, str, str]] = [
    ("stepcost.prefill_step_calls", "count", "lower"),
    ("stepcost.prefill_step_s", "s", "lower"),
    ("stepcost.decode_run_calls", "count", "lower"),
    ("stepcost.decode_run_s", "s", "lower"),
    ("stepcost.decode_steps", "count", "lower"),
    ("stepcost.cache_hit_share", "ratio", "higher"),
    ("scheduler.admit_calls", "count", "lower"),
    ("scheduler.admit_s", "s", "lower"),
    ("scheduler.retire_s", "s", "lower"),
    ("simulator.report_s", "s", "lower"),
    ("simulator.advance_self_s", "s", "lower"),
    ("router.select_calls", "count", "lower"),
    ("router.select_s", "s", "lower"),
    ("router.assign_batch_s", "s", "lower"),
    ("fleet.host_us_per_engine_step", "us", "lower"),
    ("fleet.engine_steps", "count", "lower"),
    ("fleet.retried_requests", "count", "lower"),
    ("fleet.sim_failed_requests", "count", "lower"),
]

#: (name, unit, better)
PER_LAYER: List[Tuple[str, str, str]] = [
    ("sweep.keyhash_s", "s", "lower"),
    ("sweep.keyhash_calls", "count", "lower"),
    ("sweep.warm_resolve_s", "s", "lower"),
    ("sweep.plan_s", "s", "lower"),
    ("sweep.plans", "count", "lower"),
    ("sweep.price_s", "s", "lower"),
    ("sweep.price_calls", "count", "lower"),
    ("sweep.scatter_s", "s", "lower"),
    ("sweep.evaluations", "count", "lower"),
    ("sweep.cache_hits", "count", "higher"),
    ("sweep.captured_errors", "count", "lower"),
    ("sweep.shard_compute_s", "s", "lower"),
    ("sweep.sharded_overhead_s", "s", "lower"),
    ("perf.gemm_batch_calls", "count", "lower"),
    ("perf.gemm_batch_rows", "count", "lower"),
    ("perf.gemm_batch_s", "s", "lower"),
    ("perf.gemm_scalar_calls", "count", "lower"),
    ("perf.gemm_scalar_s", "s", "lower"),
    ("comm.collective_batch_calls", "count", "lower"),
    ("comm.collective_batch_rows", "count", "lower"),
    ("comm.collective_batch_s", "s", "lower"),
    *[(f"{name}.{phase}", unit, better) for phase in FLEET_PHASES for name, unit, better in _FLEET_PER_PHASE],
    ("service.post_s", "s", "lower"),
    ("service.rows_poll_s", "s", "lower"),
    ("service.table_s", "s", "lower"),
    ("service.exchanges_per_job", "count", "lower"),
    ("service.transport_s", "s", "lower"),
    ("service.queue_wait_s", "s", "lower"),
    ("service.exec_s", "s", "lower"),
    ("service.first_row_s", "s", "lower"),
    ("service.cached_row_share", "ratio", "higher"),
    ("trace.overhead_pct", "%", "lower"),
]

UNITS: Dict[str, str] = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def _nth(index: int, keyword: str):
    """Unit counter: the length (or value) of argument ``index``/``keyword``."""

    def units(args: tuple, kwargs: dict) -> int:
        value = args[index] if len(args) > index else kwargs[keyword]
        return value if isinstance(value, int) else len(value)

    return units


def install(tracer: Tracer) -> None:
    """Wrap every public layer boundary the per-layer metrics are read from."""
    from repro.comm.fabric import CollectiveModel
    from repro.core.stepcost import StepCostModel
    from repro.perf.batched import BatchedGemmTimeModel
    from repro.perf.gemm import GemmTimeModel
    from repro.serving.router import ROUTER_POLICIES, RouterPolicy
    from repro.serving.scheduler import ContinuousBatchingScheduler
    from repro.serving.simulator import ReplicaEngine, ServingSimulator
    from repro.sweep import batchplan, runner

    tracer.patch(runner, "cache_keys", "sweep.keyhash", _nth(0, "scenarios"))
    tracer.patch(batchplan, "plan_scenario", "sweep.plan")
    tracer.patch(batchplan, "price_plans", "sweep.price", _nth(0, "plans"))
    tracer.patch(BatchedGemmTimeModel, "evaluate_batch", "perf.gemm_batch", _nth(1, "batch"))
    tracer.patch(GemmTimeModel, "evaluate", "perf.gemm_scalar")
    tracer.patch(CollectiveModel, "evaluate_batch", "comm.collective_batch", _nth(1, "batch"))
    tracer.patch(StepCostModel, "prefill_step", "stepcost.prefill_step")
    tracer.patch(StepCostModel, "decode_run", "stepcost.decode_run", _nth(3, "num_steps"))
    tracer.patch(ContinuousBatchingScheduler, "admit", "scheduler.admit")
    tracer.patch(ContinuousBatchingScheduler, "retire_finished", "scheduler.retire")
    tracer.patch(ServingSimulator, "report", "simulator.report")
    tracer.patch(ReplicaEngine, "advance", "simulator.advance")
    for cls in (RouterPolicy, *ROUTER_POLICIES.values()):
        for method in ("select", "assign_batch"):
            if method in cls.__dict__:
                tracer.patch(cls, method, f"router.{method}")


def span_metrics(totals: Dict[str, SpanTotals]) -> Dict[str, float]:
    """Per-layer values that come straight from span totals (workload-neutral)."""

    def get(name: str) -> SpanTotals:
        return totals.get(name, SpanTotals())

    return {
        "perf.gemm_batch_calls": get("perf.gemm_batch").calls,
        "perf.gemm_batch_rows": get("perf.gemm_batch").units,
        "perf.gemm_batch_s": get("perf.gemm_batch").total_s,
        "perf.gemm_scalar_calls": get("perf.gemm_scalar").calls,
        "perf.gemm_scalar_s": get("perf.gemm_scalar").total_s,
        "comm.collective_batch_calls": get("comm.collective_batch").calls,
        "comm.collective_batch_rows": get("comm.collective_batch").units,
        "comm.collective_batch_s": get("comm.collective_batch").total_s,
    }


def overhead_pct(untraced_s: float, traced_s: float) -> float:
    """Tracing overhead: how much longer the same work took with wrappers on."""
    return (traced_s - untraced_s) / untraced_s * 100.0
