"""``fleet_mixed``: one seeded two-tenant trace on 8 Llama2-7B/A100 replicas.

The trace is prefill-heavy and runs near, but below, saturation:

* ``chat``: lognormal prompts (median 256, tail to 4k), lognormal outputs,
  a diurnal rate over one cycle of the trace;
* ``summarize``: 1k-4k-token prompts with short outputs.

Each round replays the same ``TraceColumns`` on a fresh ``FleetSimulator``
(fresh step-cost caches) in three phases, one per fleet loop:

* ``rr`` (phase 1): ``round_robin`` -- the partitioned path, no ``select``;
* ``stateful`` (phase 2): ``least_kv_load`` -- the interleaved event-horizon
  loop;
* ``faults`` (phase 3): ``least_queue`` with seeded replica crashes,
  retries and a queue-depth autoscaler -- the event-heap loop.

No sweep planner runs.  The seed draws both tenants' arrivals and lengths.
"""

from __future__ import annotations

import gc
import sys
import time
import traceback
from typing import Dict, List

from . import layers
from .common import (
    HostSpeed, Outcome, check, digest, host_block, import_program, measure_setup, median,
    phase_means, run_rounds, vm_hwm_mb,
)
from .layers import FLEET_PHASES
from .spans import SpanTotals, Tracer, summarize

NAME = "fleet_mixed"

NUM_REQUESTS = 1500
RATE = 40.0  # fleet arrivals per simulated second: ~35% below the saturation knee
CHAT_SHARE = 0.7
NUM_REPLICAS = 8
MAX_REPLICAS = 10


def _system_and_model():
    from repro.hardware.cluster import build_system
    from repro.models.zoo import get_model

    return build_system("A100", num_devices=1), get_model("Llama2-7B")


def make_trace(seed: int):
    """The seeded two-tenant workload (its columns are what every phase replays)."""
    from repro.serving import FleetTraceConfig, LengthDistribution, TenantTrace, TraceConfig

    chat_requests = int(NUM_REQUESTS * CHAT_SHARE)
    duration = NUM_REQUESTS / RATE
    chat = TenantTrace(
        trace=TraceConfig(
            rate=RATE * CHAT_SHARE,
            num_requests=chat_requests,
            prompt_lengths=LengthDistribution.lognormal(256, 1.0, minimum=16, maximum=4096),
            output_lengths=LengthDistribution.lognormal(128, 0.8, minimum=4, maximum=1024),
            seed=2 * seed + 1,
        ),
        name="chat",
        diurnal=(0.6, 1.0, 1.4, 1.0),
        period=duration,
    )
    summarize_tenant = TenantTrace(
        trace=TraceConfig(
            rate=RATE * (1.0 - CHAT_SHARE),
            num_requests=NUM_REQUESTS - chat_requests,
            prompt_lengths=LengthDistribution.uniform(1024, 4096),
            output_lengths=LengthDistribution.uniform(16, 64),
            seed=2 * seed + 2,
        ),
        name="summarize",
    )
    return FleetTraceConfig(tenants=(chat, summarize_tenant))


def phase_configs(trace, seed: int) -> Dict[str, object]:
    """The three fleet configurations, one per fleet loop."""
    from repro.serving import FaultConfig, FleetConfig, QueueDepthAutoscaler, RetryPolicy, SchedulerConfig

    scheduler = SchedulerConfig(max_batch_size=64, max_prefill_requests=16)
    common = dict(trace=trace, num_replicas=NUM_REPLICAS, scheduler=scheduler)
    duration = NUM_REQUESTS / RATE
    return {
        "rr": FleetConfig(router="round_robin", **common),
        "stateful": FleetConfig(router="least_kv_load", **common),
        "faults": FleetConfig(
            router="least_queue",
            faults=FaultConfig(mtbf=4 * duration, mttr=10.0, seed=seed),
            retry=RetryPolicy(max_attempts=3, backoff=0.5),
            autoscaler=QueueDepthAutoscaler(
                min_replicas=NUM_REPLICAS, max_replicas=MAX_REPLICAS, interval=10.0, high=4.0, low=0.5
            ),
            **common,
        ),
    }


def setup(seed: int) -> None:
    """What a user pays before the first simulation: import and trace generation."""
    import_program()
    _system_and_model()
    make_trace(seed).generate_columns()


def _phase_layers(totals: Dict[str, SpanTotals], phase: str, wall_s: float, report, step_cost) -> Dict[str, float]:
    def get(name: str) -> SpanTotals:
        return totals.get(name, SpanTotals())

    engine_steps = report.prefill_steps + report.decode_steps
    lookups = step_cost.cache_hits + step_cost.cache_misses
    values = {
        "stepcost.prefill_step_calls": get("stepcost.prefill_step").calls,
        "stepcost.prefill_step_s": get("stepcost.prefill_step").total_s,
        "stepcost.decode_run_calls": get("stepcost.decode_run").calls,
        "stepcost.decode_run_s": get("stepcost.decode_run").total_s,
        "stepcost.decode_steps": get("stepcost.decode_run").units,
        "stepcost.cache_hit_share": step_cost.cache_hits / lookups if lookups else 0.0,
        "scheduler.admit_calls": get("scheduler.admit").calls,
        "scheduler.admit_s": get("scheduler.admit").total_s,
        "scheduler.retire_s": get("scheduler.retire").total_s,
        "simulator.report_s": get("simulator.report").total_s,
        "simulator.advance_self_s": get("simulator.advance").self_s,
        "router.select_calls": get("router.select").calls,
        "router.select_s": get("router.select").total_s,
        "router.assign_batch_s": get("router.assign_batch").total_s,
        "fleet.host_us_per_engine_step": wall_s / engine_steps * 1e6,
        "fleet.engine_steps": engine_steps,
        "fleet.retried_requests": report.retried_requests,
        "fleet.sim_failed_requests": report.failed_requests,
    }
    return {f"{name}.{phase}": value for name, value in values.items()}


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    import_program()
    from repro.serving import FleetSimulator

    system, model = _system_and_model()
    fleet_trace = make_trace(seed)
    columns = fleet_trace.generate_columns()
    configs = phase_configs(fleet_trace, seed)
    setup_s = None if trace else measure_setup(NAME, seed)
    host = host_block()
    speed = HostSpeed()
    tracer = Tracer() if trace else None
    checks: Dict[str, bool] = {}
    rounds: List[Dict[str, float]] = []
    kept_spans: list = []
    digests: Dict[str, str] = {}
    counts = {"attempted": 0, "failed": 0}

    def one_round(index: int) -> float:
        traced = tracer is not None and index > 0  # round 0 is the untraced baseline
        if traced and index == 1:
            layers.install(tracer)
        record: Dict[str, float] = {"traced": traced}
        round_spans: list = []
        for phase, config in configs.items():
            counts["attempted"] += len(columns)
            simulator = FleetSimulator(system, model, config)
            if tracer is not None:
                tracer.op = f"{phase}#{index}"
            speed.sample()
            gc.collect()
            started = time.perf_counter()
            try:
                report = simulator.run(columns)
            except Exception:  # noqa: BLE001 -- a raising simulation is a failed operation, reported
                traceback.print_exc(file=sys.stderr)
                counts["failed"] += len(columns)
                record[f"{phase}_s"] = time.perf_counter() - started
                check(checks, f"round{index}_{phase}_ran", False)
                continue
            wall_s = time.perf_counter() - started
            record[f"{phase}_s"] = wall_s
            check(checks, f"round{index}_{phase}_every_request_completed_or_failed",
                  report.completed_requests + report.failed_requests == len(columns))
            phase_digest = digest([report])
            if index == 0:
                digests[phase] = phase_digest
                record[f"{phase}_summary"] = {
                    "completed": report.completed_requests,
                    "failed": report.failed_requests,
                    "retried": report.retried_requests,
                    "replica_failures": report.replica_failures,
                    "queue_p99_s": report.queue_p99,
                    "ttft_p99_s": report.ttft_p99,
                }
            else:
                check(checks, f"round{index}_{phase}_report_identical_to_round0", phase_digest == digests.get(phase))
            if traced:
                spans = tracer.take()
                round_spans.extend(spans)
                record.update(_phase_layers(summarize(spans), phase, wall_s, report, simulator.simulator.step_cost))
        if traced:
            kept_spans[:] = round_spans
            record.update(layers.span_metrics(summarize(round_spans)))
        rounds.append(record)
        return sum(record[f"{phase}_s"] for phase in FLEET_PHASES)

    run_rounds(seconds, one_round, minimum=2)
    if tracer is not None:
        tracer.restore()

    untraced = [r for r in rounds if not r["traced"]]
    per_phase, per_round = phase_means(untraced, FLEET_PHASES)
    factor = speed.factor()
    report = {
        "requests": len(columns),
        "replicas": NUM_REPLICAS,
        "digest": digest([digests.get(phase) for phase in FLEET_PHASES]),
        "phases": {phase: rounds[0].get(f"{phase}_summary") for phase in FLEET_PHASES},
        "host": host,
        "host_speed_factor": factor,
        "burn_seconds": speed.samples,
        "checks": checks,
        "rounds": len(rounds),
        "round_seconds": [[r[f"{phase}_s"] for phase in FLEET_PHASES] for r in rounds],
        "named_metrics": {
            f"fleet_{phase}_requests_per_s": (len(columns) / per_phase[phase], "1/s") for phase in FLEET_PHASES
        },
    }
    if trace:
        traced_rounds = [r for r in rounds if r["traced"]]
        names = [name for name in traced_rounds[0] if "." in name]
        metrics = {name: median([r[name] for r in traced_rounds]) for name in names}
        metrics["trace.overhead_pct"] = layers.overhead_pct(
            per_round, phase_means(traced_rounds, FLEET_PHASES)[1]
        )
    else:
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": vm_hwm_mb(),
            "throughput_per_s": len(FLEET_PHASES) * len(columns) / (per_round * factor),
            "phase1_s": per_phase["rr"] * factor,
            "phase2_s": per_phase["stateful"] * factor,
            "phase3_s": per_phase["faults"] * factor,
        }
    return Outcome(
        correct=all(checks.values()) and counts["failed"] == 0,
        attempted=counts["attempted"],
        failed=counts["failed"],
        metrics=metrics,
        report=report,
        spans=kept_spans,
    )
