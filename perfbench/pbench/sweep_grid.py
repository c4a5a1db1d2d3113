"""``sweep_grid``: one ~10k-scenario design-space grid through ``SweepRunner``.

The grid mixes every scenario kind the batch planner prices -- end-to-end
training steps (GPT-22B..GPT-1008B on 64-512 A100/H100/B200 GPUs over
DP-TP-PP-SP layouts and both recompute strategies), Llama-2 inference over
TP x batch x prompt x output, decode-step bottleneck tables over zoo x
catalog x TP x KV length, and the Table 1 / Table 2 validation cases -- so
planning, pricing, scatter, collectives and the LRU all carry load, while no
serving code runs.  Each round runs three phases on fresh ``Scenario``
objects:

* ``cold`` (phase 1): serial batched runner after ``clear_engine_cache()``
  and ``clear_plan_caches()``;
* ``warm`` (phase 2): the same runner again, so every result comes from the
  LRU and only key hashing and resolution are paid; it is short, so each
  round runs it ``WARM_PASSES`` times (fresh objects each time) and keeps
  the mean;
* ``sharded`` (phase 3): ``executor="process"`` with ``nproc`` workers,
  starting cold.

The seed draws the decode KV lengths and the inference prompt/output lengths.
"""

from __future__ import annotations

import dataclasses
import gc
import random
import statistics
import sys
import time
import traceback
from typing import Dict, List

from . import layers
from .common import (
    NPROC, HostSpeed, Outcome, check, digest, encode, host_block, import_program, measure_setup, median,
    phase_means, run_rounds, vm_hwm_mb,
)
from .spans import SpanTotals, Tracer, summarize

NAME = "sweep_grid"

TRAINING_MODELS = ("GPT-22B", "GPT-175B", "GPT-310B", "GPT-530B", "GPT-1008B")
TRAINING_ACCELERATORS = ("A100", "H100", "B200")
CLUSTER_SIZES = (64, 128, 256, 512)
TENSOR_PARALLEL = 8
PIPELINE_DEGREES = (1, 2, 4, 8)
SEQUENCE_PARALLEL = (1, 8)
RECOMPUTE = ("full", "selective")
GLOBAL_BATCH = 1024

INFERENCE_MODELS = ("Llama2-7B", "Llama2-13B", "Llama2-70B")
INFERENCE_ACCELERATORS = ("A100", "H100")
INFERENCE_TP = (1, 2, 4, 8)
INFERENCE_BATCH = (1, 4, 16, 64)

DECODE_MODELS = (
    "GPT-7B", "GPT-22B", "GPT-175B", "GPT-310B", "GPT-530B", "GPT-1008B",
    "Llama2-7B", "Llama2-13B", "Llama2-70B",
)
DECODE_ACCELERATORS = ("A100", "H100", "B200", "TPUV4")
DECODE_TP = (1, 2, 4, 8)
DECODE_BATCH = (1, 4)

VALIDATION_STUDIES = ("table1_training_validation", "table2_inference_validation")
PHASES = ("cold", "warm", "sharded")
WARM_PASSES = 3


@dataclasses.dataclass(frozen=True)
class GridInputs:
    """The seeded axis values of the grid (everything else is fixed)."""

    kv_lens: tuple
    prompt_tokens: tuple
    generated_tokens: tuple

    @classmethod
    def from_seed(cls, seed: int) -> "GridInputs":
        rng = random.Random(seed)
        return cls(
            kv_lens=tuple(sorted(rng.sample(range(64, 8192), 26))),
            prompt_tokens=tuple(sorted(rng.sample(range(64, 4096), 4))),
            generated_tokens=tuple(sorted(rng.sample(range(16, 1024), 4))),
        )


def build_scenarios(inputs: GridInputs) -> List[object]:
    """A fresh grid (new ``Scenario`` and system objects: no memoized keys).

    The last ``len(table1) + len(table2)`` entries are the validation cases.
    """
    from repro.hardware.cluster import build_system
    from repro.studies import get_study
    from repro.sweep import Scenario

    scenarios = []
    for accelerator in TRAINING_ACCELERATORS:
        for num_gpus in CLUSTER_SIZES:
            system = build_system(accelerator, num_devices=num_gpus, devices_per_node=8)
            for model in TRAINING_MODELS:
                for pipeline in PIPELINE_DEGREES:
                    data = num_gpus // (TENSOR_PARALLEL * pipeline)
                    for sequence in SEQUENCE_PARALLEL:
                        for recompute in RECOMPUTE:
                            scenarios.append(Scenario.training(
                                system, model, f"{data}-{TENSOR_PARALLEL}-{pipeline}-{sequence}",
                                global_batch_size=GLOBAL_BATCH, recompute=recompute,
                            ))
    for accelerator in INFERENCE_ACCELERATORS:
        system = build_system(accelerator, num_devices=8, devices_per_node=8)
        for model in INFERENCE_MODELS:
            for tensor_parallel in INFERENCE_TP:
                for batch_size in INFERENCE_BATCH:
                    for prompt in inputs.prompt_tokens:
                        for generated in inputs.generated_tokens:
                            scenarios.append(Scenario.inference(
                                system, model, batch_size=batch_size, prompt_tokens=prompt,
                                generated_tokens=generated, tensor_parallel=tensor_parallel,
                            ))
    for model in DECODE_MODELS:
        for accelerator in DECODE_ACCELERATORS:
            for tensor_parallel in DECODE_TP:
                for batch_size in DECODE_BATCH:
                    for kv_len in inputs.kv_lens:
                        scenarios.append(Scenario.decode_bottlenecks(
                            accelerator, model, batch_size=batch_size, kv_len=kv_len,
                            tensor_parallel=tensor_parallel,
                        ))
    for name in VALIDATION_STUDIES:
        scenarios.extend(get_study(name).scenarios())
    return scenarios


def setup(seed: int) -> None:
    """What a user pays before the first sweep: import and grid construction."""
    import_program()
    build_scenarios(GridInputs.from_seed(seed))


def _go_cold() -> None:
    from repro.sweep import clear_engine_cache
    from repro.sweep.batchplan import clear_plan_caches

    clear_engine_cache()
    clear_plan_caches()


def _stats_delta(runner, before: Dict[str, object]) -> Dict[str, float]:
    after = runner.stats.snapshot()
    return {key: after[key] - before.get(key, 0) for key in after}


def _same(one, other) -> bool:
    """Equal under ``to_dict()``; field-wise ``==`` first, which implies it and is much cheaper."""
    try:
        if one is other or one == other:
            return True
    except (TypeError, ValueError):  # e.g. an array field: compare the encodings instead
        pass
    return encode(one) == encode(other)


def _compare_phases(cold, warm, sharded, checks: Dict[str, bool]) -> str:
    """Check warm and sharded values against cold under ``to_dict()``; digest cold."""
    equal = {"warm": len(warm) == len(cold), "sharded": len(sharded) == len(cold)}

    def outputs():
        for ours, again, other in zip(cold, warm, sharded):
            equal["warm"] = equal["warm"] and again.error == ours.error and _same(again.value, ours.value)
            equal["sharded"] = equal["sharded"] and other.error == ours.error and _same(other.value, ours.value)
            yield [ours.error, ours.value]

    result = digest(outputs())
    check(checks, "warm_equals_cold", equal["warm"])
    check(checks, "sharded_equals_cold", equal["sharded"])
    return result


def _validation_checks(cold_runner, checks: Dict[str, bool], report: Dict[str, object]) -> None:
    """Table 1 / 2 rows of the cold phase equal a direct registered-study run."""
    import numpy as np
    from repro.studies import get_study

    for name, key in zip(VALIDATION_STUDIES, ("table1_mape_pct", "table2_mape_pct")):
        from_cold = get_study(name).run(runner=cold_runner)
        direct = get_study(name).run()
        check(checks, f"{name}_rows_equal_direct_run", from_cold.to_csv() == direct.to_csv())
        report[key] = round(float(np.abs(from_cold["relative_error_%"]).mean()), 2)


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    import_program()
    from repro.sweep import SweepRunner

    inputs = GridInputs.from_seed(seed)
    num_scenarios = len(build_scenarios(inputs))
    setup_s = None if trace else measure_setup(NAME, seed)
    host = host_block()
    speed = HostSpeed()
    tracer = Tracer() if trace else None
    checks: Dict[str, bool] = {}
    report: Dict[str, object] = {"scenarios": num_scenarios, "inputs": dataclasses.asdict(inputs)}
    rounds: List[Dict[str, float]] = []
    kept_spans: list = []
    counts = {"attempted": 0, "failed": 0}

    def timed(phase: str, runner, scenarios, index: int):
        counts["attempted"] += len(scenarios)
        if tracer is not None:
            tracer.op = f"{phase}#{index}"
        speed.sample()
        gc.collect()
        before = runner.stats.snapshot()
        started = time.perf_counter()
        try:
            results = runner.run(scenarios)
        except Exception:  # noqa: BLE001 -- a raising sweep is a failed operation, reported
            traceback.print_exc(file=sys.stderr)
            counts["failed"] += len(scenarios)
            return None, time.perf_counter() - started, _stats_delta(runner, before)
        return results, time.perf_counter() - started, _stats_delta(runner, before)

    def one_round(index: int) -> float:
        traced = tracer is not None and index > 0  # round 0 is the untraced baseline
        if traced and index == 1:
            layers.install(tracer)
        _go_cold()
        cold_runner = SweepRunner(capture_errors=True, cache_size=2 * num_scenarios)
        cold, cold_s, cold_stats = timed("cold", cold_runner, build_scenarios(inputs), index)
        cold_spans = tracer.take() if traced else []
        warm_passes, warm_spans = [], []
        for _ in range(WARM_PASSES):
            warm_passes.append(timed("warm", cold_runner, build_scenarios(inputs), index))
            spans = tracer.take() if traced else []
            if len(warm_passes) == 1:
                warm_spans = spans  # per-layer figures describe the first pass
        warm, first_warm_s, warm_stats = warm_passes[0]
        warm_pass_s = [seconds for _, seconds, _ in warm_passes]
        _go_cold()
        sharded_runner = SweepRunner(
            executor="process", max_workers=NPROC, capture_errors=True, cache_size=2 * num_scenarios
        )
        sharded, sharded_s, sharded_stats = timed("sharded", sharded_runner, build_scenarios(inputs), index)
        sharded_spans = tracer.take() if traced else []

        check(checks, f"round{index}_cold_priced_every_unique_scenario",
              cold_stats["evaluations"] + cold_stats["cache_hits"] == num_scenarios)
        check(checks, f"round{index}_warm_priced_nothing",
              all(stats["evaluations"] == 0 for _, _, stats in warm_passes))
        check(checks, f"round{index}_same_captured_errors",
              cold_stats["errors"] == sharded_stats["errors"])
        if index == 0 and None not in (cold, warm, sharded):
            report["digest"] = _compare_phases(cold, warm, sharded, checks)
            report["captured_infeasible_scenarios"] = cold_stats["errors"]
            _validation_checks(cold_runner, checks, report)
        del cold, warm, sharded, warm_passes

        record = {
            "cold_s": cold_s, "warm_s": statistics.fmean(warm_pass_s), "sharded_s": sharded_s,
            "warm_pass_s": warm_pass_s, "traced": traced,
        }
        if traced:
            kept_spans[:] = cold_spans + warm_spans + sharded_spans
            cold_totals, warm_totals = summarize(cold_spans), summarize(warm_spans)
            keyhash = warm_totals.get("sweep.keyhash", SpanTotals())
            plan = cold_totals.get("sweep.plan", SpanTotals())
            price = cold_totals.get("sweep.price", SpanTotals())
            phases = (cold_stats, warm_stats, sharded_stats)
            shard_compute = (
                sharded_stats["plan_seconds"] + sharded_stats["price_seconds"] + sharded_stats["scatter_seconds"]
            )
            record.update(layers.span_metrics(summarize(kept_spans)))
            record.update({
                "sweep.keyhash_s": keyhash.total_s,
                "sweep.keyhash_calls": keyhash.calls,
                "sweep.warm_resolve_s": first_warm_s - keyhash.total_s,
                "sweep.plan_s": plan.total_s,
                "sweep.plans": plan.calls,
                "sweep.price_s": price.total_s,
                "sweep.price_calls": price.calls,
                "sweep.scatter_s": cold_stats["scatter_seconds"],
                "sweep.evaluations": sum(stats["evaluations"] for stats in phases),
                "sweep.cache_hits": sum(stats["cache_hits"] for stats in phases),
                "sweep.captured_errors": sum(stats["errors"] for stats in phases),
                "sweep.shard_compute_s": shard_compute,
                "sweep.sharded_overhead_s": sharded_s - shard_compute / NPROC,
            })
        rounds.append(record)
        return cold_s + sum(warm_pass_s) + sharded_s

    run_rounds(seconds, one_round, minimum=2 if trace else 1)
    if tracer is not None:
        tracer.restore()

    per_phase, per_round = phase_means([r for r in rounds if not r["traced"]], PHASES)
    named = {
        f"sweep_{phase}_scenarios_per_s": (num_scenarios / per_phase[phase], "1/s") for phase in PHASES
    }
    named.update({
        "table1_mape_pct": (report.get("table1_mape_pct"), "%"),
        "table2_mape_pct": (report.get("table2_mape_pct"), "%"),
    })
    factor = speed.factor()
    report.update({
        "host": host,
        "host_speed_factor": factor,
        "burn_seconds": speed.samples,
        "checks": checks,
        "rounds": len(rounds),
        "round_seconds": [[r[f"{phase}_s"] for phase in PHASES] for r in rounds],
        "warm_pass_seconds": [r["warm_pass_s"] for r in rounds],
        "named_metrics": named,
    })
    if trace:
        metrics = _traced_metrics(rounds)
    else:
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": vm_hwm_mb(),
            "throughput_per_s": len(PHASES) * num_scenarios / (per_round * factor),
            "phase1_s": per_phase["cold"] * factor,
            "phase2_s": per_phase["warm"] * factor,
            "phase3_s": per_phase["sharded"] * factor,
        }
    return Outcome(
        correct=all(checks.values()) and counts["failed"] == 0,
        attempted=counts["attempted"],
        failed=counts["failed"],
        metrics=metrics,
        report=report,
        spans=kept_spans,
    )


def _traced_metrics(rounds: List[Dict[str, float]]) -> Dict[str, float]:
    traced = [r for r in rounds if r["traced"]]
    names = [name for name in traced[0] if "." in name]
    metrics = {name: median([r[name] for r in traced]) for name in names}
    _, untraced_s = phase_means([r for r in rounds if not r["traced"]], PHASES)
    _, traced_s = phase_means(traced, PHASES)
    metrics["trace.overhead_pct"] = layers.overhead_pct(untraced_s, traced_s)
    return metrics
