#!/usr/bin/env python
"""Inference serving study: request-level simulation of a Llama-2 deployment.

Three practical questions a serving team would ask, answered with the
request-level serving simulator (arrival traces -> continuous batching with
KV-memory admission -> analytically priced prefill/decode steps):

1. How hard can one A100 be pushed before tail latency collapses?  The
   latency-throughput frontier of Llama2-13B vs the arrival rate.
2. How many GPUs should serve Llama2-70B under load?  Goodput and tail
   latency vs the tensor-parallel degree at a fixed arrival rate.
3. What does bursty traffic cost?  Poisson vs bursty arrivals at the same
   mean rate, and the p99 inflation the bursts cause.

Run it with ``python examples/inference_serving_study.py``.
"""

from __future__ import annotations

from repro import (
    LengthDistribution,
    Scenario,
    SchedulerConfig,
    ServingConfig,
    ServingSLO,
    SweepRunner,
    TraceConfig,
    build_system,
    get_study,
)
from repro.analysis.formatting import render_table

#: One runner for the whole study: scenarios shared between the sections
#: (and with any other analysis in this process) are evaluated once.
RUNNER = SweepRunner(capture_errors=True)

#: Mixed prompt lengths and a fixed generation budget, shared by all studies.
PROMPTS = LengthDistribution.uniform(64, 512)
OUTPUTS = LengthDistribution.constant(96)
SLO = ServingSLO(ttft=1.0, tpot=0.05)


def load_frontier_study() -> None:
    """Latency-throughput frontier of Llama2-13B serving on a single A100."""
    table = get_study(
        "serving_latency_throughput_frontier",
        model_name="Llama2-13B",
        gpu="A100",
        num_devices=1,
        arrival_rates=(0.5, 1.0, 2.0, 4.0, 8.0, 16.0),
        tensor_parallels=(1,),
        num_requests=48,
        prompt_lengths=PROMPTS,
        output_lengths=OUTPUTS,
        slo=SLO,
    ).run(runner=RUNNER)
    view = table.select(
        ["arrival_rate", "ttft_p50_s", "ttft_p99_s", "tpot_p99_s", "requests_per_s", "goodput_rps", "utilization"]
    )
    print(render_table(view.rows(), title="Llama2-13B on one A100: arrival rate vs tail latency", precision=3))
    print("Throughput tracks the offered load until the device saturates; past that")
    print("point extra arrivals only queue, TTFT p99 explodes, and goodput (requests")
    print("meeting the SLO) falls away from raw throughput.\n")


def tensor_parallel_study() -> None:
    """Goodput of Llama2-70B under load vs the number of A100s serving it."""
    system = build_system("A100", num_devices=8, intra_node="NVLink3", inter_node="HDR-IB")
    config = ServingConfig(
        trace=TraceConfig(
            rate=1.0,
            num_requests=32,
            prompt_lengths=PROMPTS,
            output_lengths=OUTPUTS,
            seed=11,
        ),
        scheduler=SchedulerConfig(max_batch_size=16),
        slo=SLO,
    )
    results = RUNNER.run(
        [
            Scenario.serving(system, "Llama2-70B", config, tensor_parallel=tensor_parallel)
            for tensor_parallel in (1, 2, 4, 8)
        ]
    )
    columns = ["gpus", "ttft_p99_s", "tpot_p99_s", "tokens_per_s", "goodput_rps", "goodput_per_gpu", "utilization", "note"]
    rows = []
    for result in results:
        tensor_parallel = result.scenario.tensor_parallel
        if not result.ok:  # the model does not fit this few devices
            rows.append({"gpus": tensor_parallel, "note": "does not fit (weights exceed device memory)"})
            continue
        report = result.report
        rows.append(
            {
                "gpus": tensor_parallel,
                "ttft_p99_s": report.ttft_p99,
                "tpot_p99_s": report.tpot_p99,
                "tokens_per_s": report.output_token_throughput,
                "goodput_rps": report.goodput,
                "goodput_per_gpu": report.goodput / tensor_parallel,
                "utilization": report.device_utilization,
                "note": "",
            }
        )
    print(
        render_table(
            rows, columns=columns, title="Llama2-70B at 1 req/s: tensor-parallel scaling under load", precision=3
        )
    )
    print("Two GPUs are required just to fit the weights.  More GPUs keep cutting")
    print("TPOT (decode is memory-bound, so each device streams a smaller shard),")
    print("but per-GPU goodput falls -- capacity should be added as replicas once")
    print("the SLO is met.\n")


def burstiness_study() -> None:
    """Poisson vs bursty arrivals at the same mean rate on one A100."""
    system = build_system("A100", num_devices=1)
    rows = []
    for arrival in ("poisson", "bursty"):
        config = ServingConfig(
            trace=TraceConfig(
                rate=4.0,
                num_requests=96,
                arrival=arrival,
                prompt_lengths=PROMPTS,
                output_lengths=OUTPUTS,
                seed=23,
                burstiness=12.0,
                burst_fraction=0.5,
            ),
            slo=SLO,
        )
        report = RUNNER.evaluate(Scenario.serving(system, "Llama2-13B", config))
        rows.append(
            {
                "arrival": arrival,
                "ttft_p50_s": report.ttft_p50,
                "ttft_p99_s": report.ttft_p99,
                "queue_p99_s": report.queue_p99,
                "tpot_p99_s": report.tpot_p99,
                "slo_attainment": report.slo_attainment,
            }
        )
    print(render_table(rows, title="Llama2-13B on one A100 at 4 req/s: Poisson vs bursty arrivals", precision=3))
    print("The mean load is identical, but bursts of back-to-back arrivals queue")
    print("behind each other's prefills: queueing delay inflates the p99")
    print("time-to-first-token well beyond what the average rate predicts.")


if __name__ == "__main__":
    load_frontier_study()
    tensor_parallel_study()
    burstiness_study()
