"""Property tests: the epoch-fused serving loop is bit-identical to stepwise.

The simulator prices whole decode epochs in one vectorized call and
assigns timestamps from sequential cumulative sums; these tests assert that
every field of the resulting :class:`ServingReport` -- including every
``per_request`` timestamp -- equals the per-token reference in
``tests/serving_oracle.py``, which prices every prefill and decode step one
operator at a time, **exactly** (``to_dict`` equality, no tolerances) across
randomized traces: Poisson and bursty arrivals, mixed length distributions,
and small KV budgets that force rejections and multi-epoch admission churn.
"""

import pytest
from serving_oracle import StepwiseSimulator

from repro.hardware.cluster import build_system
from repro.memmodel.footprint import model_weight_bytes
from repro.models.zoo import get_model
from repro.serving import (
    LengthDistribution,
    Request,
    SchedulerConfig,
    ServingSimulator,
    TraceConfig,
)

SYSTEM = build_system("A100", num_devices=8, intra_node="NVLink3", inter_node="HDR-IB")
MODEL = get_model("Llama2-7B")


def tight_memory_scheduler(kv_gigabytes: float, **kwargs) -> SchedulerConfig:
    """A scheduler whose KV budget is ``kv_gigabytes`` on top of the weights.

    Small budgets force admission churn (requests queue behind retirements)
    and reject outsized requests outright -- the regimes where epoch
    boundaries are densest.
    """
    weights = model_weight_bytes(MODEL, tensor_parallel=1)
    headroom = kwargs.setdefault("memory_headroom", 0.05)
    capacity = (weights + kv_gigabytes * 1e9) / (1.0 - headroom)
    return SchedulerConfig(memory_capacity_bytes=capacity, **kwargs)


def assert_fused_matches_stepwise(workload, scheduler_config=None, tensor_parallel=1):
    kwargs = dict(
        system=SYSTEM, model=MODEL, tensor_parallel=tensor_parallel, scheduler_config=scheduler_config
    )
    fused = ServingSimulator(**kwargs).run(workload)
    stepwise = StepwiseSimulator(**kwargs).run(workload)
    assert fused.to_dict() == stepwise.to_dict()
    return fused


@pytest.mark.parametrize("arrival", ["poisson", "bursty"])
@pytest.mark.parametrize("seed", [1, 7, 2024])
def test_randomized_traces_mixed_lengths(arrival, seed):
    trace = TraceConfig(
        rate=3.0,
        num_requests=24,
        arrival=arrival,
        prompt_lengths=LengthDistribution.uniform(16, 512),
        output_lengths=LengthDistribution.lognormal(median=24, sigma=0.8, maximum=96),
        seed=seed,
    )
    report = assert_fused_matches_stepwise(trace)
    assert report.completed_requests == 24


@pytest.mark.parametrize("seed", [3, 11])
def test_small_kv_budget_forces_churn_and_rejections(seed):
    # ~2 GB of KV on a 7B model fits only a couple of long-context requests
    # at a time; the lognormal tail produces requests that can never fit and
    # must be rejected.
    trace = TraceConfig(
        rate=8.0,
        num_requests=32,
        arrival="bursty",
        prompt_lengths=LengthDistribution.lognormal(median=300, sigma=1.2, maximum=20_000),
        output_lengths=LengthDistribution.uniform(4, 64),
        seed=seed,
        burstiness=8.0,
        burst_fraction=0.4,
    )
    report = assert_fused_matches_stepwise(trace, scheduler_config=tight_memory_scheduler(2.0))
    assert report.rejected_requests > 0
    assert report.completed_requests + report.rejected_requests == 32
    assert report.queue_p99 > 0  # admission churn: requests waited for memory


def test_tiny_batch_cap_epochs_of_one_request():
    trace = TraceConfig(
        rate=10.0,
        num_requests=12,
        prompt_lengths=LengthDistribution.uniform(32, 128),
        output_lengths=LengthDistribution.uniform(1, 8),  # includes prefill-only requests
        seed=5,
    )
    config = SchedulerConfig(max_batch_size=1, max_prefill_requests=1)
    assert_fused_matches_stepwise(trace, scheduler_config=config)


def test_saturating_load_with_tensor_parallel():
    trace = TraceConfig(
        rate=100.0,
        num_requests=24,
        prompt_lengths=LengthDistribution.uniform(64, 256),
        output_lengths=LengthDistribution.constant(32),
        seed=13,
    )
    assert_fused_matches_stepwise(trace, tensor_parallel=4)


def test_sparse_arrivals_interrupt_epochs():
    # Near-idle load: the batch usually holds one request and every arrival
    # lands mid-epoch, exercising the arrival-cut path of the fused loop.
    trace = TraceConfig(
        rate=0.05,
        num_requests=10,
        prompt_lengths=LengthDistribution.uniform(64, 192),
        output_lengths=LengthDistribution.uniform(24, 200),
        seed=17,
    )
    report = assert_fused_matches_stepwise(trace)
    assert report.completed_requests == 10


def test_explicit_tie_heavy_request_list():
    # Simultaneous arrivals and equal lengths produce exact float ties in
    # arrival comparisons and retirement grouping.
    requests = [
        Request(request_id=i, arrival_time=float(i // 3), prompt_tokens=64, output_tokens=16)
        for i in range(9)
    ]
    assert_fused_matches_stepwise(requests)


def test_shared_step_cost_model_between_paths():
    # Warming one path's caches must not perturb the other: run both modes
    # on one shared StepCostModel instance, in both orders.
    from repro.core.stepcost import StepCostModel

    trace = TraceConfig(
        rate=4.0,
        num_requests=16,
        prompt_lengths=LengthDistribution.uniform(32, 256),
        output_lengths=LengthDistribution.uniform(8, 48),
        seed=29,
    )
    shared = StepCostModel(system=SYSTEM)
    kwargs = dict(system=SYSTEM, model=MODEL, step_cost=shared)
    first = ServingSimulator(**kwargs).run(trace)
    second = StepwiseSimulator(**kwargs).run(trace)
    third = ServingSimulator(**kwargs).run(trace)
    assert first.to_dict() == second.to_dict() == third.to_dict()
