"""Tests for fault injection, retries, and elastic membership in the fleet.

The two load-bearing invariants:

* **Zero-fault identity** -- a fleet with faults disabled (``faults=None``
  or ``mtbf=inf``, no autoscaler) produces output bit-identical to a
  plain fleet, across every router.
* **Determinism** -- fault timelines are a pure function of ``(seed, slot)``
  and a faulty fleet run is reproducible from its config alone.
"""

import dataclasses
import math

import pytest

from repro.errors import ConfigurationError
from repro.hardware.cluster import build_system
from repro.models.zoo import get_model
from repro.serving import (
    FaultConfig,
    FleetConfig,
    FleetSimulator,
    LengthDistribution,
    QueueDepthAutoscaler,
    RetryPolicy,
    SLOAutoscaler,
    TraceConfig,
    decode_autoscaler,
)
from repro.serving.router import ROUTER_POLICIES

SYSTEM = build_system("A100", num_devices=8, intra_node="NVLink3", inter_node="HDR-IB")
MODEL = get_model("Llama2-7B")


def small_trace(rate=3.0, num_requests=24, seed=5, **kwargs):
    return TraceConfig(
        rate=rate,
        num_requests=num_requests,
        prompt_lengths=LengthDistribution.uniform(32, 128),
        output_lengths=LengthDistribution.constant(16),
        seed=seed,
        **kwargs,
    )


def run_fleet(fleet):
    return FleetSimulator(system=SYSTEM, model=MODEL, fleet=fleet).run()


# -- fault trace determinism ------------------------------------------------------------

def test_fault_timeline_is_reproducible_by_seed():
    config = FaultConfig(mtbf=40.0, mttr=8.0, seed=11)
    for slot in range(3):
        assert config.timeline(slot, 500.0) == config.timeline(slot, 500.0)
    # Slots draw from independent streams; different seeds move every slot.
    assert config.timeline(0, 500.0) != config.timeline(1, 500.0)
    reseeded = FaultConfig(mtbf=40.0, mttr=8.0, seed=12)
    assert config.timeline(0, 500.0) != reseeded.timeline(0, 500.0)


def test_fault_timeline_alternates_and_caps():
    config = FaultConfig(mtbf=20.0, mttr=5.0, seed=3, max_failures_per_replica=2)
    intervals = config.timeline(0, math.inf)
    assert len(intervals) == 2
    last_up = 0.0
    for down_at, up_at in intervals:
        assert last_up < down_at < up_at
        last_up = up_at


def test_disabled_fault_config_has_empty_timeline():
    config = FaultConfig()  # mtbf = inf
    assert not config.enabled
    assert config.timeline(0, 1e9) == []


def test_fault_config_validation():
    with pytest.raises(ConfigurationError):
        FaultConfig(mtbf=0.0)
    with pytest.raises(ConfigurationError):
        FaultConfig(mttr=0.0)
    with pytest.raises(ConfigurationError):
        FaultConfig(mttr=math.inf)
    with pytest.raises(ConfigurationError):
        FaultConfig(max_failures_per_replica=-1)


# -- retry policy -----------------------------------------------------------------------

def test_retry_policy_exponential_delay():
    policy = RetryPolicy(max_attempts=4, backoff=0.5, multiplier=3.0)
    assert policy.delay(1) == 0.5
    assert policy.delay(2) == 1.5
    assert policy.delay(3) == 4.5


def test_retry_policy_validation():
    with pytest.raises(ConfigurationError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ConfigurationError):
        RetryPolicy(backoff=-1.0)
    with pytest.raises(ConfigurationError):
        RetryPolicy(multiplier=0.5)


# -- autoscaler policies ----------------------------------------------------------------

def test_queue_depth_autoscaler_decisions():
    scaler = QueueDepthAutoscaler(high=4.0, low=0.5)
    assert scaler.decide(5.0, None) == 1
    assert scaler.decide(0.1, None) == -1
    assert scaler.decide(2.0, None) == 0


def test_slo_autoscaler_decisions():
    scaler = SLOAutoscaler(target=0.9, relax=0.99)
    assert scaler.decide(3.0, None) == 1      # stalled: queued, no completions
    assert scaler.decide(0.0, None) == 0
    assert scaler.decide(0.0, 0.5) == 1       # missing the target
    assert scaler.decide(0.0, 1.0) == -1      # relaxed and idle
    assert scaler.decide(2.0, 1.0) == 0       # relaxed but busy


def test_autoscaler_validation_and_decode():
    with pytest.raises(ConfigurationError):
        QueueDepthAutoscaler(min_replicas=4, max_replicas=2)
    with pytest.raises(ConfigurationError):
        SLOAutoscaler(target=0.0)
    for scaler in (QueueDepthAutoscaler(max_replicas=3), SLOAutoscaler(target=0.8)):
        assert decode_autoscaler(dataclasses.asdict(scaler)) == scaler
    with pytest.raises(ConfigurationError):
        decode_autoscaler({"policy": "nope"})


def test_fleet_config_respects_scaler_bounds():
    with pytest.raises(ConfigurationError):
        FleetConfig(
            trace=small_trace(),
            num_replicas=8,
            autoscaler=QueueDepthAutoscaler(min_replicas=1, max_replicas=4),
        )


# -- zero-fault identity ----------------------------------------------------------------

@pytest.mark.parametrize("router", sorted(ROUTER_POLICIES))
def test_disabled_faults_are_bit_identical_to_plain_fleet(router):
    trace = small_trace()
    plain = run_fleet(FleetConfig(trace=trace, num_replicas=2, router=router))
    for faults in (None, FaultConfig(mtbf=math.inf)):
        resilient = run_fleet(
            FleetConfig(trace=trace, num_replicas=2, router=router, faults=faults)
        )
        assert resilient.to_dict() == plain.to_dict()


# -- faulty fleet behavior --------------------------------------------------------------

FAULTY = FaultConfig(mtbf=6.0, mttr=4.0, seed=2024)


@pytest.mark.parametrize("router", sorted(ROUTER_POLICIES))
def test_faulty_fleet_is_deterministic_per_seed(router):
    fleet = FleetConfig(
        trace=small_trace(rate=6.0, num_requests=48),
        num_replicas=3,
        router=router,
        faults=FAULTY,
        retry=RetryPolicy(max_attempts=3, backoff=0.25),
    )
    first = run_fleet(fleet)
    second = run_fleet(fleet)
    assert first.to_dict() == second.to_dict()

    reseeded = dataclasses.replace(fleet, faults=dataclasses.replace(FAULTY, seed=7))
    assert run_fleet(reseeded).to_dict() != first.to_dict()


def test_faulty_fleet_accounts_for_every_request():
    fleet = FleetConfig(
        trace=small_trace(rate=6.0, num_requests=64),
        num_replicas=3,
        faults=FAULTY,
        retry=RetryPolicy(max_attempts=2, backoff=0.25),
    )
    report = run_fleet(fleet)
    assert report.replica_failures > 0
    assert report.availability < 1.0
    assert (
        report.completed_requests + report.failed_requests + report.rejected_requests
        == fleet.trace.num_requests
    )


def test_retries_recover_requests_that_would_otherwise_fail():
    trace = small_trace(rate=6.0, num_requests=64)
    base = dict(trace=trace, num_replicas=3, faults=FAULTY)
    no_retry = run_fleet(FleetConfig(retry=RetryPolicy(max_attempts=1), **base))
    with_retry = run_fleet(FleetConfig(retry=RetryPolicy(max_attempts=5, backoff=0.25), **base))
    assert no_retry.failed_requests > 0
    assert no_retry.retried_requests == 0
    assert with_retry.retried_requests > 0
    assert with_retry.completed_requests > no_retry.completed_requests


def test_interruptions_degrade_interruption_aware_ttft():
    trace = small_trace(rate=6.0, num_requests=64)
    clean = run_fleet(FleetConfig(trace=trace, num_replicas=3))
    faulty = run_fleet(
        FleetConfig(
            trace=trace,
            num_replicas=3,
            faults=FAULTY,
            retry=RetryPolicy(max_attempts=5, backoff=0.5),
        )
    )
    # Retried requests carry their backoff + re-queue time as TTFT against
    # the original arrival, so the tail visibly degrades under faults.
    assert faulty.wasted_prefill_tokens > 0
    assert faulty.ttft_p99 > clean.ttft_p99


def test_autoscaler_grows_fleet_under_overload():
    trace = TraceConfig(
        rate=40.0,
        num_requests=96,
        prompt_lengths=LengthDistribution.uniform(64, 512),
        output_lengths=LengthDistribution.constant(128),
        seed=5,
    )
    fleet = FleetConfig(
        trace=trace,
        num_replicas=1,
        autoscaler=QueueDepthAutoscaler(min_replicas=1, max_replicas=6, interval=0.5, high=2.0),
    )
    report = run_fleet(fleet)
    assert report.scale_up_events > 0
    assert report.peak_replicas > 1
    assert report.completed_requests + report.rejected_requests == fleet.trace.num_requests


def test_faults_and_autoscaler_compose_deterministically():
    fleet = FleetConfig(
        trace=small_trace(rate=10.0, num_requests=64),
        num_replicas=2,
        faults=FAULTY,
        retry=RetryPolicy(max_attempts=3, backoff=0.25),
        autoscaler=QueueDepthAutoscaler(min_replicas=1, max_replicas=4, interval=1.0, high=2.0),
    )
    first = run_fleet(fleet)
    second = run_fleet(fleet)
    assert first.to_dict() == second.to_dict()
    assert first.summary()["availability"] == first.availability
