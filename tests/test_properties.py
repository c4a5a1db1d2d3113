"""Property-based tests (hypothesis) for the core analytical invariants
and the serving and fleet simulators."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st
from serving_oracle import StepwiseSimulator

from repro.comm.collectives import ring_all_reduce_time, tree_all_reduce_time
from repro.core.stepcost import StepCostModel
from repro.hardware.accelerator import get_accelerator
from repro.hardware.cluster import build_system
from repro.hardware.datatypes import Precision
from repro.memmodel.activations import ActivationModel, RecomputeStrategy
from repro.memmodel.footprint import kv_cache_bytes, model_weight_bytes
from repro.models.transformer import TransformerConfig
from repro.models.zoo import get_model
from repro.perf.gemm import GemmTimeModel
from repro.perf.roofline import BoundType, classify, roofline_time
from repro.perf.tiling import compulsory_traffic, traffic_through_level
from repro.serving import (
    ROUTER_POLICIES,
    FleetConfig,
    FleetSimulator,
    LengthDistribution,
    RoundRobinRouter,
    SchedulerConfig,
    ServingSimulator,
    TraceConfig,
)
from repro.workload.operators import GEMM
from repro.workload.transformer_layer import LayerExecutionSpec, TransformerLayerBuilder

A100 = get_accelerator("A100")
GEMM_MODEL = GemmTimeModel(accelerator=A100)

# -- strategies ----------------------------------------------------------------

gemm_dims = st.integers(min_value=1, max_value=8192)
positive_bytes = st.floats(min_value=1.0, max_value=1e10, allow_nan=False, allow_infinity=False)
group_sizes = st.integers(min_value=2, max_value=1024)
bandwidths = st.floats(min_value=1e8, max_value=1e13, allow_nan=False, allow_infinity=False)
latencies = st.floats(min_value=0.0, max_value=1e-4, allow_nan=False, allow_infinity=False)


def _small_model(hidden_multiple: int, layers: int, heads: int) -> TransformerConfig:
    heads = max(1, heads)
    hidden = heads * 32 * hidden_multiple
    return TransformerConfig(
        name="prop-model",
        num_layers=layers,
        hidden_size=hidden,
        num_heads=heads,
        vocab_size=32000,
        max_seq_len=512,
    )


# -- roofline / GEMM properties ----------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(m=gemm_dims, n=gemm_dims, k=gemm_dims)
def test_gemm_time_positive_and_at_least_compute_and_memory(m, n, k):
    gemm = GEMM(name="g", m=m, n=n, k=k)
    point = GEMM_MODEL.evaluate(gemm)
    assert point.time > 0
    assert point.time >= point.compute_time - 1e-15
    assert point.time >= max(point.level_times.values()) - 1e-15


@settings(max_examples=40, deadline=None)
@given(m=gemm_dims, n=gemm_dims, k=gemm_dims, factor=st.floats(min_value=1.1, max_value=8.0))
def test_gemm_time_monotonic_in_compute_throughput(m, n, k, factor):
    gemm = GEMM(name="g", m=m, n=n, k=k)
    base = GemmTimeModel(accelerator=A100).time(gemm, include_overhead=False)
    faster = GemmTimeModel(accelerator=A100.with_compute_scale(factor)).time(gemm, include_overhead=False)
    assert faster <= base + 1e-12


@settings(max_examples=40, deadline=None)
@given(m=gemm_dims, n=gemm_dims, k=gemm_dims)
def test_gemm_flops_conserved_under_tensor_parallel_split(m, n, k):
    """Splitting the N dimension over t ranks conserves total FLOPs."""
    t = 4
    n_padded = max(t, (n // t) * t)
    full = GEMM(name="g", m=m, n=n_padded, k=k)
    shard = GEMM(name="g", m=m, n=n_padded // t, k=k)
    assert t * shard.flops == pytest.approx(full.flops)


@settings(max_examples=60, deadline=None)
@given(m=gemm_dims, n=gemm_dims, k=gemm_dims, capacity=st.floats(min_value=1e5, max_value=1e9))
def test_tiled_traffic_never_below_compulsory(m, n, k, capacity):
    gemm = GEMM(name="g", m=m, n=n, k=k)
    assert traffic_through_level(gemm, capacity) >= compulsory_traffic(gemm) - 1e-9


@settings(max_examples=40, deadline=None)
@given(
    flops=st.floats(min_value=1.0, max_value=1e15),
    data=positive_bytes,
    throughput=st.floats(min_value=1e9, max_value=1e16),
    bandwidth=bandwidths,
)
def test_roofline_time_bounds(flops, data, throughput, bandwidth):
    time = roofline_time(flops, data, throughput, bandwidth)
    assert time >= flops / throughput - 1e-18
    assert time >= data / bandwidth - 1e-18
    assert time <= flops / throughput + data / bandwidth + 1e-18


@settings(max_examples=40, deadline=None)
@given(compute=st.floats(min_value=1e-9, max_value=1.0), memory=st.floats(min_value=1e-9, max_value=1.0))
def test_classification_is_exhaustive_and_consistent(compute, memory):
    point = classify("k", flops=1.0, compute_time=compute, level_times={"DRAM": memory})
    if compute >= memory:
        assert point.bound is BoundType.COMPUTE
    else:
        assert point.bound is BoundType.MEMORY
    assert point.time == pytest.approx(max(compute, memory))


# -- collective properties -----------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(data=positive_bytes, group=group_sizes, bandwidth=bandwidths, latency=latencies)
def test_tree_never_slower_than_ring(data, group, bandwidth, latency):
    ring = ring_all_reduce_time(data, group, bandwidth, latency)
    tree = tree_all_reduce_time(data, group, bandwidth, latency)
    assert tree <= ring + 1e-15


@settings(max_examples=60, deadline=None)
@given(data=positive_bytes, group=group_sizes, bandwidth=bandwidths, latency=latencies)
def test_all_reduce_monotonic_in_volume_and_bandwidth(data, group, bandwidth, latency):
    base = ring_all_reduce_time(data, group, bandwidth, latency)
    assert ring_all_reduce_time(2 * data, group, bandwidth, latency) >= base
    assert ring_all_reduce_time(data, group, 2 * bandwidth, latency) <= base


@settings(max_examples=60, deadline=None)
@given(data=positive_bytes, group=group_sizes, bandwidth=bandwidths)
def test_all_reduce_bandwidth_term_bounded_by_2k_over_bw(data, group, bandwidth):
    """The ring's transfer term never exceeds 2K/BW (it is bandwidth optimal)."""
    time = ring_all_reduce_time(data, group, bandwidth, 0.0)
    assert time <= 2 * data / bandwidth + 1e-15


# -- memory-model properties ------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(
    hidden_multiple=st.integers(min_value=1, max_value=4),
    heads=st.integers(min_value=1, max_value=16),
    seq=st.integers(min_value=16, max_value=2048),
    micro_batch=st.integers(min_value=1, max_value=8),
)
def test_recompute_strategy_ordering_holds_everywhere(hidden_multiple, heads, seq, micro_batch):
    model = _small_model(hidden_multiple, layers=4, heads=heads)
    activations = ActivationModel(model=model, micro_batch=micro_batch, seq_len=seq)
    none = activations.activation_bytes(4, RecomputeStrategy.NONE)
    selective = activations.activation_bytes(4, RecomputeStrategy.SELECTIVE)
    full = activations.activation_bytes(4, RecomputeStrategy.FULL)
    # Recomputation never stores more than keeping everything, and the bytes
    # that *persist* across the pipeline shrink monotonically none -> selective
    # -> full.  (The *total* of full recomputation also carries the transient
    # working set of the segment being replayed, which for very small layer
    # counts can exceed selective's savings, so the totals are only compared
    # against the no-recomputation baseline.)
    assert none >= selective > 0
    assert none >= full > 0
    assert (
        activations.stored_activation_bytes(4, RecomputeStrategy.FULL)
        <= activations.stored_activation_bytes(4, RecomputeStrategy.SELECTIVE)
        <= activations.stored_activation_bytes(4, RecomputeStrategy.NONE)
    )


@settings(max_examples=30, deadline=None)
@given(
    heads=st.integers(min_value=1, max_value=16),
    seq=st.integers(min_value=16, max_value=1024),
    tp=st.sampled_from([1, 2, 4, 8]),
)
def test_sequence_parallel_never_increases_activation_memory(heads, seq, tp):
    heads = max(heads, tp)
    heads = (heads // tp) * tp
    model = _small_model(1, layers=2, heads=heads)
    base = ActivationModel(model=model, micro_batch=1, seq_len=seq, tensor_parallel=tp, sequence_parallel=False)
    sp = ActivationModel(model=model, micro_batch=1, seq_len=seq, tensor_parallel=tp, sequence_parallel=True)
    assert sp.total_activation_bytes_per_layer() <= base.total_activation_bytes_per_layer() + 1e-9


@settings(max_examples=30, deadline=None)
@given(
    batch=st.integers(min_value=1, max_value=64),
    context=st.integers(min_value=1, max_value=8192),
    tp=st.sampled_from([1, 2, 4, 8]),
)
def test_kv_cache_linear_in_batch_and_context(batch, context, tp):
    model = _small_model(1, layers=4, heads=8)
    base = kv_cache_bytes(model, batch, context, tensor_parallel=tp)
    assert kv_cache_bytes(model, 2 * batch, context, tensor_parallel=tp) == pytest.approx(2 * base)
    assert kv_cache_bytes(model, batch, 2 * context, tensor_parallel=tp) == pytest.approx(2 * base)
    assert base * tp == pytest.approx(kv_cache_bytes(model, batch, context, tensor_parallel=1))


# -- layer-builder properties --------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(
    seq=st.integers(min_value=8, max_value=512),
    micro_batch=st.integers(min_value=1, max_value=4),
    tp=st.sampled_from([1, 2, 4, 8]),
)
def test_layer_flops_shrink_with_tensor_parallelism(seq, micro_batch, tp):
    model = _small_model(1, layers=2, heads=8)
    full = TransformerLayerBuilder(
        LayerExecutionSpec(model=model, micro_batch=micro_batch, seq_len=seq, tensor_parallel=1)
    )
    shard = TransformerLayerBuilder(
        LayerExecutionSpec(model=model, micro_batch=micro_batch, seq_len=seq, tensor_parallel=tp)
    )
    full_flops = sum(g.flops for g in full.forward_gemms())
    shard_flops = sum(g.flops for g in shard.forward_gemms())
    assert shard_flops == pytest.approx(full_flops / tp, rel=1e-9)


@settings(max_examples=20, deadline=None)
@given(seq=st.integers(min_value=8, max_value=512), tp=st.sampled_from([2, 4, 8]))
def test_tp_collective_volume_independent_of_tp_degree(seq, tp):
    """The Megatron all-reduce payload is the full hidden state regardless of the TP degree."""
    model = _small_model(1, layers=2, heads=8)
    builder = TransformerLayerBuilder(
        LayerExecutionSpec(model=model, micro_batch=1, seq_len=seq, tensor_parallel=tp)
    )
    payloads = [op.data_bytes for op in builder.forward_communication()]
    expected = seq * model.hidden_size * Precision.FP16.bytes_per_element
    assert payloads
    for payload in payloads:
        assert payload == pytest.approx(expected)


@settings(max_examples=20, deadline=None)
@given(kv_len=st.integers(min_value=1, max_value=4096))
def test_decode_gemm_time_monotonic_in_kv_length(kv_len):
    model = _small_model(1, layers=2, heads=8)
    short_spec = LayerExecutionSpec(
        model=model, micro_batch=1, seq_len=1, kv_len=kv_len, with_dropout=False, use_kv_cache=True
    )
    long_spec = LayerExecutionSpec(
        model=model, micro_batch=1, seq_len=1, kv_len=2 * kv_len, with_dropout=False, use_kv_cache=True
    )
    short_time = sum(GEMM_MODEL.time(g) for g in TransformerLayerBuilder(short_spec).forward_gemms())
    long_time = sum(GEMM_MODEL.time(g) for g in TransformerLayerBuilder(long_spec).forward_gemms())
    assert long_time >= short_time - 1e-12


# -- fleet serving properties --------------------------------------------------------------

FLEET_SYSTEM = build_system("A100", num_devices=8, intra_node="NVLink3", inter_node="HDR-IB")
FLEET_MODEL = get_model("Llama2-7B")
# One pricing layer for every example: its caches are exact, and sharing them
# keeps each hypothesis example to the simulation work itself.
FLEET_STEP_COST = StepCostModel(system=FLEET_SYSTEM)
# Room for ~400 tokens of KV on top of the weights: the longest prompts are
# rejected outright and shorter ones queue behind retirements.
TIGHT_SCHEDULER = SchedulerConfig(
    memory_capacity_bytes=model_weight_bytes(FLEET_MODEL) + kv_cache_bytes(FLEET_MODEL, 1, 400),
    memory_headroom=0.0,
)

fleet_seeds = st.integers(min_value=0, max_value=2**31 - 1)
fleet_rates = st.floats(min_value=0.5, max_value=50.0, allow_nan=False, allow_infinity=False)
fleet_replicas = st.integers(min_value=1, max_value=8)
fleet_routers = st.sampled_from(sorted(ROUTER_POLICIES))


class _EventLoopRoundRobin(RoundRobinRouter):
    """Round-robin without its vectorized assignment: runs the event loop."""

    def assign_batch(self, columns, num_replicas):
        return None


def _fleet_trace(seed: int, rate: float) -> TraceConfig:
    return TraceConfig(
        rate=rate,
        num_requests=16,
        prompt_lengths=LengthDistribution.uniform(16, 512),
        output_lengths=LengthDistribution.uniform(1, 48),
        seed=seed,
    )


def _fleet(config: FleetConfig, router=None) -> FleetSimulator:
    return FleetSimulator(
        system=FLEET_SYSTEM, model=FLEET_MODEL, fleet=config, step_cost=FLEET_STEP_COST, router=router
    )


@settings(max_examples=40, deadline=None)
@given(seed=fleet_seeds, rate=fleet_rates, replicas=fleet_replicas, router=fleet_routers)
def test_fault_free_fleet_settles_every_request(seed, rate, replicas, router):
    config = FleetConfig(
        trace=_fleet_trace(seed, rate), num_replicas=replicas, router=router, scheduler=TIGHT_SCHEDULER
    )
    report = _fleet(config).run()
    assert report.num_requests == 16
    assert report.completed_requests + report.rejected_requests == report.num_requests
    assert report.failed_requests == report.retried_requests == 0
    assert len(report.replicas) == replicas


@settings(max_examples=12, deadline=None)
@given(seed=fleet_seeds, rate=fleet_rates)
def test_single_replica_fleet_equals_serving_simulator_for_every_router(seed, rate):
    trace = _fleet_trace(seed, rate)
    single = ServingSimulator(
        system=FLEET_SYSTEM, model=FLEET_MODEL, step_cost=FLEET_STEP_COST, scheduler_config=TIGHT_SCHEDULER
    ).run(trace)
    for router in sorted(ROUTER_POLICIES):
        config = FleetConfig(trace=trace, num_replicas=1, router=router, scheduler=TIGHT_SCHEDULER)
        report = _fleet(config).run()
        assert report.replicas[0].to_dict() == single.to_dict(), router


@settings(max_examples=30, deadline=None)
@given(seed=fleet_seeds, rate=fleet_rates, replicas=fleet_replicas)
def test_event_loop_round_robin_equals_partitioned_round_robin(seed, rate, replicas):
    config = FleetConfig(trace=_fleet_trace(seed, rate), num_replicas=replicas, scheduler=TIGHT_SCHEDULER)
    partitioned = _fleet(config).run()
    event_loop = _fleet(config, router=_EventLoopRoundRobin()).run()
    assert event_loop.to_dict() == partitioned.to_dict()


# -- serving simulator properties ----------------------------------------------------------

PROMPT_LENGTHS = [
    LengthDistribution.constant(64),
    LengthDistribution.uniform(16, 512),
    LengthDistribution.lognormal(median=200, sigma=1.0, maximum=2000),
]
OUTPUT_LENGTHS = [
    LengthDistribution.constant(16),
    LengthDistribution.uniform(1, 48),
    LengthDistribution.lognormal(median=12, sigma=0.8, maximum=64),
]


@settings(max_examples=40, deadline=None)
@given(
    seed=fleet_seeds,
    rate=fleet_rates,
    num_requests=st.integers(min_value=1, max_value=16),
    prompts=st.sampled_from(PROMPT_LENGTHS),
    outputs=st.sampled_from(OUTPUT_LENGTHS),
    max_batch_size=st.integers(min_value=1, max_value=16),
    tight_memory=st.booleans(),
)
def test_serving_simulator_equals_per_token_reference(
    seed, rate, num_requests, prompts, outputs, max_batch_size, tight_memory
):
    trace = TraceConfig(
        rate=rate, num_requests=num_requests, prompt_lengths=prompts, output_lengths=outputs, seed=seed
    )
    memory = TIGHT_SCHEDULER if tight_memory else SchedulerConfig()
    scheduler = dataclasses.replace(memory, max_batch_size=max_batch_size)
    kwargs = dict(system=FLEET_SYSTEM, model=FLEET_MODEL, step_cost=FLEET_STEP_COST, scheduler_config=scheduler)
    report = ServingSimulator(**kwargs).run(trace)
    assert report.to_dict() == StepwiseSimulator(**kwargs).run(trace).to_dict()
    assert report.completed_requests + report.rejected_requests == num_requests
