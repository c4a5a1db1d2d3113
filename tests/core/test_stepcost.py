"""Tests for the step-cost layer (prefill / decode steps over mixed batches)."""

import dataclasses

import numpy as np
import pytest
from serving_oracle import step_time

from repro.core.stepcost import StepCost, StepCostModel, ZERO_STEP
from repro.hardware.cluster import build_system
from repro.hardware.datatypes import Precision
from repro.models.zoo import get_model


@pytest.fixture(scope="module")
def system():
    return build_system("A100", num_devices=8, intra_node="NVLink3", inter_node="HDR-IB")


@pytest.fixture(scope="module")
def model():
    return get_model("Llama2-7B")


@pytest.fixture(scope="module")
def step_cost(system):
    return StepCostModel(system=system)


def decode_step(step_cost, model, kv_lens, **kwargs):
    """One decode step: a one-step :meth:`StepCostModel.decode_run`."""
    run = step_cost.decode_run(model, kv_lens, 1, **kwargs)
    return StepCost(float(run.device_times[0]), run.communication_time)


def test_empty_steps_are_free(step_cost, model):
    assert step_cost.prefill_step(model, []) is ZERO_STEP
    assert step_cost.decode_run(model, [], 1).num_steps == 0
    assert ZERO_STEP.total_time == 0.0


def test_step_cost_totals(step_cost, model):
    for cost in (step_cost.prefill_step(model, [100, 200]), decode_step(step_cost, model, [100, 200])):
        assert cost.total_time == cost.device_time + cost.communication_time
        assert cost.device_time > 0


def test_prefill_step_grows_with_prompt_length(step_cost, model):
    short = step_cost.prefill_step(model, [64])
    long = step_cost.prefill_step(model, [512])
    assert long.total_time > short.total_time


def test_decode_step_grows_with_kv_length(step_cost, model):
    near = decode_step(step_cost, model, [64] * 4)
    far = decode_step(step_cost, model, [4096] * 4)
    assert far.total_time > near.total_time


def test_decode_step_sublinear_in_batch(step_cost, model):
    """Batching decodes shares the weight streams: 8 together << 8 alone."""
    single = decode_step(step_cost, model, [256])
    batched = decode_step(step_cost, model, [256] * 8)
    assert batched.total_time < 8 * single.total_time
    assert batched.total_time > single.total_time


def test_mixed_kv_between_uniform_bounds(step_cost, model):
    mixed = decode_step(step_cost, model, [100, 200, 300, 400])
    low = decode_step(step_cost, model, [100] * 4)
    high = decode_step(step_cost, model, [400] * 4)
    assert low.total_time < mixed.total_time < high.total_time


def test_decode_step_order_invariant(step_cost, model):
    forward = decode_step(step_cost, model, [100, 200, 300])
    backward = decode_step(step_cost, model, [300, 200, 100])
    assert forward.total_time == backward.total_time


def test_tensor_parallel_adds_communication(step_cost, model):
    alone = decode_step(step_cost, model, [200] * 4, tensor_parallel=1)
    sharded = decode_step(step_cost, model, [200] * 4, tensor_parallel=4)
    assert alone.communication_time == 0.0
    assert sharded.communication_time > 0.0
    # Decode is memory bound: sharding the weights cuts the device time.
    assert sharded.device_time < alone.device_time


def test_lm_head_toggle(step_cost, model):
    with_head = decode_step(step_cost, model, [128] * 2, include_lm_head=True)
    without = decode_step(step_cost, model, [128] * 2, include_lm_head=False)
    assert with_head.device_time > without.device_time


def test_precision_shrinks_traffic(step_cost, model):
    fp16 = decode_step(step_cost, model, [256] * 4, precision=Precision.FP16)
    fp8 = decode_step(step_cost, model, [256] * 4, precision=Precision.FP8)
    assert fp8.device_time < fp16.device_time


def test_prefill_matches_single_request_phase_scale(step_cost, model, system):
    """A one-request prefill step equals the single-request prefill report.

    The two layers sum the same kernels in different orders, so they agree
    to rounding (within one ulp on this grid), not bit for bit.
    """
    from repro.core.inference import InferencePerformanceModel

    predictor = InferencePerformanceModel(system=system, check_memory=False)
    for tensor_parallel in (1, 4):
        for prompt in (64, 256, 512, 2048):
            report = predictor.predict(
                model, batch_size=1, prompt_tokens=prompt, generated_tokens=1, tensor_parallel=tensor_parallel
            )
            step = step_cost.prefill_step(model, [prompt], tensor_parallel=tensor_parallel)
            assert step.total_time == pytest.approx(report.prefill.total_time, rel=1e-12), (
                prompt,
                tensor_parallel,
            )


def test_decode_matches_single_request_step(step_cost, model, system):
    """A one-request decode step equals one step of the exact decode phase."""
    from repro.core.inference import InferencePerformanceModel

    predictor = InferencePerformanceModel(system=system, check_memory=False)
    # One generated token at KV length = prompt: exactly one decode step.
    report = predictor.predict(
        model, batch_size=1, prompt_tokens=300, generated_tokens=1, decode_mode="exact"
    )
    step = decode_step(step_cost, model, [300])
    assert step.total_time == pytest.approx(report.decode.total_time, rel=0.01)


def test_step_cost_is_deterministic(system, model):
    for price in (decode_step, lambda cost, model, lens: cost.prefill_step(model, lens)):
        a = price(StepCostModel(system=system), model, [123, 456])
        b = price(StepCostModel(system=system), model, [123, 456])
        assert a == b


def test_tp_scope_selection(step_cost, system):
    assert step_cost.tp_scope(1) == "intra_node"
    assert step_cost.tp_scope(system.devices_per_node) == "intra_node"
    assert step_cost.tp_scope(system.devices_per_node + 1) == "inter_node"


def test_step_cost_dataclass_is_value_like():
    cost = StepCost(1.0, 0.5)
    assert cost.total_time == 1.5
    assert cost == StepCost(1.0, 0.5)


# -- epoch-fused decode pricing ----------------------------------------------------------

def _assert_run_matches_steps(step_cost, model, kv_lens, num_steps, **kwargs):
    """decode_run must equal num_steps per-op reference steps exactly."""
    run = step_cost.decode_run(model, kv_lens, num_steps, **kwargs)
    expected = [
        step_time(step_cost, model, [1] * len(kv_lens), [kv + step for kv in kv_lens], **kwargs)
        for step in range(num_steps)
    ]
    assert run.num_steps == num_steps
    assert run.total_times.tolist() == expected
    assert run.total_times.tolist() == (run.device_times + run.communication_time).tolist()


def test_decode_run_matches_sequential_decode_steps(step_cost, model):
    _assert_run_matches_steps(step_cost, model, [100, 237, 100, 64], 17)


def test_decode_run_matches_decode_steps_single_request(step_cost, model):
    _assert_run_matches_steps(step_cost, model, [321], 5)


def test_decode_run_matches_decode_steps_with_tensor_parallel(step_cost, model):
    _assert_run_matches_steps(step_cost, model, [64, 640], 9, tensor_parallel=4)


def test_decode_run_matches_decode_steps_without_lm_head(step_cost, model):
    _assert_run_matches_steps(step_cost, model, [80, 81, 82], 7, include_lm_head=False)


def test_decode_run_matches_decode_steps_fp8(step_cost, model):
    _assert_run_matches_steps(step_cost, model, [150, 90], 6, precision=Precision.FP8)


def test_decode_run_agrees_after_scalar_warmup(system, model):
    # Order of first evaluation (batched table fill vs scalar memo) must not
    # change the numbers: warm one model scalar-first, one fused-first.
    scalar_first = StepCostModel(system=system)
    for step in range(4):
        step_time(scalar_first, model, [1, 1], [200 + step, 50 + step])
    fused_first = StepCostModel(system=system)
    run_a = scalar_first.decode_run(model, [200, 50], 4)
    run_b = fused_first.decode_run(model, [200, 50], 4)
    assert run_a.total_times.tolist() == run_b.total_times.tolist()
    assert run_a.device_times.tolist() == run_b.device_times.tolist()


def test_decode_run_empty_inputs(step_cost, model):
    assert step_cost.decode_run(model, [], 5).num_steps == 0
    assert step_cost.decode_run(model, [100], 0).num_steps == 0


def test_step_cost_cache_counters_grow(system, model):
    probe = StepCostModel(system=system)
    assert probe.cache_hits == 0 and probe.cache_misses == 0
    probe.decode_run(model, [100, 200], 8)
    first_misses = probe.cache_misses
    assert first_misses > 0
    probe.decode_run(model, [100, 200], 8)
    assert probe.cache_misses == first_misses  # identical epoch: all hits
    assert probe.cache_hits > 0


@pytest.mark.parametrize(
    "kwargs",
    [{}, {"tensor_parallel": 4}, {"include_lm_head": False}, {"precision": Precision.FP8}],
    ids=["default", "tp4", "no-lm-head", "fp8"],
)
def test_prefill_step_matches_per_op_reference(step_cost, model, kwargs):
    for prompts in ([256], [64, 512, 64], [17, 1000, 333, 2]):
        step = step_cost.prefill_step(model, prompts, **kwargs)
        assert step.total_time == step_time(step_cost, model, prompts, prompts, **kwargs)


def test_attention_tables_evict_only_the_oldest_configuration(system, model):
    from repro.core.stepcost import _MAX_ATTENTION_TABLES

    probe = StepCostModel(system=system)
    configs = [dataclasses.replace(model, name=f"{model.name}-{index}") for index in range(_MAX_ATTENTION_TABLES + 1)]
    first = probe.decode_run(configs[0], [100, 200], 3)
    for config in configs[1:]:
        probe.decode_run(config, [100, 200], 3)
    cached = {key[0].name for key in probe._attention_tables}
    assert cached == {config.name for config in configs[1:]}
    # The evicted configuration re-prices from a fresh table, bit for bit;
    # re-inserting it evicts the next-oldest one only.
    again = probe.decode_run(configs[0], [100, 200], 3)
    assert np.array_equal(again.total_times, first.total_times)
    assert np.array_equal(again.device_times, first.device_times)
    cached = {key[0].name for key in probe._attention_tables}
    assert cached == {config.name for config in [configs[0], *configs[2:]]}
