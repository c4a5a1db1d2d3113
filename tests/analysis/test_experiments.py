"""Tests for the registered per-table/figure studies.

The full sweeps run in the benchmark harness; here each study is run on a
reduced scope to check structure and the headline qualitative claims.
"""

import pytest

from repro.calibration.gemv import run_gemv_validation
from repro.serving import LengthDistribution
from repro.studies import get_study
from repro.sweep import SweepRunner
from repro.validation.reference import TABLE1_TRAINING_ROWS, TABLE2_INFERENCE_ROWS


def test_table1_driver_single_row_accuracy():
    rows = get_study("table1_training_validation", rows=[TABLE1_TRAINING_ROWS[1]]).run()  # GPT-175B, 64 GPUs, full
    assert len(rows) == 1
    row = rows[0]
    assert row["model"] == "GPT-175B"
    assert abs(row["relative_error_%"]) < 10.0
    assert row["predicted_s"] == pytest.approx(row["compute_s"] + row["communication_s"] + row["other_s"], rel=1e-6)


def test_table2_driver_single_row_accuracy():
    target = [row for row in TABLE2_INFERENCE_ROWS if row.model == "Llama2-13B" and row.num_gpus == 1 and row.gpu == "A100"]
    rows = get_study("table2_inference_validation", rows=target).run()
    assert len(rows) == 1
    assert abs(rows[0]["relative_error_%"]) < 13.0
    assert rows[0]["predicted_ms"] > 0


def test_table4_driver_structure():
    rows = get_study("table4_gemm_bottlenecks", gpus=("A100",)).run()
    names = {row["gemm"] for row in rows}
    assert {"qkv_projection", "mlp_4h_to_h"}.issubset(names)
    assert all(row["bound"] in ("compute", "memory") for row in rows)


def test_fig3_driver_errors():
    result = run_gemv_validation()
    assert result.mean_error_varied_percent < result.mean_error_constant_percent


def test_fig4_driver_orderings():
    rows = get_study("fig4_memory_breakdown", models=("GPT-175B",)).run()
    by_strategy = {row["strategy"]: row for row in rows}
    assert by_strategy["none"]["total_gb"] > by_strategy["selective"]["total_gb"] > by_strategy["full"]["total_gb"]
    assert not by_strategy["none"]["fits_80gb"]
    assert by_strategy["full"]["fits_80gb"]


def test_fig5_driver_small_subset():
    rows = get_study("fig5_gpu_generation_scaling", systems=[("A100-HDR", 1024), ("H100-NDR", 1024)]).run()
    assert len(rows) == 2
    assert rows[0]["speedup_vs_a100"] == pytest.approx(1.0)
    assert rows[1]["speedup_vs_a100"] > 2.0
    assert rows[1]["precision"] == "fp8"


def test_fig8_driver_claims():
    rows = get_study("fig8_inference_boundedness", gpus=("H100",), batch_sizes=(1, 16)).run()
    by_batch = {row["batch_size"]: row for row in rows}
    assert by_batch[1]["compute_bound_fraction"] < 0.1
    assert by_batch[16]["compute_bound_fraction"] > 0.6
    assert by_batch[16]["kv_cache_gb"] > by_batch[1]["kv_cache_gb"]
    assert by_batch[1]["weights_gb"] == pytest.approx(by_batch[16]["weights_gb"])


def test_serving_frontier_driver_structure_and_claims():
    table = get_study(
        "serving_latency_throughput_frontier",
        model_name="Llama2-7B",
        gpu="A100",
        num_devices=1,
        arrival_rates=(0.5, 2.0, 8.0),
        tensor_parallels=(1,),
        num_requests=12,
        prompt_lengths=LengthDistribution.uniform(32, 128),
        output_lengths=LengthDistribution.constant(16),
    ).run(runner=SweepRunner())
    assert len(table) == 3
    for column in ("ttft_p50_s", "ttft_p99_s", "tpot_p50_s", "tpot_p99_s", "goodput_rps", "error"):
        assert column in table.keys()
    assert table["error"].tolist() == [None, None, None]
    assert table["arrival_rate"].tolist() == [0.5, 2.0, 8.0]
    # Offered load rises -> delivered throughput rises (below saturation) and
    # the decode batches deepen.
    throughput = table["requests_per_s"]
    assert throughput[1] > throughput[0]
    assert (table["utilization"] > 0).all()
    assert table["mean_decode_batch"][2] >= table["mean_decode_batch"][0]


def test_serving_frontier_driver_captures_infeasible_corners():
    table = get_study(
        "serving_latency_throughput_frontier",
        model_name="Llama2-70B",  # never fits one A100
        gpu="A100",
        num_devices=1,
        arrival_rates=(1.0,),
        tensor_parallels=(1,),
        num_requests=4,
    ).run(runner=SweepRunner())
    assert len(table) == 1
    assert table[0]["error"] is not None
    assert table[0]["ttft_p50_s"] is None
