"""Equivalence pins: the registered studies reproduce the pre-redesign tables.

``golden_driver_tables.json`` was generated from the per-figure driver
functions *before* the Study redesign (reduced parameterizations, so the pins
stay fast); each table is keyed by the name of the function that produced it.
Each test runs today's registered study with the same parameters and requires
the resulting :class:`~repro.sweep.table.SweepTable` to match
column-for-column -- exactly for identity columns, to float precision for
metrics.
"""

import json
import pathlib

import pytest

from repro.calibration.gemv import run_gemv_validation
from repro.serving import LengthDistribution
from repro.studies import get_study
from repro.studies.extractors import fig7_projection
from repro.sweep import SweepRunner
from repro.validation.reference import TABLE1_TRAINING_ROWS, TABLE2_INFERENCE_ROWS

GOLDEN = json.loads((pathlib.Path(__file__).parent / "golden_driver_tables.json").read_text())


def assert_matches_golden(table, name):
    got = table.to_dict()["columns"]
    want = GOLDEN[name]["columns"]
    assert set(got) == set(want), f"{name}: columns differ: {set(got) ^ set(want)}"
    for column, expected in want.items():
        actual = got[column]
        assert len(actual) == len(expected), f"{name}.{column}: row count differs"
        for index, (a, e) in enumerate(zip(actual, expected)):
            if isinstance(e, float) and isinstance(a, float):
                assert a == pytest.approx(e, rel=1e-12, abs=1e-15), f"{name}.{column}[{index}]"
            else:
                assert a == e, f"{name}.{column}[{index}]: {a!r} != {e!r}"


def test_table1_matches_pre_redesign_output():
    assert_matches_golden(
        get_study("table1_training_validation", rows=TABLE1_TRAINING_ROWS[:2]).run(), "table1_training_validation"
    )


def test_table2_matches_pre_redesign_output():
    rows = [r for r in TABLE2_INFERENCE_ROWS if r.model == "Llama2-13B"][:3]
    assert_matches_golden(get_study("table2_inference_validation", rows=rows).run(), "table2_inference_validation")


def test_table4_matches_pre_redesign_output():
    assert_matches_golden(get_study("table4_gemm_bottlenecks", gpus=("A100",)).run(), "table4_gemm_bottlenecks")


def test_fig3_matches_pre_redesign_output():
    result = run_gemv_validation()
    want = GOLDEN["fig3_gemv_validation"]
    assert result.mean_error_varied_percent == pytest.approx(want["mean_error_varied_percent"], rel=1e-12)
    assert result.mean_error_constant_percent == pytest.approx(want["mean_error_constant_percent"], rel=1e-12)


def test_fig4_matches_pre_redesign_output():
    assert_matches_golden(get_study("fig4_memory_breakdown", models=("GPT-175B",)).run(), "fig4_memory_breakdown")


def test_fig5_matches_pre_redesign_output():
    table = get_study("fig5_gpu_generation_scaling", systems=[("A100-HDR", 1024), ("H100-NDR", 1024)]).run()
    assert_matches_golden(table, "fig5_gpu_generation_scaling")


_FIG6_KWARGS = dict(
    nodes=("N12", "N1"),
    combinations=[{"dram": "HBM2", "network": "NDR-x8"}, {"dram": "HBM4", "network": "GDR-x8"}],
)


def test_fig6_matches_pre_redesign_output():
    table = get_study("fig6_technology_node_scaling", **_FIG6_KWARGS).run()
    assert_matches_golden(table, "fig6_technology_node_scaling")


def test_fig7_matches_pre_redesign_output_from_rows():
    rows = get_study("fig6_technology_node_scaling", **_FIG6_KWARGS).run()
    assert_matches_golden(fig7_projection(rows), "fig7_bound_breakdown")


def test_fig7_registered_study_matches_pre_redesign_output():
    assert_matches_golden(get_study("fig7_bound_breakdown", **_FIG6_KWARGS).run(), "fig7_bound_breakdown")


def test_fig8_matches_pre_redesign_output():
    table = get_study("fig8_inference_boundedness", gpus=("H100",), batch_sizes=(1, 16)).run()
    assert_matches_golden(table, "fig8_inference_boundedness")


def test_fig9_rows_match_pre_redesign_output():
    table = get_study("fig9_memory_technology_scaling", gpu_counts=(2,), memory_technologies=("GDDR6", "HBM2E")).run()
    assert_matches_golden(table, "inference_memory_scaling_study")  # the pre-redesign Fig.-9 function


def test_serving_frontier_matches_pre_redesign_output():
    table = get_study(
        "serving_latency_throughput_frontier",
        model_name="Llama2-7B",
        gpu="A100",
        num_devices=1,
        arrival_rates=(0.5, 2.0),
        tensor_parallels=(1,),
        num_requests=8,
        prompt_lengths=LengthDistribution.uniform(32, 128),
        output_lengths=LengthDistribution.constant(16),
    ).run(runner=SweepRunner())
    assert_matches_golden(table, "serving_latency_throughput_frontier")
