"""Tests for the technology-scaling case studies (Fig. 6 / Fig. 9 machinery)."""

import pytest

from repro.parallelism.config import ParallelismConfig
from repro.studies import get_study
from repro.studies.paper import h100_reference_latency
from repro.sweep import SweepRunner

# A reduced sweep keeps unit tests quick; the benchmarks run the full sweep.
_FAST_KWARGS = dict(
    nodes=("N12", "N7", "N1"),
    combinations=[
        {"dram": "HBM2", "network": "NDR-x8"},
        {"dram": "HBM4", "network": "NDR-x8"},
        {"dram": "HBM4", "network": "GDR-x8"},
    ],
)


@pytest.fixture(scope="module")
def node_rows():
    return get_study("fig6_technology_node_scaling", **_FAST_KWARGS).run()


def test_node_scaling_row_count(node_rows):
    assert len(node_rows) == 3 * 3


def test_training_time_decreases_with_node(node_rows):
    series = [row.step_time for row in node_rows if row.label == "HBM2-NDR-x8"]
    assert series == sorted(series, reverse=True)


def test_node_scaling_saturates(node_rows):
    """The N12->N7 gain is much larger than the N7->N1 gain (saturation at advanced nodes)."""
    series = {row.technology_node: row.step_time for row in node_rows if row.label == "HBM2-NDR-x8"}
    early_gain = series["N12"] / series["N7"]
    late_gain = series["N7"] / series["N1"]
    assert early_gain > late_gain


def test_better_memory_and_network_help(node_rows):
    by_label = {}
    for row in node_rows:
        if row.technology_node == "N1":
            by_label[row.label] = row.step_time
    assert by_label["HBM4-NDR-x8"] < by_label["HBM2-NDR-x8"]
    assert by_label["HBM4-GDR-x8"] < by_label["HBM4-NDR-x8"]


def test_memory_boundedness_grows_with_node(node_rows):
    rows = [row for row in node_rows if row.label == "HBM2-NDR-x8"]
    fractions = {
        row.technology_node: row.gemm_memory_bound_time / (row.gemm_memory_bound_time + row.gemm_compute_bound_time)
        for row in rows
    }
    assert fractions["N1"] > fractions["N12"]


def test_node_scaling_breakdown_consistency(node_rows):
    for row in node_rows:
        assert row.step_time == pytest.approx(row.compute_time + row.communication_time + row.other_time, rel=1e-6)


def test_custom_parallelism_is_respected():
    rows = get_study(
        "fig6_technology_node_scaling",
        model="GPT-7B",
        parallelism=ParallelismConfig(data_parallel=16, tensor_parallel=4, pipeline_parallel=4, micro_batch_size=1),
        global_batch_size=128,
        num_devices=256,
        nodes=("N7",),
        combinations=[{"dram": "HBM2E", "network": "NDR-x8"}],
    ).run()
    assert len(rows) == 1
    assert rows[0].step_time > 0


@pytest.mark.parametrize("node", ["N12", "N7", "N1"])
def test_optimized_allocation_is_no_slower_and_probes_through_the_callers_runner(node):
    """`optimize_allocation` searches each point's area/power split with the caller's runner.

    At N1 some gradient probes leave no power headroom and cannot be built;
    they count as infeasible instead of aborting the search.
    """
    kwargs = dict(nodes=(node,), combinations=[{"dram": "HBM3", "network": "NDR-x8"}])
    runner = SweepRunner()
    optimized = get_study(
        "fig6_technology_node_scaling", optimize_allocation=True, runner=runner, **kwargs
    ).run(runner=runner)
    default = get_study("fig6_technology_node_scaling", **kwargs).run(runner=SweepRunner())
    assert len(optimized) == len(default) == 1
    assert optimized[0].step_time <= default[0].step_time
    assert runner.stats.evaluations > len(optimized)


@pytest.fixture(scope="module")
def memory_rows():
    return get_study(
        "fig9_memory_technology_scaling",
        gpu_counts=(2, 8),
        memory_technologies=("GDDR6", "HBM2E", "HBM3E", "HBMX"),
    ).run()


def test_memory_scaling_latency_decreases_with_bandwidth(memory_rows):
    two_gpu = [row for row in memory_rows if row.num_gpus == 2 and row.network == "NVLink3"]
    latencies = [row.total_latency for row in two_gpu]
    assert latencies == sorted(latencies, reverse=True)


def test_memory_scaling_saturates_at_hbmx(memory_rows):
    """Once the DRAM bandwidth passes the on-chip (L2) bandwidth the gains stop."""
    two_gpu = {row.dram_technology: row.memory_time for row in memory_rows if row.num_gpus == 2 and row.network == "NVLink3"}
    early_gain = two_gpu["GDDR6"] / two_gpu["HBM2E"]
    late_gain = two_gpu["HBM3E"] / two_gpu["HBMX"]
    assert early_gain > 2.0
    assert late_gain < 1.15


def test_communication_independent_of_memory_technology(memory_rows):
    eight_gpu = [row for row in memory_rows if row.num_gpus == 8 and row.network == "NVLink3"]
    comm_times = {row.communication_time for row in eight_gpu}
    assert max(comm_times) - min(comm_times) < 1e-6


def test_nvlink4_reduces_communication(memory_rows):
    nv3 = [r for r in memory_rows if r.num_gpus == 8 and r.dram_technology == "HBMX" and r.network == "NVLink3"][0]
    nv4 = [r for r in memory_rows if r.num_gpus == 8 and r.dram_technology == "HBMX" and r.network == "NVLink4"][0]
    assert nv4.communication_time < nv3.communication_time
    assert nv4.memory_time == pytest.approx(nv3.memory_time, rel=1e-6)


def test_eight_gpus_trade_memory_for_communication(memory_rows):
    two = [r for r in memory_rows if r.num_gpus == 2 and r.dram_technology == "HBM2E" and r.network == "NVLink3"][0]
    eight = [r for r in memory_rows if r.num_gpus == 8 and r.dram_technology == "HBM2E" and r.network == "NVLink3"][0]
    assert eight.memory_time < two.memory_time
    assert eight.communication_time > two.communication_time


def test_h100_reference_latency_reasonable():
    latency = h100_reference_latency(num_gpus=2)
    assert 1.0 < latency < 3.0


def test_memory_scaling_study_supports_exact_decode():
    """The Fig.-9 study threads decode_mode through to the inference engine."""
    kwargs = dict(gpu_counts=(2,), memory_technologies=("HBM2E",), extra_points=[])
    average = get_study("fig9_memory_technology_scaling", **kwargs).run()
    exact = get_study("fig9_memory_technology_scaling", decode_mode="exact", **kwargs).run()
    assert len(average) == len(exact) == 1
    assert exact[0].memory_time != average[0].memory_time
    assert exact[0].total_latency == pytest.approx(average[0].total_latency, rel=0.05)
    # Communication does not depend on the decode pricing mode.
    assert exact[0].communication_time == pytest.approx(average[0].communication_time, rel=1e-9)
