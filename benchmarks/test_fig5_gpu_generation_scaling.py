"""Benchmark: regenerate paper Fig. 5 (GPT-175B training scaling across GPU generations).

Project the GPT-175B training time (Table 3 case-study configuration,
8192 GPUs, DP-TP-PP-SP = 128-8-8-8) across A100-HDR, H100-NDR, H100-NVS,
H200-NVS-L, B200-NDR, B200-NVS and B200-NVS-L clusters, with the per-
generation precision upgrades (FP8 transformer engine on H100/H200, FP4 on
B200) and larger batches on the large-memory "-L" variants.  The paper
reports ~4x from A100 to H100-NDR and ~35x from A100 to B200-NVS-L,
following NVIDIA's scaling trend; the reproduction checks the ordering and
the speed-up bands.
"""

from __future__ import annotations

from conftest import emit, run_once

from repro.analysis.formatting import render_table
from repro.studies import get_study
from repro.validation.reference import GPU_GENERATION_SPEEDUP_CLAIMS


def test_fig5_gpu_generation_scaling(benchmark):
    rows = run_once(benchmark, lambda: get_study("fig5_gpu_generation_scaling").run())

    emit(
        render_table(
            rows,
            columns=[
                "system",
                "precision",
                "batch_size",
                "step_time_s",
                "compute_s",
                "communication_s",
                "other_s",
                "speedup_vs_a100",
                "normalized_time",
            ],
            title="Fig. 5: GPT-175B training scaling across GPU generations (per-sequence speed-up vs A100-HDR)",
            precision=2,
        )
    )

    by_system = {row["system"]: row for row in rows}
    for system, row in by_system.items():
        benchmark.extra_info[f"speedup_{system}"] = round(row["speedup_vs_a100"], 1)

    # The generations get monotonically faster per sequence in the order plotted.
    speedups = [row["speedup_vs_a100"] for row in rows]
    assert speedups[0] == 1.0
    assert speedups == sorted(speedups)
    # The paper's qualitative speed-up claims hold (bands defined in validation.reference).
    for system, (low, high) in GPU_GENERATION_SPEEDUP_CLAIMS.items():
        assert low <= by_system[system]["speedup_vs_a100"] <= high, (system, by_system[system]["speedup_vs_a100"])
    # NVS removes most of the inter-node communication exposed on the IB clusters.
    assert by_system["H100-NVS"]["communication_s"] < by_system["H100-NDR"]["communication_s"]
    assert by_system["B200-NVS"]["communication_s"] < by_system["B200-NDR"]["communication_s"]
    # Compute (not communication) dominates the A100 baseline, as in the figure.
    a100 = by_system["A100-HDR"]
    assert a100["compute_s"] > a100["communication_s"] + a100["other_s"]
