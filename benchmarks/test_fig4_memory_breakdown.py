"""Benchmark: regenerate paper Fig. 4 (training memory dissection).

Per-device memory breakdown (optimizer state + gradients, parameters,
activations) for GPT-175B, GPT-530B and GPT-1T under the three activation
recomputation strategies, using the Table 1 parallelism configurations and
2-byte mixed-precision training.  The paper's headline: without recomputation
the models do not fit in an 80 GB A100, and full recomputation frees enough
memory to train them.
"""

from __future__ import annotations

from conftest import emit, run_once

from repro.analysis.formatting import render_table
from repro.studies import get_study


def test_fig4_memory_breakdown(benchmark):
    rows = run_once(benchmark, lambda: get_study("fig4_memory_breakdown").run())

    emit(
        render_table(
            rows,
            columns=["model", "strategy", "parameters_gb", "optimizer_gb", "activations_gb", "total_gb", "fits_80gb"],
            title="Fig. 4: per-device training memory breakdown (A100 capacity = 80 GB)",
            precision=1,
        )
    )

    by_key = {(row["model"], row["strategy"]): row for row in rows}
    benchmark.extra_info["gpt175b_full_total_gb"] = round(by_key[("GPT-175B", "full")]["total_gb"], 1)
    benchmark.extra_info["gpt1t_none_total_gb"] = round(by_key[("GPT-1008B", "none")]["total_gb"], 1)

    models = ("GPT-175B", "GPT-530B", "GPT-1008B")
    for model in models:
        none, selective, full = (by_key[(model, s)]["total_gb"] for s in ("none", "selective", "full"))
        # Memory ordering across the strategies.
        assert none > selective > full
        # No recomputation never fits in 80 GB; full recomputation always does
        # (those are the configurations Megatron actually ran).
        assert not by_key[(model, "none")]["fits_80gb"]
        assert by_key[(model, "full")]["fits_80gb"]
        # Activations dominate the no-recompute footprint.
        assert by_key[(model, "none")]["activations_gb"] > by_key[(model, "none")]["optimizer_gb"]
    # Bigger models need more total memory without recomputation.
    totals = [by_key[(model, "none")]["total_gb"] for model in models]
    assert totals == sorted(totals)
