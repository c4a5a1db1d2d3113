"""Benchmark: regenerate paper Table 4 (per-GEMM bottlenecks, Llama2-13B prefill).

Identify the execution time and bound type of every matrix-multiply function
of one transformer layer during the 200-token summarization phase on a single
A100 and a single H100 (half precision, batch 1).  The paper finds the A100's
projection/MLP GEMMs compute bound and the attention GEMMs memory bound,
while on the H100 every GEMM becomes memory (DRAM) bound.
"""

from __future__ import annotations

from conftest import emit, run_once

from repro.analysis.formatting import render_table
from repro.studies import get_study


def test_table4_gemm_bottlenecks(benchmark):
    rows = run_once(benchmark, lambda: get_study("table4_gemm_bottlenecks").run())

    emit(
        render_table(
            rows,
            columns=["gpu", "gemm", "m", "n", "k", "batch", "time_us", "bound"],
            title="Table 4: GEMM-level bottlenecks in the summarization phase (Llama2-13B, B=1, 200 tokens)",
            precision=1,
        )
    )

    a100 = {row["gemm"]: row for row in rows if row["gpu"] == "A100"}
    h100 = {row["gemm"]: row for row in rows if row["gpu"] == "H100"}

    benchmark.extra_info["a100_compute_bound_gemms"] = sum(1 for r in a100.values() if r["bound"] == "compute")
    benchmark.extra_info["h100_memory_bound_gemms"] = sum(1 for r in h100.values() if r["bound"] == "memory")

    # A100: the weight GEMMs are compute bound, the per-head attention GEMMs memory bound.
    for name in ("qkv_projection", "attention_output", "mlp_h_to_4h", "mlp_4h_to_h"):
        assert a100[name]["bound"] == "compute", name
    for name in ("attention_scores", "attention_context"):
        assert a100[name]["bound"] == "memory", name
    # H100: every GEMM is memory bound.
    assert all(row["bound"] == "memory" for row in h100.values())
    # H100 is faster per GEMM despite being memory bound.
    assert all(h100[name]["time_us"] < a100[name]["time_us"] for name in a100)
    # The MLP block dominates the layer's GEMM time, as in the paper (216 + 109 us
    # of 455 us total on the A100).
    mlp_time = sum(r["time_us"] for name, r in a100.items() if name.startswith("mlp"))
    attention_time = sum(r["time_us"] for name, r in a100.items() if not name.startswith("mlp"))
    assert mlp_time > attention_time
