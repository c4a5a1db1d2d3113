"""Benchmark: regenerate paper Table 2 (Llama-2 inference-latency validation).

For every row of Table 2 (Llama2-7B/13B/70B on A100 and H100 systems with
TP = 1..8, batch 1, 200 prompt + 200 generated tokens), predict the
end-to-end latency and compare against NVIDIA's published numbers.  The
paper matches them within a 13% relative error.
"""

from __future__ import annotations

from conftest import emit, run_once

from repro.analysis.formatting import render_table, summarize_errors
from repro.studies import get_study


def test_table2_inference_validation(benchmark):
    rows = run_once(benchmark, lambda: get_study("table2_inference_validation").run())

    emit(
        render_table(
            rows,
            columns=["model", "gpu", "num_gpus", "nvidia_ms", "paper_pred_ms", "predicted_ms", "relative_error_%"],
            title="Table 2: inference latency (batch 1, 200+200 tokens) vs NVIDIA reference",
            precision=0,
        )
    )
    errors = [row["relative_error_%"] for row in rows]
    summary = summarize_errors(errors)
    emit(f"mean |error| = {summary['mean_abs_error_%']:.1f}%   max |error| = {summary['max_abs_error_%']:.1f}%")

    benchmark.extra_info["mean_abs_error_percent"] = round(summary["mean_abs_error_%"], 2)
    benchmark.extra_info["max_abs_error_percent"] = round(summary["max_abs_error_%"], 2)

    assert len(rows) == 22
    # Every row within the paper's 13% band.
    assert all(abs(error) <= 13.0 for error in errors)
    # H100 is always predicted faster than the A100 for the same configuration.
    a100 = {(r["model"], r["num_gpus"]): r["predicted_ms"] for r in rows if r["gpu"] == "A100"}
    h100 = {(r["model"], r["num_gpus"]): r["predicted_ms"] for r in rows if r["gpu"] == "H100"}
    assert all(h100[key] < a100[key] for key in a100)
    # Inference scales poorly with GPU count: 1 -> 8 GPUs gains far less than 8x.
    llama13 = {r["num_gpus"]: r["predicted_ms"] for r in rows if r["model"] == "Llama2-13B" and r["gpu"] == "A100"}
    assert llama13[1] / llama13[8] < 4.0
