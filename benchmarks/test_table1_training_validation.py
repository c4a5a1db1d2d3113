"""Benchmark: regenerate paper Table 1 (training-time validation on A100 clusters).

For every row of the paper's Table 1 (GPT-22B to GPT-1T on 8 to 3072 A100
GPUs, with TP/PP/SP/DP and full or selective recomputation), predict the
training time per batch and compare against the published reference time.
The paper reports relative errors mostly below 10%.
"""

from __future__ import annotations

from conftest import emit, run_once

from repro.analysis.formatting import render_table, summarize_errors
from repro.studies import get_study


def test_table1_training_validation(benchmark):
    rows = run_once(benchmark, lambda: get_study("table1_training_validation").run())

    emit(
        render_table(
            rows,
            columns=[
                "model",
                "num_gpus",
                "parallelism",
                "recompute",
                "reference_s",
                "paper_pred_s",
                "predicted_s",
                "relative_error_%",
            ],
            title="Table 1: training time per batch on A100 clusters (reference vs prediction)",
            precision=1,
        )
    )
    errors = [row["relative_error_%"] for row in rows]
    summary = summarize_errors(errors)
    emit(f"mean |error| = {summary['mean_abs_error_%']:.1f}%   max |error| = {summary['max_abs_error_%']:.1f}%")

    benchmark.extra_info["mean_abs_error_percent"] = round(summary["mean_abs_error_%"], 2)
    benchmark.extra_info["max_abs_error_percent"] = round(summary["max_abs_error_%"], 2)

    # Shape assertions: every row within a 12% band, mean within 7%, and the
    # qualitative orderings of the paper hold.
    assert len(rows) == 11
    assert all(abs(error) < 12.0 for error in errors)
    assert summary["mean_abs_error_%"] < 7.0
    full = {r["model"]: r["predicted_s"] for r in rows if r["recompute"] == "full" and r["num_gpus"] <= 512}
    selective = {r["model"]: r["predicted_s"] for r in rows if r["recompute"] == "selective"}
    for model in ("GPT-175B", "GPT-530B", "GPT-1008B"):
        assert selective[model] < full[model]
