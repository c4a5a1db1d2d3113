"""The benchmark's own tests.

Named ``check_*.py`` so the repository's tier-1 run (``pytest`` from the
root, default ``test_*.py`` discovery) neither collects nor runs them; run
them explicitly::

    python3 -m pytest -q perfbench/tests/check_perfbench.py

The smoke runs shrink each workload in-process (fewer models, requests and
jobs) and replace the fresh-interpreter set-up probes with a stub, so the
whole file takes well under a minute.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from pbench import fleet_mixed, layers, service_jobs, sweep_grid  # noqa: E402
from pbench.common import Outcome, import_program, parallel_scaling, stop_helper_processes  # noqa: E402
from pbench.spans import Span, covered, self_times, summarize  # noqa: E402

import run as run_script  # noqa: E402

import_program()

END_TO_END = [name for name, *_ in layers.END_TO_END]
PER_LAYER = [name for name, *_ in layers.PER_LAYER]


# ---------------------------------------------------------------------------
# Self-time arithmetic
# ---------------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        Span(0, "job", 0.0, 10.0, -1, "op"),
        Span(1, "child", 1.0, 3.0, 0, "op"),
        Span(2, "child", 2.0, 4.0, 0, "op"),  # overlaps the first child: counted once
        Span(3, "child", 9.0, 12.0, 0, "op"),  # runs past the parent: clipped at 10
        Span(4, "leaf", 1.5, 2.5, 1, "op"),  # a grandchild does not reduce the job
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 3.0 - 1.0)
    assert own[1] == pytest.approx(2.0 - 1.0)
    assert own[2] == pytest.approx(2.0)
    assert own[4] == pytest.approx(1.0)
    totals = summarize(spans)
    assert totals["child"].calls == 3
    assert totals["child"].total_s == pytest.approx(2.0 + 2.0 + 3.0)
    assert totals["child"].self_s == pytest.approx(1.0 + 2.0 + 3.0)
    assert totals["job"].self_s == pytest.approx(6.0)


def test_covered_handles_disjoint_nested_and_empty_intervals():
    assert covered([], 0.0, 5.0) == 0.0
    assert covered([(1.0, 2.0), (3.0, 4.0)], 0.0, 5.0) == pytest.approx(2.0)
    assert covered([(1.0, 4.0), (2.0, 3.0)], 0.0, 5.0) == pytest.approx(3.0)
    assert covered([(-1.0, 1.0), (6.0, 7.0)], 0.0, 5.0) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------


def test_two_seeds_give_same_shaped_but_different_sweep_grids():
    one, two = sweep_grid.GridInputs.from_seed(1), sweep_grid.GridInputs.from_seed(2)
    assert one == sweep_grid.GridInputs.from_seed(1)
    assert one != two
    for field in ("kv_lens", "prompt_tokens", "generated_tokens"):
        assert len(getattr(one, field)) == len(getattr(two, field))
    grid_one, grid_two = sweep_grid.build_scenarios(one), sweep_grid.build_scenarios(two)
    assert len(grid_one) == len(grid_two)
    assert [s.kind for s in grid_one] == [s.kind for s in grid_two]
    assert [s.cache_key() for s in grid_one] != [s.cache_key() for s in grid_two]


def test_two_seeds_give_same_shaped_but_different_fleet_traces():
    one = fleet_mixed.make_trace(1).generate_columns()
    again = fleet_mixed.make_trace(1).generate_columns()
    two = fleet_mixed.make_trace(2).generate_columns()
    assert len(one) == len(two) == fleet_mixed.NUM_REQUESTS
    assert (one.prompt_tokens == again.prompt_tokens).all()
    assert (one.tenant_ids == two.tenant_ids).sum() < len(one)  # tenants interleave differently
    assert not (one.prompt_tokens == two.prompt_tokens).all()


def test_two_seeds_give_same_shaped_but_different_job_streams():
    def take(seed):
        stream = service_jobs.JobStream(seed)
        return [stream.next() for _ in range(60)]

    one, again, two = take(1), take(1), take(2)
    assert one == again
    assert one != two
    for stream in (one, two):
        fresh = sum(submission.fresh for submission in stream)
        assert 0.3 * len(stream) < fresh < 0.7 * len(stream)
        keys = [s.key for s in stream if s.fresh]
        assert len(keys) == len(set(keys))  # every fresh spec is new
    assert one[0].document == two[0].document == {"study": service_jobs.REGISTERED_STUDY}


# ---------------------------------------------------------------------------
# Small-scale smoke runs
# ---------------------------------------------------------------------------


@pytest.fixture
def quick(monkeypatch):
    """Skip the fresh-interpreter set-up probes and the host scaling probe."""
    for module in (sweep_grid, fleet_mixed, service_jobs):
        monkeypatch.setattr(module, "measure_setup", lambda workload, seed: 0.5)
        monkeypatch.setattr(module, "host_block", lambda: {"nproc": 1})
    return monkeypatch


def _check_outcome(outcome: Outcome, trace: bool) -> None:
    assert outcome.correct, outcome.report["checks"]
    assert outcome.failed == 0 and outcome.attempted > 0
    line = json.loads(run_script._result_line(outcome, trace))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == (PER_LAYER if trace else END_TO_END)
    if not trace:
        assert all(entry["value"] > 0 for entry in line["metrics"].values())


@pytest.mark.parametrize("trace", [False, True])
def test_sweep_grid_smoke(quick, trace):
    quick.setattr(sweep_grid, "TRAINING_MODELS", ("GPT-22B",))
    quick.setattr(sweep_grid, "CLUSTER_SIZES", (64,))
    quick.setattr(sweep_grid, "INFERENCE_MODELS", ("Llama2-7B",))
    quick.setattr(sweep_grid, "DECODE_MODELS", ("GPT-7B",))
    outcome = sweep_grid.run(seed=3, seconds=0.1, trace=trace)
    _check_outcome(outcome, trace)
    assert outcome.report["table1_mape_pct"] == 3.32
    assert outcome.report["table2_mape_pct"] == 5.09
    if trace:
        assert outcome.metrics["sweep.plans"] > 0 and outcome.metrics["sweep.keyhash_calls"] == 1
        assert outcome.spans


@pytest.mark.parametrize("trace", [False, True])
def test_fleet_mixed_smoke(quick, trace):
    quick.setattr(fleet_mixed, "NUM_REQUESTS", 300)
    outcome = fleet_mixed.run(seed=3, seconds=0.1, trace=trace)
    _check_outcome(outcome, trace)
    if trace:
        for phase in layers.FLEET_PHASES:
            assert outcome.metrics[f"stepcost.prefill_step_calls.{phase}"] > 0
        assert outcome.metrics["router.select_calls.rr"] == 0  # the partitioned path never selects
        assert outcome.metrics["router.select_calls.stateful"] > 0


@pytest.mark.parametrize("trace", [False, True])
def test_service_jobs_smoke(quick, trace):
    quick.setattr(service_jobs, "MIN_JOBS", 12)
    quick.setattr(service_jobs, "DIGEST_SPECS", 3)
    outcome = service_jobs.run(seed=3, seconds=0.5, trace=trace)
    _check_outcome(outcome, trace)
    if trace:
        assert outcome.metrics["service.exchanges_per_job"] >= 3


# ---------------------------------------------------------------------------
# Contract
# ---------------------------------------------------------------------------


def test_benchmark_json_matches_the_registry():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(entry) for entry in layers.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(entry) for entry in layers.PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == list(run_script.WORKLOADS)


def _children() -> list:
    """Process ids whose parent is this process (from ``/proc``)."""
    found = []
    for entry in pathlib.Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue  # exited while we looked
        if int(stat.rsplit(")", 1)[1].split()[1]) == os.getpid():
            found.append(int(entry.name))
    return found


@pytest.mark.skipif(not pathlib.Path("/proc/self/stat").exists(), reason="needs /proc")
def test_no_process_outlives_the_host_probes():
    assert parallel_scaling(workers=2, iterations=1000) > 0
    multiprocessing.get_context("spawn").Lock()  # starts the resource tracker
    assert _children()
    stop_helper_processes()
    assert _children() == []


def test_without_program_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_grid", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
