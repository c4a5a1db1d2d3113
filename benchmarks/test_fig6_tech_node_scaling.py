"""Benchmark: regenerate paper Fig. 6 (technology-node scaling for GPT-7B training).

Sweep the logic technology node from N12 to N1 for the GPT-7B case study
(1024 GPUs, DP-TP-PP-SP = 64-4-4-4) across four HBM generations and three
inter-node network speeds.  The paper's findings: training time drops steeply
at first and saturates beyond ~N5; HBM2 -> HBM2E gives a large gain while
HBM3/HBM4 add little (the model becomes network bound); and raising the
network bandwidth from 100 to 400 GB/s markedly improves training time.
"""

from __future__ import annotations

import collections

from conftest import emit, run_once

from repro.analysis.formatting import render_table
from repro.studies import get_study


def test_fig6_technology_node_scaling(benchmark):
    rows = run_once(benchmark, lambda: get_study("fig6_technology_node_scaling").run())

    table_rows = [
        {
            "node": row.technology_node,
            "memory": row.dram_technology,
            "network": row.inter_node_network,
            "step_time_s": row.step_time,
            "compute_s": row.compute_time,
            "comm_s": row.communication_time,
            "other_s": row.other_time,
        }
        for row in rows
    ]
    emit(
        render_table(
            table_rows,
            title="Fig. 6: GPT-7B training time per iteration vs technology node / HBM / network",
            precision=3,
        )
    )

    series = collections.defaultdict(dict)
    for row in rows:
        series[row.label][row.technology_node] = row.step_time

    benchmark.extra_info["n12_hbm2_ndr_s"] = round(series["HBM2-NDR-x8"]["N12"], 3)
    benchmark.extra_info["n1_hbm4_gdr_s"] = round(series["HBM4-GDR-x8"]["N1"], 3)

    # Each curve decreases monotonically with the technology node.
    for label, curve in series.items():
        ordered = [curve[node] for node in ("N12", "N10", "N7", "N5", "N3", "N2", "N1")]
        assert ordered == sorted(ordered, reverse=True), label
        # ... and saturates: the early gain (N12->N7) exceeds the late gain (N5->N1).
        assert ordered[0] / ordered[2] > ordered[3] / ordered[6], label

    # HBM2 -> HBM2E is a significant gain; HBM3 -> HBM4 is marginal (network bound).
    hbm2_to_hbm2e = series["HBM2-NDR-x8"]["N1"] / series["HBM2E-NDR-x8"]["N1"]
    hbm3_to_hbm4 = series["HBM3-NDR-x8"]["N1"] / series["HBM4-NDR-x8"]["N1"]
    assert hbm2_to_hbm2e > hbm3_to_hbm4
    assert hbm3_to_hbm4 < 1.10

    # Raising the inter-node network bandwidth from 100 to 400 GB/s markedly helps.
    assert series["HBM4-GDR-x8"]["N1"] < 0.9 * series["HBM4-NDR-x8"]["N1"]
