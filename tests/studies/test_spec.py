"""Tests for the study registry and the JSON spec round-trip."""

import pytest

from repro.errors import ConfigurationError
from repro.serving import (
    FaultConfig,
    FleetConfig,
    FleetTraceConfig,
    LengthDistribution,
    QueueDepthAutoscaler,
    RetryPolicy,
    SchedulerConfig,
    ServingConfig,
    ServingSLO,
    TenantTrace,
    TraceConfig,
)
from repro.studies import Study, get_study, list_studies, register_study, unregister_study
from repro.studies import paper
from repro.sweep import SweepRunner


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def test_every_paper_artifact_is_registered():
    names = {entry.name for entry in list_studies()}
    assert {
        "table1_training_validation",
        "table2_inference_validation",
        "table4_gemm_bottlenecks",
        "fig3_gemv_validation",
        "fig4_memory_breakdown",
        "fig5_gpu_generation_scaling",
        "fig6_technology_node_scaling",
        "fig7_bound_breakdown",
        "fig8_inference_boundedness",
        "fig9_memory_technology_scaling",
        "serving_latency_throughput_frontier",
        "fleet_load_frontier",
        "fleet_resilience",
    } <= names


def test_paper_builders_are_named_after_their_registry_entry():
    """The Python, registry and CLI names of every paper study agree."""
    for entry in list_studies():
        if entry.builder.__module__ == paper.__name__:
            assert entry.builder.__name__ == entry.name
            assert getattr(paper, entry.name) is entry.builder


def test_registered_entries_carry_artifact_labels():
    by_name = {entry.name: entry for entry in list_studies()}
    assert by_name["table1_training_validation"].artifact == "Table 1"
    assert by_name["fig9_memory_technology_scaling"].artifact == "Fig. 9"
    assert by_name["table4_gemm_bottlenecks"].description


def test_get_study_passes_builder_kwargs():
    study = get_study("table4_gemm_bottlenecks", gpus=("H100",), prompt_tokens=128)
    assert study.axes["gpu"] == ["H100"]
    assert study.fixed["prompt_tokens"] == 128


def test_unknown_study_fails_loudly():
    with pytest.raises(ConfigurationError, match="unknown study"):
        get_study("table9_fantasy")


def test_scalar_for_sequence_parameter_becomes_singleton():
    """`-p gpus=A100` must sweep one GPU, not the characters 'A','1','0','0'."""
    assert get_study("table4_gemm_bottlenecks", gpus="A100").axes["gpu"] == ["A100"]
    assert get_study("fig8_inference_boundedness", batch_sizes=4).axes["batch_size"] == [4]
    # Scalars for scalar parameters pass through untouched.
    assert get_study("table4_gemm_bottlenecks", prompt_tokens=128).fixed["prompt_tokens"] == 128


def test_fig7_wraps_a_scalar_node_like_fig6():
    """Fig. 7 forwards its keywords to the Fig.-6 builder; `-p nodes=N12` still sweeps one node."""
    combination = [{"dram": "HBM2", "network": "NDR-x8"}]
    table = get_study("fig7_bound_breakdown", nodes="N12", combinations=combination).run(runner=SweepRunner())
    assert len(table) == 1
    assert table[0]["technology_node"] == "N12"


def test_register_and_unregister_custom_study():
    @register_study(name="custom-probe", description="one-off")
    def build():
        return Study(name="custom-probe", kind="inference_memory",
                     axes={"model": ["Llama2-13B"]}, extract="error")

    try:
        assert get_study("custom-probe").kind == "inference_memory"
    finally:
        unregister_study("custom-probe")
    with pytest.raises(ConfigurationError):
        get_study("custom-probe")


# ---------------------------------------------------------------------------
# JSON spec round-trip
# ---------------------------------------------------------------------------

def test_table4_spec_round_trips_to_identical_table():
    study = paper.table4_gemm_bottlenecks(gpus=("A100",))
    clone = Study.from_json(study.to_json())
    assert clone.to_dict() == study.to_dict()
    direct = study.run(runner=SweepRunner())
    via_spec = clone.run(runner=SweepRunner())
    assert direct.to_dict() == via_spec.to_dict()


def test_fig8_spec_round_trips_to_identical_table():
    study = paper.fig8_inference_boundedness(gpus=("A100",), batch_sizes=(1,))
    clone = Study.from_dict(study.to_dict())
    assert clone.run(runner=SweepRunner()).to_dict() == study.run(runner=SweepRunner()).to_dict()


def test_spec_carries_derive_kwargs():
    spec = paper.fig4_memory_breakdown(models=("GPT-175B",)).to_dict()
    assert spec["derive"] == [["fits_memory", {"device_memory_gb": 80.0}]]
    clone = Study.from_dict(spec)
    assert clone.derive == (("fits_memory", {"device_memory_gb": 80.0}),)


def test_fig4_spec_round_trip_decodes_parallelism_dicts():
    study = paper.fig4_memory_breakdown(models=("GPT-175B",))
    spec = study.to_dict()
    # The ParallelismConfig inside the mapping axis became a plain dict...
    assert isinstance(spec["axes"]["case"][0]["parallelism"], dict)
    # ... and decodes back into an equivalent scenario.
    clone = Study.from_dict(spec)
    original = list(study.scenarios())
    decoded = list(clone.scenarios())
    assert [s.cache_key() for s in decoded] == [s.cache_key() for s in original]


def test_serving_config_spec_round_trip():
    study = Study(
        name="mini-frontier",
        kind="serving",
        axes={"tensor_parallel": [1]},
        fixed={
            "system": "A100",
            "model": "Llama2-7B",
            "serving": ServingConfig(
                trace=TraceConfig(
                    rate=2.0,
                    num_requests=4,
                    prompt_lengths=LengthDistribution.uniform(16, 32),
                    output_lengths=LengthDistribution.constant(8),
                ),
                scheduler=SchedulerConfig(max_batch_size=4),
                slo=ServingSLO(ttft=1.0, tpot=0.1),
            ),
        },
        extract="serving_frontier",
    )
    clone = Study.from_json(study.to_json())
    original = next(study.scenarios())
    decoded = next(clone.scenarios())
    assert decoded.cache_key() == original.cache_key()
    table = clone.run(runner=SweepRunner())
    assert table["completed"][0] == 4


def test_fleet_config_spec_round_trip():
    study = Study(
        name="mini-fleet",
        kind="fleet",
        axes={"tensor_parallel": [1]},
        fixed={
            "system": "A100",
            "model": "Llama2-7B",
            "fleet": FleetConfig(
                trace=FleetTraceConfig(
                    tenants=(
                        TenantTrace(
                            trace=TraceConfig(
                                rate=2.0,
                                num_requests=4,
                                prompt_lengths=LengthDistribution.uniform(16, 32),
                                output_lengths=LengthDistribution.constant(8),
                            ),
                            name="chat",
                            diurnal=(1.0, 2.0),
                            period=60.0,
                        ),
                        TenantTrace(
                            trace=TraceConfig(rate=1.0, num_requests=4, seed=7),
                            name="batch",
                        ),
                    )
                ),
                num_replicas=2,
                router="least_queue",
                scheduler=SchedulerConfig(max_batch_size=4),
            ),
        },
        extract="fleet_frontier",
    )
    clone = Study.from_json(study.to_json())
    original = next(study.scenarios())
    decoded = next(clone.scenarios())
    assert decoded.cache_key() == original.cache_key()
    table = clone.run(runner=SweepRunner())
    assert table["completed"][0] == 8
    assert table["router"][0] == "least_queue"


def test_fleet_spec_with_retired_epoch_fields_still_loads():
    # Specs written while FleetConfig still had max_epoch_steps /
    # arrival_probe_steps carry those keys; the decoder ignores them.
    fleet = FleetConfig(trace=TraceConfig(rate=2.0, num_requests=4), num_replicas=2)
    study = Study(name="old-fleet", kind="fleet", fixed={"system": "A100", "model": "Llama2-7B", "fleet": fleet})
    spec = study.to_dict()
    spec["fixed"]["fleet"].update(max_epoch_steps=16, arrival_probe_steps=4)
    assert next(Study.from_dict(spec).scenarios()).fleet_config == fleet


def test_fleet_load_frontier_study_runs():
    study = get_study(
        "fleet_load_frontier",
        replica_counts=(1, 2),
        routers=("round_robin", "least_queue"),
        requests_per_tenant=8,
        model_name="Llama2-7B",
    )
    table = study.run(runner=SweepRunner())
    assert len(table) == 4
    assert all(error is None for error in table["error"])
    assert all(completed == 12 for completed in table["completed"])
    assert min(table["cost_per_million_tokens_usd"]) > 0


def test_resilient_fleet_config_spec_round_trip():
    study = Study(
        name="mini-resilient-fleet",
        kind="fleet",
        axes={"tensor_parallel": [1]},
        fixed={
            "system": "A100",
            "model": "Llama2-7B",
            "fleet": FleetConfig(
                trace=TraceConfig(rate=4.0, num_requests=16, seed=3),
                num_replicas=2,
                faults=FaultConfig(mtbf=10.0, mttr=3.0, seed=7),
                retry=RetryPolicy(max_attempts=4, backoff=0.5),
                autoscaler=QueueDepthAutoscaler(min_replicas=1, max_replicas=4, interval=1.0),
            ),
        },
        extract="fleet_resilience",
    )
    clone = Study.from_json(study.to_json())
    original = next(study.scenarios())
    decoded = next(clone.scenarios())
    assert decoded.fleet_config == original.fleet_config
    assert decoded.cache_key() == original.cache_key()
    table = clone.run(runner=SweepRunner())
    assert table["fault_mtbf_s"][0] == 10.0
    reference = study.run(runner=SweepRunner())
    assert table["availability"][0] == reference["availability"][0]


def test_fleet_resilience_study_runs():
    study = get_study(
        "fleet_resilience",
        num_requests=16,
        mtbf_values=(0.0, 8.0),
        routers=("round_robin",),
        retry_attempts=(1, 3),
    )
    table = study.run(runner=SweepRunner())
    assert len(table) == 4
    assert all(error is None for error in table["error"])
    baseline = {
        row["retry_max_attempts"]: row for row in table if row["mtbf_s"] == 0.0
    }
    faulty = {row["retry_max_attempts"]: row for row in table if row["mtbf_s"] == 8.0}
    # Fault-free rows: perfect availability, no failure accounting at all.
    for row in baseline.values():
        assert row["availability"] == 1.0
        assert row["replica_failures"] == 0
        assert row["fault_mtbf_s"] is None
    # Faulty rows see failures; retries keep completion at least as high.
    assert any(row["replica_failures"] > 0 for row in faulty.values())
    assert faulty[3]["completed"] >= faulty[1]["completed"]


def test_wrapped_spec_document_is_tolerated():
    spec = {"study": paper.table4_gemm_bottlenecks().to_dict()}
    assert Study.from_dict(spec).name == "table4_gemm_bottlenecks"


def test_typoed_fixed_key_fails_instead_of_running_with_defaults():
    """A hand-edited spec with a misspelled parameter must not silently run."""
    spec = paper.fig8_inference_boundedness(gpus=("A100",), batch_sizes=(1,)).to_dict()
    spec["fixed"]["promt_tokens"] = spec["fixed"].pop("prompt_tokens")
    study = Study.from_dict(spec)
    with pytest.raises(ConfigurationError, match="promt_tokens"):
        study.run(runner=SweepRunner())


def test_metadata_keys_survive_when_named_as_columns():
    study = Study(
        name="metadata",
        kind="inference_memory",
        axes={"model": ["Llama2-7B"]},
        fixed={"batch_size": 1, "source": "model-card"},
        columns=("model", "source"),
        extract="error",
    )
    table = study.run(runner=SweepRunner())
    assert table["source"].tolist() == ["model-card"]


def test_unknown_spec_fields_rejected():
    spec = paper.table4_gemm_bottlenecks().to_dict()
    spec["axis"] = {}
    with pytest.raises(ConfigurationError, match="unknown study spec fields"):
        Study.from_dict(spec)


def test_missing_required_fields_rejected():
    with pytest.raises(ConfigurationError, match="missing"):
        Study.from_dict({"kind": "inference"})


def test_code_only_studies_refuse_to_serialize():
    with pytest.raises(ConfigurationError, match="code-only"):
        paper.fig9_memory_technology_scaling().to_dict()  # has a prepare hook
    with pytest.raises(ConfigurationError, match="callable extractor"):
        Study(name="x", kind="inference", extract=lambda r: {}).to_dict()
    with pytest.raises(ConfigurationError, match="callable derive"):
        Study(name="x", kind="inference", derive=(lambda t, r: None,)).to_dict()


def test_unresolvable_rich_values_refuse_to_serialize(tiny_model):
    import dataclasses

    unregistered = dataclasses.replace(tiny_model, name="never-in-the-zoo")
    study = Study(name="x", kind="inference", fixed={"model": unregistered})
    with pytest.raises(ConfigurationError, match="not in the zoo"):
        study.to_dict()


def test_registered_system_makes_spec_serializable(single_node_a100):
    import dataclasses

    from repro.hardware import register_system, unregister_system

    renamed = dataclasses.replace(single_node_a100, name="test-a100-node")
    study = Study(name="x", kind="inference", axes={"batch_size": [1]}, fixed={"system": renamed})
    with pytest.raises(ConfigurationError, match="does not resolve"):
        study.to_dict()  # not registered yet
    name = register_system(renamed)
    try:
        assert study.to_dict()["fixed"]["system"] == "test-a100-node"
    finally:
        unregister_system(name)


# -- eager spec validation (Study.validate, called by from_dict) ---------------


def test_unknown_extractor_rejected_at_parse_time():
    spec = {
        "name": "x",
        "kind": "inference",
        "fixed": {"system": "A100x8", "model": "LLAMA2-7B"},
        "extract": "no_such_extractor",
    }
    with pytest.raises(ConfigurationError, match="no_such_extractor"):
        Study.from_dict(spec)


def test_unknown_derive_rejected_at_parse_time():
    spec = {
        "name": "x",
        "kind": "inference",
        "fixed": {"system": "A100x8", "model": "LLAMA2-7B"},
        "derive": ["no_such_derive"],
    }
    with pytest.raises(ConfigurationError, match="no_such_derive"):
        Study.from_dict(spec)


def test_unknown_model_named_in_parse_error():
    from repro.errors import UnknownModelError

    spec = {"name": "x", "kind": "inference", "fixed": {"system": "A100x8", "model": "GPT-9T"}}
    with pytest.raises(UnknownModelError, match="GPT-9T"):
        Study.from_dict(spec)


def test_unknown_system_in_axes_named_in_parse_error():
    from repro.errors import UnknownHardwareError

    spec = {
        "name": "x",
        "kind": "inference",
        "axes": {"system": ["A100x8", "Bogus-GPU"]},
        "fixed": {"model": "LLAMA2-7B"},
    }
    with pytest.raises(UnknownHardwareError, match="Bogus-GPU"):
        Study.from_dict(spec)


def test_missing_required_factory_params_rejected_at_parse_time():
    spec = {"name": "x", "kind": "inference", "fixed": {"model": "LLAMA2-7B"}}
    with pytest.raises(ConfigurationError, match="'system'"):
        Study.from_dict(spec)


def test_rename_aware_validation_accepts_renamed_axes():
    # fig8-style: a "gpu" axis feeds the accelerator parameter via rename.
    spec = {
        "name": "x",
        "kind": "prefill_bottlenecks",
        "axes": {"gpu": ["A100-80GB"]},
        "fixed": {"model": "LLAMA2-7B"},
        "rename": {"gpu": "accelerator"},
    }
    study = Study.from_dict(spec)
    assert study.rename == {"gpu": "accelerator"}


def test_rename_aware_validation_rejects_unknown_accelerator():
    from repro.errors import UnknownHardwareError

    spec = {
        "name": "x",
        "kind": "prefill_bottlenecks",
        "axes": {"gpu": ["NotA-GPU"]},
        "fixed": {"model": "LLAMA2-7B"},
        "rename": {"gpu": "accelerator"},
    }
    with pytest.raises(UnknownHardwareError, match="NotA-GPU"):
        Study.from_dict(spec)


def test_every_registered_serializable_study_validates():
    for entry in list_studies():
        study = get_study(entry.name)
        try:
            spec = study.to_dict()
        except ConfigurationError:
            continue  # code-only study; nothing to validate from JSON
        Study.from_dict(spec).validate()
