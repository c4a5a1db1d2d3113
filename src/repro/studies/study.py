"""The declarative Study builder: named axes -> scenarios -> one sweep table.

A :class:`Study` declares *what* to sweep -- a scenario kind, named axes,
fixed parameters, derived metrics -- and leaves the *how* (deduplication,
caching, executors, streaming progress) to the shared
:class:`~repro.sweep.runner.SweepRunner`.  Every paper table/figure, the two
technology-scaling case studies among them, is a registered Study
declaration (see :mod:`repro.studies.paper`); user-defined sweeps use
exactly the same surface::

    study = Study(
        name="llama-batch-scan",
        kind="inference",
        axes={"system": ["A100", "H100"], "batch_size": [1, 8, 32]},
        fixed={"model": "Llama2-13B", "prompt_tokens": 512},
        extract="inference_validation",
    )
    table = study.run()                       # -> SweepTable with axis columns
    spec = study.to_dict()                    # JSON-safe round-trip
    Study.from_dict(spec).run()               # ... also via `python -m repro run`

How one grid point becomes a row:

1. ``axes`` expand through :func:`~repro.sweep.runner.expand_grid` (last axis
   fastest).  An axis value that is a *mapping* spreads all of its keys at
   once -- the way to sweep linked parameters (one case = one system + its
   batch size + its reference numbers).
2. The flattened combo (``fixed`` overlaid with the spread axes) passes
   through ``rename`` and the optional ``prepare`` hook, and every key whose
   name matches a parameter of the kind's :class:`~repro.sweep.scenario.Scenario`
   factory is passed to it.  Registry strings resolve along the way: systems
   via :func:`repro.hardware.catalog.get_system`, models via the zoo,
   parallelism labels, precision/recompute names.
3. Keys that are *not* factory parameters are pass-through data: they become
   axis columns of the result table (projected/ordered by ``columns``).
4. The extractor turns each :class:`~repro.sweep.runner.SweepResult` into the
   row's metric columns (a list of records explodes one scenario into
   several rows), and the ``derive`` chain appends vectorized columns to the
   finished table.
"""

from __future__ import annotations

import dataclasses
import enum
import inspect
import json
from collections.abc import Mapping as AbcMapping
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from ..errors import ConfigurationError, ReproError
from ..hardware.accelerator import AcceleratorSpec, get_accelerator
from ..hardware.catalog import get_system
from ..hardware.cluster import SystemSpec
from ..models.transformer import TransformerConfig
from ..models.zoo import get_model
from ..parallelism.config import ParallelismConfig
from ..serving.faults import FaultConfig, RetryPolicy, decode_autoscaler
from ..serving.fleet import FleetConfig
from ..serving.report import ServingSLO
from ..serving.request import FleetTraceConfig, LengthDistribution, TenantTrace, TraceConfig
from ..serving.scheduler import SchedulerConfig
from ..serving.simulator import ServingConfig
from ..sweep.diskstore import DiskResultStore
from ..sweep.runner import SweepResult, SweepRunner, default_runner, expand_grid, merge_axis_records
from ..sweep.scenario import Scenario
from ..sweep.table import SweepTable
from .extractors import get_derive, get_extractor

#: Scenario-kind string -> Scenario factory classmethod.
SCENARIO_FACTORIES: Dict[str, Callable[..., Scenario]] = {
    "training": Scenario.training,
    "inference": Scenario.inference,
    "serving": Scenario.serving,
    "fleet": Scenario.fleet,
    "training_memory": Scenario.training_memory,
    "inference_memory": Scenario.inference_memory,
    "prefill_bottlenecks": Scenario.prefill_bottlenecks,
    "decode_bottlenecks": Scenario.decode_bottlenecks,
    "attention_bound": Scenario.attention_bound,
    "gemv_validation": Scenario.gemv_validation,
}

_FACTORY_PARAMS: Dict[str, Tuple[str, ...]] = {
    kind: tuple(inspect.signature(factory).parameters)
    for kind, factory in SCENARIO_FACTORIES.items()
}

#: Per kind: the factory parameters without defaults -- a spec that supplies
#: none of them through axes/fixed would fail deep inside the factory with a
#: bare ``TypeError``; :meth:`Study.validate` rejects it up front instead.
_FACTORY_REQUIRED: Dict[str, Tuple[str, ...]] = {
    kind: tuple(
        name
        for name, param in inspect.signature(factory).parameters.items()
        if param.default is inspect.Parameter.empty
        and param.kind
        in (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
    )
    for kind, factory in SCENARIO_FACTORIES.items()
}

#: One derive step: a registered name, ``(name, kwargs)``, or a callable
#: ``fn(table, run) -> SweepTable | None``.
DeriveSpec = Union[str, Tuple[str, Mapping[str, object]], Callable]

ExtractFn = Callable[[SweepResult], "Mapping[str, object] | Sequence[Mapping[str, object]]"]


@dataclasses.dataclass
class StudyRun:
    """Everything one :meth:`Study.execute` produced, for derives and debugging.

    Attributes:
        study: The executed study.
        combos: The expanded axis combinations, in grid order.
        scenarios: One scenario per combo.
        results: One sweep result per combo (input order).
        runner: The runner the evaluations went through (derives reuse it so
            follow-up scenarios share the same cache).
        table: The current result table; derives may replace it.
    """

    study: "Study"
    combos: List[Dict[str, object]]
    scenarios: List[Scenario]
    results: List[SweepResult]
    runner: SweepRunner
    table: SweepTable


@dataclasses.dataclass
class Study:
    """A declarative, serializable description of one sweep.

    Attributes:
        name: Study name (doubles as the registry key for registered studies).
        kind: Scenario kind, one of :data:`SCENARIO_FACTORIES`.
        axes: Named axes; values are sequences.  Mapping-valued entries
            spread their keys into the combo (linked parameters).
        fixed: Parameters shared by every grid point.
        rename: Flattened-key -> factory-parameter renames (e.g. a ``"gpu"``
            axis feeding the ``accelerator`` parameter while keeping its
            column name).
        columns: Projection (and order) of the axis columns; ``None`` keeps
            every axis-derived key.  May also name ``fixed`` keys to lift
            them into the table.
        extract: Metric extractor -- a registered name
            (:func:`repro.studies.extractors.register_extractor`) or a
            callable; ``None`` uses the scenario-summary default.
        derive: Chain of derive steps appended after extraction.
        filters: Predicates over the flattened combo; a combo any filter
            rejects is skipped before a scenario is built.
        prepare: Optional hook mapping the flattened combo to the final
            factory-kwarg source (compute cross-axis values, build systems).
            Code-only: studies with a ``prepare`` are not JSON-serializable.
        capture_errors: Per-study override of the runner's error capturing.
        description: One-line human description (shown by ``repro list``).
        artifact: The paper artifact this study reproduces (``"Table 1"``).
    """

    name: str
    kind: str
    axes: Mapping[str, Sequence[object]] = dataclasses.field(default_factory=dict)
    fixed: Mapping[str, object] = dataclasses.field(default_factory=dict)
    rename: Mapping[str, str] = dataclasses.field(default_factory=dict)
    columns: Optional[Sequence[str]] = None
    extract: "str | ExtractFn | None" = None
    derive: Sequence[DeriveSpec] = ()
    filters: Sequence[Callable[[Mapping[str, object]], bool]] = ()
    prepare: Optional[Callable[[Dict[str, object]], Mapping[str, object]]] = None
    capture_errors: Optional[bool] = None
    description: str = ""
    artifact: str = ""

    def __post_init__(self) -> None:
        if self.kind not in SCENARIO_FACTORIES:
            raise ConfigurationError(
                f"unknown scenario kind {self.kind!r}; available: {sorted(SCENARIO_FACTORIES)}"
            )
        self.axes = dict(self.axes)
        self.fixed = dict(self.fixed)
        self.rename = dict(self.rename)
        derive = self.derive
        if isinstance(derive, str) or callable(derive):
            derive = (derive,)  # a single bare step
        elif (
            isinstance(derive, tuple)
            and len(derive) == 2
            and isinstance(derive[0], str)
            and isinstance(derive[1], AbcMapping)
        ):
            derive = (derive,)  # a single ("name", kwargs) step
        self.derive = tuple(derive)

    # -- expansion ---------------------------------------------------------------------

    def combos(self) -> Iterator[Dict[str, object]]:
        """Expand the axes lazily (last axis fastest), applying the filters.

        A study without axes is a single evaluation: one empty combo.
        """
        raw = expand_grid(**self.axes) if self.axes else iter([{}])
        for combo in raw:
            if all(predicate(self.flattened(combo)) for predicate in self.filters):
                yield combo

    def flattened(self, combo: Mapping[str, object]) -> Dict[str, object]:
        """Overlay one combo onto ``fixed``, spreading mapping-valued axes."""
        flat: Dict[str, object] = dict(self.fixed)
        for axis, value in combo.items():
            if isinstance(value, AbcMapping):
                flat.update(value)
            else:
                flat[axis] = value
        return flat

    def scenario_for(self, combo: Mapping[str, object]) -> Scenario:
        """Build the :class:`Scenario` of one expanded combo.

        Raises :class:`~repro.errors.ConfigurationError` for keys that feed
        neither the scenario factory nor a table column: a typo in a
        hand-edited spec must fail loudly, not silently run with factory
        defaults.  Studies with a ``prepare`` hook skip the check -- the hook
        may consume any key.
        """
        source = self.flattened(combo)
        if self.rename:
            for key, target in self.rename.items():
                if key in source:
                    source[target] = source.pop(key)
        if self.prepare is not None:
            source = dict(self.prepare(source))
        else:
            self._check_unused_keys(combo, source)
        factory = SCENARIO_FACTORIES[self.kind]
        kwargs = {
            name: _decode_factory_value(name, source[name])
            for name in _FACTORY_PARAMS[self.kind]
            if name in source
        }
        return factory(**kwargs)

    def _check_unused_keys(self, combo: Mapping[str, object], source: Mapping[str, object]) -> None:
        """Reject flattened keys that neither reach the factory nor a column."""
        params = _FACTORY_PARAMS[self.kind]
        if self.columns is not None:
            column_names = set(self.columns)
        else:  # default columns: every axis-derived key
            column_names = set()
            for axis in self.axes:
                value = combo.get(axis)
                column_names.update(value if isinstance(value, AbcMapping) else (axis,))
        unused = sorted(name for name in source if name not in params and name not in column_names)
        if unused:
            raise ConfigurationError(
                f"study {self.name!r}: {unused} match neither a {self.kind!r} scenario "
                f"parameter (accepted: {sorted(params)}) nor a table column -- "
                "probably a typo in axes/fixed"
            )

    def validate(self) -> None:
        """Eagerly check every name and parameter the spec references.

        Raises structured :class:`~repro.errors.ReproError` subclasses that
        *name* the unknown extractor/derive/model/system/accelerator (or the
        missing required factory parameter) instead of letting the sweep fail
        deep inside ``run()`` with a bare ``KeyError``/``TypeError``.  Called
        automatically by :meth:`from_dict`, so hand-edited JSON specs and
        service submissions fail fast with a message fit for a 422 body.

        Studies with a ``prepare`` hook skip the parameter/value checks (the
        hook may synthesize anything); name lookups still run.
        """
        where = f"study {self.name!r}"
        if isinstance(self.extract, str):
            try:
                get_extractor(self.extract)
            except ConfigurationError as error:
                raise ConfigurationError(f"{where}: {error}") from None
        for step in self.derive:
            step_name = None
            if isinstance(step, str):
                step_name = step
            elif isinstance(step, tuple) and step and isinstance(step[0], str):
                step_name = step[0]
            if step_name is not None:
                try:
                    get_derive(step_name)
                except ConfigurationError as error:
                    raise ConfigurationError(f"{where}: {error}") from None
        if self.prepare is not None:
            return
        supplied = set(self.fixed)
        for axis, values in self.axes.items():
            supplied.add(axis)
            for value in values:
                if isinstance(value, AbcMapping):
                    supplied.update(value)
        supplied = {self.rename.get(key, key) for key in supplied}
        missing = [name for name in _FACTORY_REQUIRED[self.kind] if name not in supplied]
        if missing:
            raise ConfigurationError(
                f"{where}: the {self.kind!r} scenario requires {missing} but neither "
                "axes nor fixed supplies them"
            )
        self._validate_registry_names()

    def _validate_registry_names(self) -> None:
        """Resolve model/system/accelerator *string* values against the registries."""
        resolvers: Dict[str, Callable[[str], object]] = {
            "model": get_model,
            "system": get_system,
            "accelerator": get_accelerator,
        }

        def check(key: str, value: object) -> None:
            resolver = resolvers.get(self.rename.get(key, key))
            if resolver is None or not isinstance(value, str):
                return
            try:
                resolver(value)
            except ReproError as error:
                raise type(error)(f"study {self.name!r}: {error}") from None

        for key, value in self.fixed.items():
            check(key, value)
        for axis, values in self.axes.items():
            for value in values:
                if isinstance(value, AbcMapping):
                    for key, item in value.items():
                        check(key, item)
                else:
                    check(axis, value)

    def scenarios(self) -> Iterator[Scenario]:
        """Lazily yield the scenario of every combo, in grid order."""
        for combo in self.combos():
            yield self.scenario_for(combo)

    def axis_record(self, combo: Mapping[str, object]) -> Dict[str, object]:
        """The axis columns of one combo (before :func:`axis_label` rendering)."""
        record: Dict[str, object] = {}
        for axis in self.axes:
            value = combo[axis]
            if isinstance(value, AbcMapping):
                record.update(value)
            else:
                record[axis] = value
        if self.columns is None:
            return record
        source = {**self.fixed, **record}
        missing = [name for name in self.columns if name not in source]
        if missing:
            raise ConfigurationError(
                f"study {self.name!r}: columns {missing} appear in neither the axes nor fixed"
            )
        return {name: source[name] for name in self.columns}

    # -- execution ---------------------------------------------------------------------

    def execute(
        self,
        runner: Optional[SweepRunner] = None,
        executor: Optional[str] = None,
        on_result: Optional[Callable[[SweepResult], None]] = None,
        disk_cache: "DiskResultStore | str | bool | None" = None,
    ) -> StudyRun:
        """Run the study and return the full :class:`StudyRun` context.

        Args:
            runner: Runner to evaluate through; defaults to the process-wide
                shared runner (or a fresh one when ``executor`` or
                ``disk_cache`` is given).
            executor: Shorthand for ``SweepRunner(executor=...)`` when no
                runner is passed.
            on_result: Streaming progress callback, forwarded to
                :meth:`SweepRunner.run` (fires once per scenario as its
                result becomes available).
            disk_cache: Persistent result store for the fresh runner (a
                :class:`~repro.sweep.diskstore.DiskResultStore`, a cache-root
                path, or ``True`` for the default location); only meaningful
                when no ``runner`` is passed.
        """
        if runner is None:
            if executor is not None or disk_cache is not None:
                runner = SweepRunner(executor=executor or "serial", disk_cache=disk_cache)
            else:
                runner = default_runner()
        combos = list(self.combos())
        scenarios = [self.scenario_for(combo) for combo in combos]
        results = runner.run(scenarios, capture_errors=self.capture_errors, on_result=on_result)
        extract = _tolerant_extract(self._extract_fn(), results)
        axis_records = [self.axis_record(combo) for combo in combos]
        table = SweepTable.from_records(merge_axis_records(axis_records, results, extract))
        run = StudyRun(
            study=self, combos=combos, scenarios=scenarios, results=results, runner=runner, table=table
        )
        for step in self.derive:
            fn, kwargs = _resolve_derive(step)
            replacement = fn(run.table, run, **kwargs)
            if replacement is not None:
                run.table = replacement
        return run

    def run(
        self,
        runner: Optional[SweepRunner] = None,
        executor: Optional[str] = None,
        on_result: Optional[Callable[[SweepResult], None]] = None,
        disk_cache: "DiskResultStore | str | bool | None" = None,
    ) -> SweepTable:
        """Run the study and return its result table (see :meth:`execute`)."""
        return self.execute(
            runner=runner, executor=executor, on_result=on_result, disk_cache=disk_cache
        ).table

    def _extract_fn(self) -> ExtractFn:
        if self.extract is None:
            return lambda result: {"error": result.error}
        if callable(self.extract):
            return self.extract
        return get_extractor(self.extract)

    # -- serialization -----------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe spec of this study (inverse of :meth:`from_dict`).

        Raises :class:`~repro.errors.ConfigurationError` when the study holds
        code-only parts (callable extract/derive, ``filters``, ``prepare``)
        or values that no registry resolves by name.
        """
        if self.prepare is not None or self.filters:
            raise ConfigurationError(
                f"study {self.name!r} uses code-only hooks (prepare/filters) and cannot be "
                "serialized; run it from Python or express the hook as axes"
            )
        if self.extract is not None and not isinstance(self.extract, str):
            raise ConfigurationError(
                f"study {self.name!r} uses a callable extractor; register it by name "
                "(repro.studies.register_extractor) to serialize the study"
            )
        derive: List[object] = []
        for step in self.derive:
            if callable(step):
                raise ConfigurationError(
                    f"study {self.name!r} uses a callable derive step; register it by name "
                    "(repro.studies.register_derive) to serialize the study"
                )
            if isinstance(step, str):
                derive.append(step)
            else:
                name, kwargs = step
                derive.append([name, _encode_value(dict(kwargs), where=f"derive {name!r}")])
        where = f"study {self.name!r}"
        spec: Dict[str, object] = {
            "name": self.name,
            "kind": self.kind,
            "axes": {axis: _encode_value(list(values), where=where) for axis, values in self.axes.items()},
            "fixed": _encode_value(dict(self.fixed), where=where),
        }
        if self.rename:
            spec["rename"] = dict(self.rename)
        if self.columns is not None:
            spec["columns"] = list(self.columns)
        if self.extract is not None:
            spec["extract"] = self.extract
        if derive:
            spec["derive"] = derive
        if self.capture_errors is not None:
            spec["capture_errors"] = self.capture_errors
        if self.description:
            spec["description"] = self.description
        if self.artifact:
            spec["artifact"] = self.artifact
        return spec

    def to_json(self, **kwargs: object) -> str:
        """Serialize :meth:`to_dict` to a JSON string."""
        kwargs.setdefault("indent", 1)
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_dict(cls, spec: Mapping[str, object]) -> "Study":
        """Rebuild a study from a :meth:`to_dict` spec (or its ``{"study": ...}`` wrapper)."""
        if "study" in spec and isinstance(spec["study"], AbcMapping):
            spec = spec["study"]  # tolerate a wrapped spec document
        unknown = set(spec) - {
            "name", "kind", "axes", "fixed", "rename", "columns", "extract",
            "derive", "capture_errors", "description", "artifact",
        }
        if unknown:
            raise ConfigurationError(f"unknown study spec fields: {sorted(unknown)}")
        derive: List[DeriveSpec] = []
        for step in spec.get("derive", ()):  # type: ignore[union-attr]
            if isinstance(step, str):
                derive.append(step)
            elif isinstance(step, (list, tuple)) and len(step) == 2:
                derive.append((str(step[0]), dict(step[1])))
            else:
                raise ConfigurationError(f"derive steps must be 'name' or ['name', kwargs]; got {step!r}")
        try:
            name = spec["name"]
            kind = spec["kind"]
        except KeyError as missing:
            raise ConfigurationError(f"study spec is missing the {missing} field") from None
        study = cls(
            name=str(name),
            kind=str(kind),
            axes={axis: list(values) for axis, values in dict(spec.get("axes", {})).items()},
            fixed=dict(spec.get("fixed", {})),
            rename=dict(spec.get("rename", {})),
            columns=list(spec["columns"]) if spec.get("columns") is not None else None,
            extract=spec.get("extract"),
            derive=tuple(derive),
            capture_errors=spec.get("capture_errors"),
            description=str(spec.get("description", "")),
            artifact=str(spec.get("artifact", "")),
        )
        study.validate()
        return study

    @classmethod
    def from_json(cls, text: str) -> "Study":
        """Rebuild a study from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# Spec value encoding/decoding: rich objects <-> registry names / plain dicts.
# ---------------------------------------------------------------------------

def _encode_value(value: object, where: str) -> object:
    """Encode one axis/fixed value into a JSON-safe form.

    Registry-resolvable objects collapse to their catalog name (checked to
    round-trip); configuration dataclasses expand to plain dicts; scalars
    pass through.  Anything else raises with a pointer to the registries.
    """
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, (list, tuple)):
        return [_encode_value(item, where) for item in value]
    if isinstance(value, AbcMapping):
        return {str(key): _encode_value(item, where) for key, item in value.items()}
    if isinstance(value, TransformerConfig):
        if _lookup(get_model, value.name) != value:
            raise ConfigurationError(
                f"{where}: model {value.name!r} is not in the zoo; register_model() it "
                "so the spec can resolve it by name"
            )
        return value.name
    if isinstance(value, SystemSpec):
        if _lookup(get_system, value.name) != value:
            raise ConfigurationError(
                f"{where}: system {value.name!r} does not resolve from the catalog; "
                "register_system() it so the spec can resolve it by name"
            )
        return value.name
    if isinstance(value, AcceleratorSpec):
        if _lookup(get_accelerator, value.name) != value:
            raise ConfigurationError(
                f"{where}: accelerator {value.name!r} is not in the catalog"
            )
        return value.name
    if isinstance(value, ParallelismConfig):
        return dataclasses.asdict(value)
    if isinstance(value, (ServingConfig, FleetConfig)):
        return dataclasses.asdict(value)
    if isinstance(
        value,
        (TraceConfig, FleetTraceConfig, TenantTrace, SchedulerConfig, ServingSLO, LengthDistribution),
    ):
        return dataclasses.asdict(value)
    if isinstance(value, enum.Enum):  # Precision, RecomputeStrategy, ...
        encoded = value.value
        if isinstance(encoded, (str, int, float)):
            return encoded
    raise ConfigurationError(
        f"{where}: cannot serialize {type(value).__name__} values; use registry names "
        "(models, systems) or plain scalars in axes/fixed"
    )


def _lookup(getter: Callable[[str], object], name: str) -> Optional[object]:
    """Registry lookup that reports "unresolvable" as None instead of raising."""
    try:
        return getter(name)
    except ConfigurationError:
        return None


def _decode_factory_value(name: str, value: object) -> object:
    """Decode a spec value for one factory parameter.

    Strings stay strings (the scenario factories resolve catalog names and
    labels themselves); mappings rebuild the structured configs that JSON
    flattened.
    """
    if not isinstance(value, AbcMapping):
        return value
    if name == "parallelism":
        return ParallelismConfig(**value)
    if name == "serving":
        return _decode_serving(value)
    if name == "fleet":
        return _decode_fleet(value)
    return value


def _decode_trace(spec: Mapping[str, object]) -> "TraceConfig | FleetTraceConfig":
    """Rebuild a trace config (single- or multi-tenant) from its asdict form."""
    if "tenants" in spec:
        tenants = []
        for entry in spec["tenants"]:
            entry = dict(entry)
            entry["trace"] = _decode_trace(entry.get("trace", {}))
            if isinstance(entry.get("diurnal"), (list, tuple)):
                entry["diurnal"] = tuple(entry["diurnal"])
            tenants.append(TenantTrace(**entry))
        return FleetTraceConfig(tenants=tuple(tenants))
    trace = dict(spec)
    for lengths in ("prompt_lengths", "output_lengths"):
        if isinstance(trace.get(lengths), AbcMapping):
            trace[lengths] = LengthDistribution(**trace[lengths])
    return TraceConfig(**trace)


def _decode_serving(spec: Mapping[str, object]) -> ServingConfig:
    """Rebuild a :class:`ServingConfig` from its ``dataclasses.asdict`` form."""
    return ServingConfig(
        trace=_decode_trace(dict(spec.get("trace", {}))),
        scheduler=SchedulerConfig(**dict(spec.get("scheduler", {}))),
        slo=ServingSLO(**dict(spec.get("slo", {}))),
        include_lm_head=bool(spec.get("include_lm_head", True)),
    )


def _decode_fleet(spec: Mapping[str, object]) -> FleetConfig:
    """Rebuild a :class:`FleetConfig` from its ``dataclasses.asdict`` form."""
    spec = dict(spec)
    faults_spec = spec.get("faults")
    retry_spec = spec.get("retry")
    scaler_spec = spec.get("autoscaler")
    return FleetConfig(
        trace=_decode_trace(dict(spec.get("trace", {}))),
        num_replicas=int(spec.get("num_replicas", 2)),
        router=str(spec.get("router", "round_robin")),
        scheduler=SchedulerConfig(**dict(spec.get("scheduler", {}))),
        slo=ServingSLO(**dict(spec.get("slo", {}))),
        include_lm_head=bool(spec.get("include_lm_head", True)),
        faults=FaultConfig(**dict(faults_spec)) if isinstance(faults_spec, AbcMapping) else None,
        retry=RetryPolicy(**dict(retry_spec)) if isinstance(retry_spec, AbcMapping) else RetryPolicy(),
        autoscaler=decode_autoscaler(dict(scaler_spec)) if isinstance(scaler_spec, AbcMapping) else None,
    )


def _tolerant_extract(extract: ExtractFn, results: Sequence[SweepResult]) -> ExtractFn:
    """Make ``extract`` survive error-captured results it does not handle itself.

    Error-aware extractors (those that inspect ``result.ok``, like the
    serving frontier's) run unchanged.  For extractors that assume a report
    and would crash on a captured failure, the failed row instead carries
    the metric columns of the successful rows null-filled plus the ``error``
    message -- and in that case every row gains the ``error`` column, so the
    table schema stays rectangular.  Extraction errors on *successful*
    results still propagate: those are extractor bugs, not infeasible rows.
    """
    records: List[object] = []
    fell_back = False
    for result in results:
        if result.ok:
            records.append(extract(result))
            continue
        try:
            records.append(extract(result))
        except Exception:
            records.append(None)
            fell_back = True
    if fell_back:
        first_ok = next((record for record in records if record is not None), {})
        template = first_ok if isinstance(first_ok, AbcMapping) else (first_ok[0] if first_ok else {})
        metric_names = [name for name in template if name != "error"]
        for index, (result, record) in enumerate(zip(results, records)):
            if record is None:
                records[index] = {**{name: None for name in metric_names}, "error": result.error}
            elif isinstance(record, AbcMapping):
                records[index] = {**record, "error": record.get("error", result.error)}
            else:
                records[index] = [{**entry, "error": entry.get("error", result.error)} for entry in record]
    prepared = iter(records)

    def consume(result: SweepResult) -> "Mapping[str, object] | Sequence[Mapping[str, object]]":
        return next(prepared)

    return consume


def _resolve_derive(step: DeriveSpec) -> Tuple[Callable, Dict[str, object]]:
    if callable(step):
        return step, {}
    if isinstance(step, str):
        return get_derive(step), {}
    name, kwargs = step
    return get_derive(name), dict(kwargs)
