"""Step-cost API: price the prefill and decode steps of an inference engine.

This module is the reusable pricing core that both the end-to-end
:class:`~repro.core.inference.InferencePerformanceModel` and the serving
simulator (:mod:`repro.serving`) are built on.  The serving simulator asks
it two questions:

* **What does one prefill over this set of prompt lengths cost?**
  (:meth:`StepCostModel.prefill_step`) -- a continuous-batching engine packs
  the admitted prompts into one forward pass: the weight GEMMs see the
  *total* token count, while attention stays per-sequence.
* **What do ``k`` consecutive decode steps of a fixed batch cost?**
  (:meth:`StepCostModel.decode_run`) -- between two composition changes of a
  continuous-batching engine the decode batch is identical except for every
  KV length advancing by one per step.  Each step prices one query token per
  request through the weight GEMMs plus one attention-scores/context pair
  per request at its own KV-cache length.  The whole steps x batch KV-length
  matrix is priced in one vectorized pass: weight GEMMs, collectives, and
  the lm_head are constant across the epoch and priced once, while the
  KV-dependent attention kernels are looked up from a per-KV-length time
  table filled through the batched roofline backend.

Both answers accumulate their terms in one fixed order -- the batch-constant
token kernels, then each request's attention kernels, times ``num_layers``,
then the collectives and the lm_head -- so a step's cost is the same float
however the steps are grouped.  The stepwise reference that checks this
bit for bit lives with the tests (``tests/serving_oracle.py``).

The module also hosts the phase-report builders
(:meth:`StepCostModel.phase_report`, :meth:`StepCostModel.decode_report_exact`)
that :meth:`InferencePerformanceModel.predict
<repro.core.inference.InferencePerformanceModel.predict>` is reimplemented on
top of; their numbers are bit-identical to the pre-refactor scalar path
(pinned by ``tests/core/test_inference_golden.py``).
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..caching import Memo
from ..comm.collectives import CollectiveAlgorithm
from ..comm.fabric import CollectiveModel, shared_collective_model
from ..hardware.cluster import SystemSpec
from ..hardware.datatypes import Precision
from ..models.transformer import TransformerConfig
from ..perf.kernels import DeviceKernelModel
from ..perf.roofline import BoundType
from ..workload.inference import InferencePhaseSpec
from ..workload.operators import GEMM, Operator
from ..workload.transformer_layer import LayerExecutionSpec, TransformerLayerBuilder
from .reports import KernelTimeEntry, PhaseReport


@dataclasses.dataclass(frozen=True)
class StepCost:
    """Cost of one prefill step.

    Attributes:
        device_time: On-device kernel time of the step, in seconds.
        communication_time: Tensor-parallel collective time of the step.
    """

    device_time: float
    communication_time: float

    @property
    def total_time(self) -> float:
        """Wall-clock time of the step: device kernels plus communication."""
        return self.device_time + self.communication_time


ZERO_STEP = StepCost(0.0, 0.0)


@dataclasses.dataclass(frozen=True)
class DecodeRun:
    """Cost of ``num_steps`` consecutive decode steps over a fixed batch.

    Produced by :meth:`StepCostModel.decode_run`.  Both arrays are
    ``float64`` of shape ``(num_steps,)``.

    Attributes:
        device_times: On-device kernel time per step.
        communication_time: Tensor-parallel collective time of each step
            (constant across the epoch -- it depends only on the batch size).
        total_times: Wall-clock time per step (device + communication).
    """

    device_times: np.ndarray
    communication_time: float
    total_times: np.ndarray

    @property
    def num_steps(self) -> int:
        """Number of decode steps the run prices."""
        return int(self.device_times.shape[0])


_EMPTY_TIMES = np.zeros(0, dtype=np.float64)

#: Batch configurations (model, TP degree, precision) whose attention time
#: tables one :class:`StepCostModel` keeps; the oldest is evicted past this.
_MAX_ATTENTION_TABLES = 64


class _AttentionTimeTable:
    """Grow-on-demand per-KV-length times of the decode attention kernels.

    One contiguous ``(3, size)`` array so an epoch needs a single fancy-
    indexed gather.  Row ``r`` holds ``point.time + launch overhead`` -- the
    term the device-time accumulation adds -- of the scores GEMM (0), the
    context GEMM (1) and the softmax (2), the order
    :meth:`StepCostModel._attention_ops` emits them in.
    """

    #: Row indices of the table.
    SCORES, CONTEXT, SOFTMAX = range(3)

    __slots__ = ("filled", "terms")

    def __init__(self) -> None:
        self.filled = np.zeros(0, dtype=bool)
        self.terms = np.zeros((3, 0), dtype=np.float64)

    def reserve(self, size: int) -> None:
        """Grow the table so KV lengths below ``size`` are addressable."""
        current = self.filled.shape[0]
        if size <= current:
            return
        size = max(size, 2 * current, 256)
        filled = np.zeros(size, dtype=bool)
        filled[:current] = self.filled
        self.filled = filled
        terms = np.zeros((3, size), dtype=np.float64)
        terms[:, :current] = self.terms
        self.terms = terms


@dataclasses.dataclass
class StepCostModel:
    """Prices individual inference-engine steps on one system.

    Attributes:
        system: The hardware system; steps use ``tensor_parallel`` of its
            devices.
        kernel_model: Device kernel timing model (defaults to the system's
            accelerator with standard GEMV utilization).
        collective_model: Communication model; defaults to the double-binary-
            tree algorithm, the latency-optimal choice for the small messages
            of the decode phase.
    """

    system: SystemSpec
    kernel_model: Optional[DeviceKernelModel] = None
    collective_model: Optional[CollectiveModel] = None

    def __post_init__(self) -> None:
        if self.kernel_model is None:
            self.kernel_model = DeviceKernelModel(accelerator=self.system.accelerator)
        if self.collective_model is None:
            self.collective_model = shared_collective_model(
                self.system, CollectiveAlgorithm.DOUBLE_BINARY_TREE
            )
        # Per-shape operator lists and per-layer collective times recur across
        # thousands of simulation steps; memoizing them keeps the
        # discrete-event loop allocation-light.
        self._attention_ops_cache = Memo()
        self._token_ops_cache = Memo()
        self._comm_time_cache = Memo()
        # Step pricing state: per-KV-length attention time tables and the
        # batch-constant partial sums of the token ops and the lm_head.  All
        # survive across simulations (and across the scenarios of a sweep
        # when the model instance is shared through the engine).
        self._attention_tables: Dict[Tuple, _AttentionTimeTable] = {}
        self._token_partials_cache = Memo()
        self._head_terms_cache = Memo()
        # Serializes the table registry (lookup, eviction, insert) and table
        # growth + fills: one StepCostModel is shared per system
        # (engine_for), so thread-executor sweeps price epochs concurrently.
        # The gather stays lock-free -- growth copies the old content and a
        # gather reads one array reference atomically.
        self._table_lock = threading.Lock()
        # Memo telemetry: every lookup into the caches above counts as a hit
        # or a miss, so sweeps can verify that a shared instance actually
        # reuses its pricing work across scenario evaluations.
        self.cache_hits = 0
        self.cache_misses = 0

    def tp_scope(self, tensor_parallel: int) -> str:
        """Collective scope of a TP group of the given size on this system."""
        return "intra_node" if tensor_parallel <= self.system.devices_per_node else "inter_node"

    # -- phase reports (the InferencePerformanceModel backend) -------------------------

    def phase_report(
        self,
        name: str,
        builder: Optional[TransformerLayerBuilder],
        num_layers: int,
        lm_head: Optional[GEMM],
        repeats: int,
        tp_scope: str,
        ops: Optional[Sequence[Operator]] = None,
        comms: Optional[Sequence[Operator]] = None,
    ) -> PhaseReport:
        """Price one phase: ``repeats`` executions of ``num_layers`` layers.

        ``ops``/``comms`` accept the layer's precomputed operator lists (what
        ``builder.forward_compute_ops()`` / ``forward_communication(tp_scope)``
        return) so a planning pass can build the workload graph once and price
        it later; when given, ``builder`` may be ``None``.  The accumulation
        below is identical either way.
        """
        if ops is None:
            ops = builder.forward_compute_ops()
        if comms is None:
            comms = builder.forward_communication(scope=tp_scope)
        device_time = 0.0
        compute_bound_time = 0.0
        memory_bound_time = 0.0
        entries: List[KernelTimeEntry] = []
        for op in ops:
            point = self.kernel_model.evaluate(op)
            time = point.time + self.kernel_model.overhead(op)
            device_time += time * num_layers
            if isinstance(op, GEMM):
                if point.bound is BoundType.COMPUTE:
                    compute_bound_time += point.time * num_layers
                else:
                    memory_bound_time += point.time * num_layers
            entries.append(
                KernelTimeEntry(
                    name=op.name,
                    time=time,
                    count=num_layers * repeats,
                    bound=point.bound,
                    flops=op.flops,
                    bytes_moved=point.level_bytes.get("DRAM", op.bytes_total),
                )
            )
        communication_time = 0.0
        for comm in comms:
            communication_time += self.collective_model.time(comm) * num_layers
        if lm_head is not None:
            head_point, head_time, entry = self.lm_head_entry(lm_head, count=repeats)
            device_time += head_time
            if head_point.bound is BoundType.COMPUTE:
                compute_bound_time += head_point.time
            else:
                memory_bound_time += head_point.time
            entries.append(entry)
        return PhaseReport(
            name=name,
            device_time=device_time * repeats,
            communication_time=communication_time * repeats,
            compute_bound_time=compute_bound_time * repeats,
            memory_bound_time=memory_bound_time * repeats,
            kernel_breakdown=entries,
        )

    def lm_head_entry(self, lm_head: GEMM, count: int):
        """Price the logits GEMM once and shape its breakdown entry.

        Shared by the average and exact decode paths (the lm_head cost does
        not depend on the KV length); callers scale the returned times by
        their own repeat count.
        """
        head_point = self.kernel_model.evaluate(lm_head)
        head_time = head_point.time + self.kernel_model.overhead(lm_head)
        entry = KernelTimeEntry(
            name=lm_head.name,
            time=head_time,
            count=count,
            bound=head_point.bound,
            flops=lm_head.flops,
            bytes_moved=head_point.level_bytes.get("DRAM", lm_head.bytes_total),
        )
        return head_point, head_time, entry

    def decode_exact_prepared(
        self, spec: InferencePhaseSpec
    ) -> Tuple[List[TransformerLayerBuilder], List[List[Operator]]]:
        """Per-step builders and operator lists of the exact decode phase.

        One builder (and its ``forward_compute_ops()`` list) per generated
        token, at that token's true KV length -- exactly what
        :meth:`decode_report_exact` constructs internally.  A planning pass
        builds these once, collects the GEMMs for a cross-scenario batch, and
        passes the pair back via ``prepared`` so the graph is not rebuilt at
        pricing time.
        """
        steps = max(0, spec.generated_tokens)
        builders = [
            TransformerLayerBuilder(spec.decode_layer_spec(spec.prompt_len + step))
            for step in range(steps)
        ]
        return builders, [builder.forward_compute_ops() for builder in builders]

    def decode_report_exact(
        self,
        spec: InferencePhaseSpec,
        num_layers: int,
        lm_head: Optional[GEMM],
        tp_scope: str,
        prepared: Optional[Tuple[List[TransformerLayerBuilder], List[List[Operator]]]] = None,
    ) -> PhaseReport:
        """Price the decode phase with every token at its true KV length.

        The KV-cache grows from ``prompt_len`` to ``prompt_len + T - 1`` over
        the ``T`` generated tokens, so the per-token operator lists differ
        only in the KV-dependent kernels (attention scores/context, softmax).
        All GEMMs of all steps are evaluated in **one** call through the
        vectorized roofline backend; the kernel breakdown reports the mean
        per-invocation time (so ``entry.time * entry.count`` stays the exact
        phase total) and the bound type of the median-KV step.
        """
        steps = max(0, spec.generated_tokens)
        if steps == 0:
            return PhaseReport(
                name="decode",
                device_time=0.0,
                communication_time=0.0,
                compute_bound_time=0.0,
                memory_bound_time=0.0,
                kernel_breakdown=[],
            )
        builders, step_ops = prepared if prepared is not None else self.decode_exact_prepared(spec)
        # One batched evaluation warms the kernel memo for every GEMM of every
        # step; the per-slot loop below then only takes cache hits.
        self.kernel_model.gemm_model.evaluate_many(
            [op for ops in step_ops for op in ops if isinstance(op, GEMM)]
        )

        device_time = 0.0
        compute_bound_time = 0.0
        memory_bound_time = 0.0
        entries: List[KernelTimeEntry] = []
        median_step = steps // 2
        for slot in zip(*step_ops):
            overhead = self.kernel_model.overhead(slot[0])
            points = [self.kernel_model.evaluate(op) for op in slot]
            slot_kernel_time = sum(point.time for point in points)
            slot_time = slot_kernel_time + overhead * steps
            device_time += slot_time * num_layers
            if isinstance(slot[0], GEMM):
                slot_compute = sum(point.time for point in points if point.bound is BoundType.COMPUTE)
                compute_bound_time += slot_compute * num_layers
                memory_bound_time += (slot_kernel_time - slot_compute) * num_layers
            entries.append(
                KernelTimeEntry(
                    name=slot[0].name,
                    time=slot_time / steps,
                    count=num_layers * steps,
                    bound=points[median_step].bound,
                    flops=sum(op.flops for op in slot) / steps,
                    bytes_moved=sum(
                        point.level_bytes.get("DRAM", op.bytes_total) for op, point in zip(slot, points)
                    )
                    / steps,
                )
            )
        communication_time = 0.0
        for comm in builders[0].forward_communication(scope=tp_scope):
            communication_time += self.collective_model.time(comm) * num_layers
        communication_time *= steps
        if lm_head is not None:
            head_point, head_time, entry = self.lm_head_entry(lm_head, count=steps)
            device_time += head_time * steps
            if head_point.bound is BoundType.COMPUTE:
                compute_bound_time += head_point.time * steps
            else:
                memory_bound_time += head_point.time * steps
            entries.append(entry)
        return PhaseReport(
            name="decode",
            device_time=device_time,
            communication_time=communication_time,
            compute_bound_time=compute_bound_time,
            memory_bound_time=memory_bound_time,
            kernel_breakdown=entries,
        )

    def lm_head_gemm(self, spec: InferencePhaseSpec) -> Optional[GEMM]:
        """The logits GEMM of one phase (one query token per request)."""
        if not spec.include_lm_head:
            return None
        return self._lm_head(spec.model, spec.batch_size, spec.tensor_parallel, spec.precision)

    def _lm_head(
        self, model: TransformerConfig, tokens: int, tensor_parallel: int, precision: Precision
    ) -> GEMM:
        vocab_per_rank = max(1, model.vocab_size // tensor_parallel)
        return GEMM(
            name="lm_head",
            precision=precision,
            m=tokens,
            n=vocab_per_rank,
            k=model.hidden_size,
            weight_operand=True,
        )

    # -- mixed-batch step costs (the serving-simulator backend) ------------------------

    def _token_ops(
        self, model: TransformerConfig, tokens: int, tensor_parallel: int, precision: Precision
    ) -> Tuple[Operator, ...]:
        """Kernels whose cost depends only on the *total* token count.

        A continuous-batching engine concatenates the step's query tokens into
        one activation matrix, so the weight GEMMs (QKV / attention output /
        MLP), the layer-norms, residuals, and the KV-cache append all see
        ``tokens`` rows regardless of how those rows split across requests.
        """
        key = (model, tokens, tensor_parallel, precision)
        ops = self._token_ops_cache.get(key)
        if ops is not None:
            self.cache_hits += 1
            return ops
        self.cache_misses += 1
        builder = TransformerLayerBuilder(
            LayerExecutionSpec(
                model=model,
                micro_batch=1,
                seq_len=tokens,
                tensor_parallel=tensor_parallel,
                precision=precision,
                with_dropout=False,
                use_kv_cache=True,
            )
        )
        attention = builder.attention_gemms()
        boundary = builder.block_boundary_ops()
        kv_append = builder.attention_auxiliary_ops()[-1]  # the MemoryOp, softmax is per-request
        assembled: List[Operator] = [boundary[0], attention[0], kv_append, attention[3]]
        assembled.extend(boundary[1:4])
        assembled.extend(builder.mlp_gemms())
        assembled.extend(builder.mlp_auxiliary_ops())
        return self._token_ops_cache.put(key, tuple(assembled))

    def _attention_ops(
        self,
        model: TransformerConfig,
        seq_len: int,
        kv_len: int,
        tensor_parallel: int,
        precision: Precision,
    ) -> Tuple[Operator, ...]:
        """Per-request attention kernels: scores and context GEMMs plus softmax."""
        key = (model, seq_len, kv_len, tensor_parallel, precision)
        ops = self._attention_ops_cache.get(key)
        if ops is not None:
            self.cache_hits += 1
            return ops
        self.cache_misses += 1
        builder = TransformerLayerBuilder(
            LayerExecutionSpec(
                model=model,
                micro_batch=1,
                seq_len=seq_len,
                kv_len=max(1, kv_len),
                tensor_parallel=tensor_parallel,
                precision=precision,
                with_dropout=False,
                use_kv_cache=True,
            )
        )
        gemms = builder.attention_gemms()
        softmax = builder.attention_auxiliary_ops()[0]
        return self._attention_ops_cache.put(key, (gemms[1], gemms[2], softmax))

    def _layer_comm_time(
        self, model: TransformerConfig, tokens: int, tensor_parallel: int, precision: Precision
    ) -> float:
        """Tensor-parallel collective time of one layer over ``tokens`` query tokens."""
        if tensor_parallel <= 1:
            return 0.0
        key = (model, tokens, tensor_parallel, precision)
        cached = self._comm_time_cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        builder = TransformerLayerBuilder(
            LayerExecutionSpec(
                model=model,
                micro_batch=1,
                seq_len=tokens,
                tensor_parallel=tensor_parallel,
                precision=precision,
                with_dropout=False,
                use_kv_cache=True,
            )
        )
        scope = self.tp_scope(tensor_parallel)
        time = sum(self.collective_model.time(comm) for comm in builder.forward_communication(scope=scope))
        return self._comm_time_cache.put(key, time)

    def prefill_step(
        self,
        model: TransformerConfig,
        prompt_lens: Sequence[int],
        tensor_parallel: int = 1,
        precision: Precision = Precision.FP16,
        include_lm_head: bool = True,
    ) -> StepCost:
        """Cost of one prefill over a batch of prompts with the given lengths.

        The prompts are packed into one forward pass: weight GEMMs and norms
        see ``sum(prompt_lens)`` tokens, while each request keeps its own
        attention-scores/context GEMMs and softmax at its own length.  The
        lm_head prices one logits row per request (only the last prompt token
        feeds generation).  The device time continues the memoized token-op
        partial sum with each prompt's attention terms, in the order
        :meth:`decode_run` accumulates a decode step.
        """
        prompt_lens = [int(length) for length in prompt_lens]
        if not prompt_lens:
            return ZERO_STEP
        tokens = sum(prompt_lens)
        token_ops = self._token_ops(model, tokens, tensor_parallel, precision)
        attention_ops = [
            op
            for length in prompt_lens
            for op in self._attention_ops(model, length, length, tensor_parallel, precision)
        ]
        # One batched call warms the kernel memo for every GEMM of the step
        # (the token-op partial sum prices from it on a miss); the per-op
        # loops then only take cache hits.
        self.kernel_model.gemm_model.evaluate_many(
            [op for op in (*token_ops, *attention_ops) if isinstance(op, GEMM)]
        )
        evaluate = self.kernel_model.evaluate
        overhead = self.kernel_model.overhead
        device_time = self._token_partials(model, tokens, tensor_parallel, precision)
        for op in attention_ops:
            device_time += evaluate(op).time + overhead(op)
        device_time *= model.num_layers
        communication_time = self._layer_comm_time(model, tokens, tensor_parallel, precision) * model.num_layers
        if include_lm_head:
            device_time += self._head_terms(model, len(prompt_lens), tensor_parallel, precision)
        return StepCost(device_time=device_time, communication_time=communication_time)

    # -- epoch-fused decode pricing (the event-horizon serving backend) ----------------

    def _attention_table(
        self, model: TransformerConfig, tensor_parallel: int, precision: Precision
    ) -> _AttentionTimeTable:
        """The per-KV-length attention time table of one batch configuration."""
        key = (model, tensor_parallel, precision)
        with self._table_lock:
            table = self._attention_tables.get(key)
            if table is None:
                if len(self._attention_tables) >= _MAX_ATTENTION_TABLES:
                    # Evict the oldest configuration only: clearing everything
                    # would throw away the warm tables of all the others.
                    self._attention_tables.pop(next(iter(self._attention_tables)))
                table = _AttentionTimeTable()
                self._attention_tables[key] = table
        return table

    def _demand_attention_rows(
        self,
        table: _AttentionTimeTable,
        model: TransformerConfig,
        kv_lens: Sequence[int],
        num_steps: int,
        tensor_parallel: int,
        precision: Precision,
    ) -> None:
        """Make sure the table covers ``[kv, kv + num_steps)`` for every batch entry.

        The epoch's KV demand is a union of equal-length integer ranges, so
        coverage is computed by merging the (at most batch-size) sorted
        ranges instead of deduplicating the full steps x batch matrix; on the
        common warm path every span is already filled and this is just one
        ``all()`` per span.  Growth and fills hold the table lock because the
        owning model is shared across thread-executor sweeps.
        """
        unique_kvs = sorted(set(kv_lens))
        with self._table_lock:
            table.reserve(unique_kvs[-1] + num_steps)
            spans: List[List[int]] = []
            for kv in unique_kvs:
                stop = kv + num_steps
                if spans and kv <= spans[-1][1]:
                    if stop > spans[-1][1]:
                        spans[-1][1] = stop
                else:
                    spans.append([kv, stop])
            filled = table.filled
            demanded = 0
            chunks: List[np.ndarray] = []
            for start, stop in spans:
                demanded += stop - start
                segment = filled[start:stop]
                if not segment.all():
                    chunks.append(start + np.nonzero(~segment)[0])
            if not chunks:
                self.cache_hits += demanded
                return
            missing = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
            self.cache_hits += demanded - int(missing.size)
            self.cache_misses += int(missing.size)
            self._fill_attention_table(table, model, missing, tensor_parallel, precision)

    def _fill_attention_table(
        self,
        table: _AttentionTimeTable,
        model: TransformerConfig,
        missing: np.ndarray,
        tensor_parallel: int,
        precision: Precision,
    ) -> None:
        """Price the attention kernels of every KV length in ``missing`` at once.

        The scores/context GEMMs of all lengths go through the batched
        roofline backend in one call and the softmax times are reduced with
        the memory-bound kernel model's exact arithmetic, so the stored terms
        match what the scalar per-step accumulation of :meth:`_price_step`
        adds for each kernel bit for bit (the backend's exact-equality
        contract, enforced by ``tests/perf/test_batched.py``).
        """
        from ..perf.batched import GemmBatch

        ops_by_kv = [
            self._attention_ops(model, 1, int(kv), tensor_parallel, precision) for kv in missing
        ]
        gemm_model = self.kernel_model.gemm_model
        result = gemm_model.batched.evaluate_batch(
            GemmBatch.from_gemms(op for scores, context, _ in ops_by_kv for op in (scores, context))
        )
        device_terms = result.kernel_time + gemm_model.kernel_overhead
        terms = table.terms
        terms[table.SCORES, missing] = device_terms[0::2]
        terms[table.CONTEXT, missing] = device_terms[1::2]

        # Softmax: the memory-bound kernel model's max(compute, DRAM stream)
        # with the same operand order as MemoryBoundKernelModel.evaluate.
        memory_model = self.kernel_model.memory_model
        dram = memory_model.accelerator.memory.dram
        bandwidth = dram.bandwidth * memory_model.dram_utilization
        softmax_bytes = np.array([ops[2].bytes_total for ops in ops_by_kv], dtype=np.float64)
        softmax_flops = np.array([ops[2].flops for ops in ops_by_kv], dtype=np.float64)
        softmax_times = np.maximum(
            softmax_flops / memory_model.accelerator.compute.vector_throughput,
            softmax_bytes / bandwidth,
        )
        terms[table.SOFTMAX, missing] = softmax_times + memory_model.kernel_overhead
        table.filled[missing] = True

    def _token_partials(
        self, model: TransformerConfig, tokens: int, tensor_parallel: int, precision: Precision
    ) -> float:
        """Device-time partial sum of the batch-constant (token-count) kernels.

        The sequential sum of ``point.time + overhead`` over the token ops of
        one layer, which every step (prefill or decode) continues with its
        per-request attention terms.
        """
        key = (model, tokens, tensor_parallel, precision)
        partial = self._token_partials_cache.get(key)
        if partial is not None:
            self.cache_hits += 1
            return partial
        self.cache_misses += 1
        ops = self._token_ops(model, tokens, tensor_parallel, precision)
        gemm_model = self.kernel_model.gemm_model
        missing = [op for op in ops if isinstance(op, GEMM) and not gemm_model.memoized(op)]
        if missing:
            gemm_model.evaluate_many(missing)
        device = 0.0
        for op in ops:
            device += self.kernel_model.evaluate(op).time + self.kernel_model.overhead(op)
        return self._token_partials_cache.put(key, device)

    def _head_terms(
        self, model: TransformerConfig, tokens: int, tensor_parallel: int, precision: Precision
    ) -> float:
        """The lm_head's ``point.time + overhead`` device term for ``tokens`` logits rows."""
        key = (model, tokens, tensor_parallel, precision)
        term = self._head_terms_cache.get(key)
        if term is not None:
            self.cache_hits += 1
            return term
        self.cache_misses += 1
        lm_head = self._lm_head(model, tokens, tensor_parallel, precision)
        term = self.kernel_model.evaluate(lm_head).time + self.kernel_model.overhead(lm_head)
        return self._head_terms_cache.put(key, term)

    def decode_run(
        self,
        model: TransformerConfig,
        kv_lens: Sequence[int],
        num_steps: int,
        tensor_parallel: int = 1,
        precision: Precision = Precision.FP16,
        include_lm_head: bool = True,
    ) -> DecodeRun:
        """Price ``num_steps`` consecutive decode steps of a fixed batch at once.

        Step ``s`` (0-based) prices the batch at KV lengths
        ``[kv + s for kv in kv_lens]`` -- what a continuous-batching engine
        decodes over an epoch with no admissions or retirements.  The weight
        GEMMs, the collectives, and the lm_head depend only on the (constant)
        batch composition and are priced once; the per-request attention
        kernels come from the per-KV-length table.  Each step's device time is
        a sequential ``cumsum`` seeded with the token-op partial sum, so entry
        ``s`` is the same float a one-step run at those KV lengths returns.
        """
        kv_lens = [int(length) for length in kv_lens]
        num_steps = int(num_steps)
        if not kv_lens or num_steps < 1:
            return DecodeRun(device_times=_EMPTY_TIMES, communication_time=0.0, total_times=_EMPTY_TIMES)
        batch = len(kv_lens)
        num_layers = model.num_layers
        table = self._attention_table(model, tensor_parallel, precision)
        self._demand_attention_rows(table, model, kv_lens, num_steps, tensor_parallel, precision)
        token_device = self._token_partials(model, batch, tensor_parallel, precision)

        # One gather of every attention term the epoch touches:
        # gathered[row, s, i] is table row `row` at request i's KV length in
        # step s.
        kv_matrix = (
            np.asarray(kv_lens, dtype=np.int64)[None, :]
            + np.arange(num_steps, dtype=np.int64)[:, None]
        )
        gathered = table.terms[:, kv_matrix]

        # Sequential (cumsum) reduction over [token partial, per-request
        # attention terms...] per step: columns 3i+1..3i+3 of a row hold
        # request i's scores/context/softmax terms.
        device_terms = np.empty((num_steps, 3 * batch + 1), dtype=np.float64)
        device_terms[:, 0] = token_device
        device_terms[:, 1::3] = gathered[table.SCORES]
        device_terms[:, 2::3] = gathered[table.CONTEXT]
        device_terms[:, 3::3] = gathered[table.SOFTMAX]
        device_times = device_terms.cumsum(axis=1)[:, -1] * num_layers

        communication_time = (
            self._layer_comm_time(model, batch, tensor_parallel, precision) * num_layers
        )
        if include_lm_head:
            device_times = device_times + self._head_terms(model, batch, tensor_parallel, precision)
        return DecodeRun(
            device_times=device_times,
            communication_time=communication_time,
            total_times=device_times + communication_time,
        )
