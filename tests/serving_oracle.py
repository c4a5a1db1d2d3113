"""Per-token reference for the serving simulator (a test oracle).

The production loop (:class:`repro.serving.simulator.ReplicaEngine`) prices a
prefill from memoized partial sums and whole decode epochs in one vectorized
:meth:`~repro.core.stepcost.StepCostModel.decode_run` call.  This module
prices every step on its own, one operator at a time, and advances the clock
one step at a time, so comparing the two reports with ``to_dict()`` equality
checks both the step pricing and the epoch timestamps bit for bit.

Importable from every test directory (and from ``benchmarks/``, whose
conftest puts this directory on ``sys.path``).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.stepcost import StepCostModel
from repro.hardware.datatypes import Precision
from repro.models.transformer import TransformerConfig
from repro.serving import ServingSimulator
from repro.serving.simulator import ReplicaEngine
from repro.workload.operators import GEMM


def step_time(
    step_cost: StepCostModel,
    model: TransformerConfig,
    query_lens: Sequence[int],
    kv_lens: Sequence[int],
    tensor_parallel: int = 1,
    precision: Precision = Precision.FP16,
    include_lm_head: bool = True,
) -> float:
    """Wall-clock time of one step, priced one operator at a time.

    Request ``i`` brings ``query_lens[i]`` query tokens attending over
    ``kv_lens[i]`` keys: a prefill passes the prompt lengths twice, a decode
    step ones and the KV lengths.  The sum runs over the token ops, then each
    request's attention ops, is scaled by ``num_layers``, and then adds the
    collectives and the lm_head.
    """
    tokens = sum(query_lens)
    layer_ops = list(step_cost._token_ops(model, tokens, tensor_parallel, precision))
    for query, kv in zip(query_lens, kv_lens):
        layer_ops.extend(step_cost._attention_ops(model, query, kv, tensor_parallel, precision))
    lm_head = step_cost._lm_head(model, len(query_lens), tensor_parallel, precision)
    kernels = step_cost.kernel_model
    # Warm the kernel memo in one batched call, as a real step pricer would;
    # the backend is bit-identical to the scalar path it then reads.
    kernels.gemm_model.evaluate_many([op for op in (*layer_ops, lm_head) if isinstance(op, GEMM)])
    device = 0.0
    for op in layer_ops:
        device += kernels.evaluate(op).time + kernels.overhead(op)
    device *= model.num_layers
    communication = step_cost._layer_comm_time(model, tokens, tensor_parallel, precision) * model.num_layers
    if include_lm_head:
        device += kernels.evaluate(lm_head).time + kernels.overhead(lm_head)
    return device + communication


class StepwiseEngine(ReplicaEngine):
    """A :class:`ReplicaEngine` that prices and advances one step at a time."""

    def _step_time(self, query_lens: Sequence[int], kv_lens: Sequence[int]) -> float:
        simulator = self.simulator
        return step_time(
            simulator.step_cost,
            simulator.model,
            query_lens,
            kv_lens,
            tensor_parallel=simulator.tensor_parallel,
            precision=simulator.precision,
            include_lm_head=simulator.include_lm_head,
        )

    def advance(self, until: Optional[float] = None) -> None:
        scheduler = self.scheduler
        pending = self.pending
        while until is None or self.now < until:
            while pending and pending[0].arrival_time <= self.now:
                scheduler.enqueue(pending.popleft())
            admitted = scheduler.admit(self.now)
            if admitted:
                prompts = [state.request.prompt_tokens for state in admitted]
                cost = self._step_time(prompts, prompts)
                self.now += cost
                self.busy_time += cost
                self.prefill_time += cost
                self.prefill_steps += 1
                for state in admitted:
                    state.generated = 1
                    state.first_token_time = self.now
                if any(state.request.output_tokens == 1 for state in admitted):
                    self.completed.extend(scheduler.retire_finished(self.now))
            elif scheduler.has_active:
                active = scheduler.active
                retire_in = scheduler.min_remaining_tokens()
                cost = self._step_time([1] * len(active), [state.decode_kv_len for state in active])
                self.now += cost
                self.busy_time += cost
                self.decode_time += cost
                self.decode_steps += 1
                self.decode_batch_total += len(active)
                for state in active:
                    state.generated += 1
                if retire_in == 1:
                    self.completed.extend(scheduler.retire_finished(self.now))
            elif pending:
                self.now = max(self.now, pending[0].arrival_time)
            else:
                return


class StepwiseSimulator(ServingSimulator):
    """A :class:`ServingSimulator` whose engines are :class:`StepwiseEngine`."""

    def engine(self) -> StepwiseEngine:
        return StepwiseEngine(self)
