"""Discrete-event serving simulation priced by the step-cost layer.

The simulator advances a virtual clock in *engine steps*, exactly the way a
continuous-batching inference server does:

1. Requests whose arrival time has passed join the waiting queue.
2. If the scheduler can admit waiting requests (KV memory + batch slots),
   the engine runs one **prefill step** over the admitted prompts, which
   produces each request's first token (TTFT).
3. Otherwise the engine runs **decode steps** over every active request at
   its current KV length; each step produces one token per request, and
   finished requests retire and release their KV reservation.
4. With no runnable work, the clock jumps to the next arrival.

Decode steps are not priced one at a time.  Between two composition changes
of the running batch -- the next retirement, or the next arrival that could
actually be admitted -- every step is identical except for the KV lengths
advancing by one.  The loop computes that *epoch horizon* from the scheduler
(:meth:`~repro.serving.scheduler.ContinuousBatchingScheduler.min_remaining_tokens`
/ :attr:`~repro.serving.scheduler.ContinuousBatchingScheduler.admission_blocked`)
and prices the whole epoch in one
:meth:`~repro.core.stepcost.StepCostModel.decode_run` call; per-step
timestamps then come from sequential cumulative sums, which keeps every
clock value **bit-identical** to pricing and timestamping one token at a
time (the per-token reference in ``tests/serving_oracle.py`` checks this
across randomized traces).  The simulation is fully deterministic: the
trace is seeded, the pricing is analytic, and ties are broken by queue
order.

The loop lives in :class:`ReplicaEngine`, a *resumable* form of the event
loop: requests are submitted incrementally and the engine advances until
drained or until a caller-supplied horizon time.  A single-replica
simulation (:meth:`ServingSimulator.run`) submits the whole trace and drains
in one call; the fleet simulator (:mod:`repro.serving.fleet`) interleaves
many engines, advancing each to the next routed arrival.  Cutting an epoch
at an extra boundary never changes results -- per-step costs and sequential
timestamp sums are independent of how steps are grouped, and an admission
re-check on an unchanged queue is a no-op -- which is what keeps an N=1
fleet bit-identical to this simulator (pinned in
``tests/serving/test_fleet.py``).
"""

from __future__ import annotations

import collections
import dataclasses
from typing import Deque, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.stepcost import StepCostModel
from ..errors import ConfigurationError
from ..hardware.cluster import SystemSpec
from ..hardware.datatypes import Precision
from ..models.transformer import TransformerConfig
from .report import RequestMetrics, ServingReport, ServingSLO, percentile
from .request import Request, TraceConfig
from .scheduler import ContinuousBatchingScheduler, RequestState, SchedulerConfig

#: Upper bound on the steps one epoch prices at once.  Caps the term
#: matrices of :meth:`StepCostModel.decode_run` (bounding memory); epochs
#: longer than this simply continue in the next loop iteration.
_MAX_EPOCH_STEPS = 1024

#: Priced-horizon cap while a pending arrival could still be admitted
#: mid-epoch, or while the caller advances to a horizon time.  The cut's
#: step index is unknown until the steps are priced, so pricing the full
#: retirement horizon could discard almost all of it; a short probe bounds
#: the waste, and uninterrupted probes commit and continue through the main
#: loop like any capped epoch.
_ARRIVAL_PROBE_STEPS = 64


def _running_sum(start: float, values: np.ndarray) -> np.ndarray:
    """Sequential running sum ``[start, start + v0, start + v0 + v1, ...]``.

    ``np.cumsum`` accumulates strictly left to right (it is ``add.accumulate``,
    which never uses pairwise summation), so entry ``i + 1`` is bit-identical
    to ``i + 1`` scalar ``+=`` updates of an accumulator that began at
    ``start`` -- the property the epoch loop relies on for exact timestamps.
    """
    buffer = np.empty(values.shape[0] + 1, dtype=np.float64)
    buffer[0] = start
    buffer[1:] = values
    return np.cumsum(buffer)


@dataclasses.dataclass(frozen=True)
class ServingConfig:
    """Frozen bundle of everything one serving simulation depends on.

    Attributes:
        trace: The seeded workload description.
        scheduler: Batching / admission-control knobs.
        slo: Latency SLO used for the goodput metrics.
        include_lm_head: Whether steps price the logits GEMM.
    """

    trace: TraceConfig
    scheduler: SchedulerConfig = dataclasses.field(default_factory=SchedulerConfig)
    slo: ServingSLO = dataclasses.field(default_factory=ServingSLO)
    include_lm_head: bool = True


class ReplicaEngine:
    """Resumable continuous-batching event loop over one engine replica.

    The engine owns the scheduler, the virtual clock, and the step/time
    accumulators of one replica.  Requests are :meth:`submit`-ted in arrival
    order (possibly incrementally, between :meth:`advance` calls -- the fleet
    routes each arrival when it happens) and the loop advances through
    prefill steps and decode epochs priced by the simulator's shared
    :class:`~repro.core.stepcost.StepCostModel`.

    ``advance(until=t)`` pauses once the clock reaches ``t`` (engine steps
    are atomic, so the clock may overshoot by the final step of an epoch) or
    once the replica has no runnable work; ``advance()`` drains everything
    submitted so far.  Extra epoch boundaries introduced by ``until`` cuts
    are invisible in the results: per-step pricing and the sequential
    timestamp sums do not depend on epoch grouping.
    """

    def __init__(self, simulator: "ServingSimulator"):
        self.simulator = simulator
        self.scheduler = ContinuousBatchingScheduler(
            model=simulator.model,
            config=simulator.scheduler_config,
            device_memory_bytes=simulator.system.accelerator.dram_capacity,
            tensor_parallel=simulator.tensor_parallel,
            precision=simulator.precision,
        )
        self.pending: Deque[Request] = collections.deque()
        self.submitted = 0
        self.now = 0.0
        self.busy_time = 0.0
        self.prefill_time = 0.0
        self.decode_time = 0.0
        self.prefill_steps = 0
        self.decode_steps = 0
        self.decode_batch_total = 0
        self.completed: List[RequestState] = []

    def submit(self, request: Request) -> None:
        """Hand one request to the replica (callers submit in arrival order)."""
        self.pending.append(request)
        self.submitted += 1

    @property
    def queued_requests(self) -> int:
        """Requests routed here but not yet admitted (pending + waiting)."""
        return len(self.pending) + len(self.scheduler.waiting)

    @property
    def drained(self) -> bool:
        """Whether the replica has no runnable or queued work left."""
        return not self.pending and not self.scheduler.has_active and not self.scheduler.has_waiting

    def fail(self) -> "Tuple[List[RequestState], List[Request]]":
        """Crash the replica: every in-flight and queued request is lost.

        The scheduler evacuates (KV cache gone, reservations released) and
        the pending queue empties; the fleet layer re-routes the returned
        ``(active_states, lost_requests)`` under its retry policy.  The
        clock and the time/step accumulators survive -- work the replica
        already priced stays priced (wasted prefill is exactly the point),
        and ``completed`` keeps earlier successes.  ``submitted`` also
        stays: this replica *did* receive those requests, so the
        per-replica report counts them even if they complete elsewhere
        after the retry.
        """
        active, lost = self.scheduler.evacuate()
        lost.extend(self.pending)
        self.pending.clear()
        return active, lost

    def advance(self, until: Optional[float] = None) -> None:
        """Run the event loop until drained, or until the clock reaches ``until``."""
        simulator = self.simulator
        scheduler = self.scheduler
        pending = self.pending
        step_cost = simulator.step_cost
        while until is None or self.now < until:
            while pending and pending[0].arrival_time <= self.now:
                scheduler.enqueue(pending.popleft())

            admitted = scheduler.admit(self.now)
            if admitted:
                cost = step_cost.prefill_step(
                    simulator.model,
                    [state.request.prompt_tokens for state in admitted],
                    tensor_parallel=simulator.tensor_parallel,
                    precision=simulator.precision,
                    include_lm_head=simulator.include_lm_head,
                )
                self.now += cost.total_time
                self.busy_time += cost.total_time
                self.prefill_time += cost.total_time
                self.prefill_steps += 1
                for state in admitted:
                    state.generated = 1
                    state.first_token_time = self.now
                # Only single-token requests can finish on their prefill.
                if any(state.request.output_tokens == 1 for state in admitted):
                    self.completed.extend(scheduler.retire_finished(self.now))
            elif scheduler.has_active:
                active = scheduler.active
                retire_in = scheduler.min_remaining_tokens()
                kv_lens = [state.decode_kv_len for state in active]
                # Event-horizon epoch: price every step up to the next
                # retirement in one vectorized call, then cut the epoch at the
                # first arrival that could change scheduling (and, when
                # resuming incrementally, at the caller's horizon).
                interruptible = bool(pending) and not scheduler.admission_blocked
                probing = interruptible or until is not None
                horizon = min(retire_in, _ARRIVAL_PROBE_STEPS if probing else _MAX_EPOCH_STEPS)
                epoch = step_cost.decode_run(
                    simulator.model,
                    kv_lens,
                    horizon,
                    tensor_parallel=simulator.tensor_parallel,
                    precision=simulator.precision,
                    include_lm_head=simulator.include_lm_head,
                )
                totals = epoch.total_times
                end_times = _running_sum(self.now, totals)
                steps = horizon
                if interruptible:
                    # First step after which the pending arrival is due
                    # (arrival_time <= clock), the loop's enqueue predicate.
                    cut = int(np.searchsorted(end_times[1:], pending[0].arrival_time, side="left"))
                    if cut < horizon:
                        steps = cut + 1
                if until is not None:
                    # Hand control back at the first step boundary at or
                    # past the caller's horizon.
                    cut = int(np.searchsorted(end_times[1:], until, side="left"))
                    if cut < horizon:
                        steps = min(steps, cut + 1)
                self.now = float(end_times[steps])
                # busy_time and decode_time advance by the same step totals
                # but from different starting values; one stacked cumsum
                # keeps both accumulations sequential (bit-exact).
                accumulators = np.empty((2, steps + 1), dtype=np.float64)
                accumulators[0, 0] = self.busy_time
                accumulators[1, 0] = self.decode_time
                accumulators[:, 1:] = totals[:steps]
                finals = accumulators.cumsum(axis=1)[:, -1]
                self.busy_time = float(finals[0])
                self.decode_time = float(finals[1])
                self.decode_steps += steps
                self.decode_batch_total += len(kv_lens) * steps
                for state in active:
                    state.generated += steps
                if steps == retire_in:
                    self.completed.extend(scheduler.retire_finished(self.now))
            elif pending:
                self.now = max(self.now, pending[0].arrival_time)
            else:
                return  # no active work, nothing waiting that fits, queue drained

            # Waiting requests that cannot ever be admitted were dropped by
            # admit(); if only such requests remain and nothing is active,
            # the next loop iteration exits through the branches above.


class ServingSimulator:
    """Simulates request-level serving of one model on one system.

    Prefill steps are priced through :meth:`StepCostModel.prefill_step` and
    decode steps in epochs through :meth:`StepCostModel.decode_run`; see the
    module docstring for how epochs are cut.
    """

    def __init__(
        self,
        system: SystemSpec,
        model: TransformerConfig,
        tensor_parallel: int = 1,
        precision: Precision = Precision.FP16,
        step_cost: Optional[StepCostModel] = None,
        scheduler_config: Optional[SchedulerConfig] = None,
        slo: Optional[ServingSLO] = None,
        include_lm_head: bool = True,
    ):
        if tensor_parallel < 1:
            raise ConfigurationError("tensor_parallel must be >= 1")
        self.system = system
        self.model = model
        self.tensor_parallel = tensor_parallel
        self.precision = precision
        self.step_cost = step_cost if step_cost is not None else StepCostModel(system=system)
        self.scheduler_config = scheduler_config or SchedulerConfig()
        self.slo = slo or ServingSLO()
        self.include_lm_head = include_lm_head

    def engine(self) -> ReplicaEngine:
        """A fresh resumable event loop with this simulator's configuration."""
        return ReplicaEngine(self)

    def run(self, workload: Union[TraceConfig, Sequence[Request]]) -> ServingReport:
        """Simulate the workload to completion and aggregate the report.

        ``workload`` is either a :class:`TraceConfig` (generated here) or an
        explicit request sequence.  Requests that can never fit the memory
        budget are rejected and excluded from latency percentiles but counted
        in :attr:`ServingReport.rejected_requests`.
        """
        requests = list(workload.generate() if isinstance(workload, TraceConfig) else workload)
        if not requests:
            raise ConfigurationError("serving simulation needs at least one request")
        requests.sort(key=lambda request: (request.arrival_time, request.request_id))

        engine = self.engine()
        for request in requests:
            engine.submit(request)
        engine.advance()
        return self.report(engine)

    # -- aggregation -------------------------------------------------------------------

    def report(self, engine: ReplicaEngine) -> ServingReport:
        """Aggregate one (drained) engine's state into a :class:`ServingReport`.

        An engine that received zero requests produces a valid all-zero
        report (a fleet replica no arrival was routed to), with the latency
        percentiles pinned to 0.0 explicitly -- :func:`percentile` itself
        raises on empty samples.
        """
        completed = sorted(engine.completed, key=lambda state: state.request.request_id)
        simulated_time = engine.now
        if completed:
            # One pass over the completed states into NumPy columns; the
            # derived metric arrays feed both the per-request records and the
            # percentile/goodput reductions below.
            arrivals = np.array([state.request.arrival_time for state in completed])
            admitted = np.array([state.admitted_time for state in completed])
            first_token = np.array([state.first_token_time for state in completed])
            finish = np.array([state.finish_time for state in completed])
            output_tokens_column = np.array(
                [state.request.output_tokens for state in completed], dtype=np.int64
            )
            queues = admitted - arrivals
            ttfts = first_token - arrivals
            decode_tokens = output_tokens_column - 1
            tpots = np.where(
                decode_tokens > 0,
                (finish - first_token) / np.maximum(decode_tokens, 1),
                0.0,
            )
            e2e_latencies = finish - arrivals
            per_request = [
                RequestMetrics(
                    request_id=state.request.request_id,
                    arrival_time=state.request.arrival_time,
                    queue_time=float(queues[index]),
                    ttft=float(ttfts[index]),
                    tpot=float(tpots[index]),
                    e2e_latency=float(e2e_latencies[index]),
                    prompt_tokens=state.request.prompt_tokens,
                    output_tokens=state.request.output_tokens,
                )
                for index, state in enumerate(completed)
            ]
            output_tokens = int(output_tokens_column.sum())
            good = int(np.count_nonzero(self.slo.met_mask(ttfts, tpots)))
            percentiles = {
                "ttft_p50": percentile(ttfts, 50),
                "ttft_p99": percentile(ttfts, 99),
                "tpot_p50": percentile(tpots, 50),
                "tpot_p99": percentile(tpots, 99),
                "queue_p50": percentile(queues, 50),
                "queue_p99": percentile(queues, 99),
            }
        else:
            per_request = []
            output_tokens = 0
            good = 0
            percentiles = {
                "ttft_p50": 0.0,
                "ttft_p99": 0.0,
                "tpot_p50": 0.0,
                "tpot_p99": 0.0,
                "queue_p50": 0.0,
                "queue_p99": 0.0,
            }

        return ServingReport(
            model_name=self.model.name,
            system_name=self.system.name,
            tensor_parallel=self.tensor_parallel,
            num_requests=engine.submitted,
            completed_requests=len(per_request),
            rejected_requests=len(engine.scheduler.rejected),
            simulated_time=simulated_time,
            busy_time=engine.busy_time,
            prefill_time=engine.prefill_time,
            decode_time=engine.decode_time,
            prefill_steps=engine.prefill_steps,
            decode_steps=engine.decode_steps,
            request_throughput=len(per_request) / simulated_time if simulated_time > 0 else 0.0,
            output_token_throughput=output_tokens / simulated_time if simulated_time > 0 else 0.0,
            goodput=good / simulated_time if simulated_time > 0 else 0.0,
            slo_attainment=good / len(per_request) if per_request else 0.0,
            mean_decode_batch=(
                engine.decode_batch_total / engine.decode_steps if engine.decode_steps else 0.0
            ),
            peak_kv_bytes=engine.scheduler.peak_kv_reserved_bytes,
            per_request=per_request,
            **percentiles,
        )
