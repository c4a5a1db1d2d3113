"""Routing policies that assign fleet arrivals to engine replicas.

A router sees every arrival before any replica does and picks its replica.
Policies come in two strengths:

* **Stateless** policies (round-robin, prefix-affinity) depend only on the
  request's position or tenant, never on replica state.  They implement
  :meth:`RouterPolicy.assign_batch`, which maps a whole trace's columns to a
  replica index array in one NumPy pass -- on a static fleet (no faults, no
  autoscaler) the fleet simulator then runs each replica's partition as an
  independent drain: the partitioned fast path.
* **Stateful** policies (least-KV-load, least-queue) inspect live replica
  state, so ``assign_batch`` returns ``None`` and the fleet runs its event
  loop, advancing every replica to each arrival before asking
  :meth:`RouterPolicy.select`.

Every policy implements :meth:`select` (the one-at-a-time form), because
faulty and elastic fleets route every policy through the event loop -- the
equivalence between the two paths for stateless policies is pinned in
``tests/serving/test_fleet.py``.
Ties in the stateful policies break on replica index, keeping the whole
fleet simulation deterministic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Sequence, Type

import numpy as np

from ..errors import ConfigurationError
from .request import Request, TraceColumns

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .simulator import ReplicaEngine


class RouterPolicy:
    """Base class for fleet routing policies."""

    #: Registry key; subclasses must override.
    name = ""

    def reset(self, num_replicas: int) -> None:
        """Forget any routing state before a fresh simulation."""

    def assign_batch(self, columns: TraceColumns, num_replicas: int) -> Optional[np.ndarray]:
        """Vectorized assignment of every request to a replica index, or ``None``.

        Returning an index array (shape ``(len(columns),)``) lets the fleet
        partition the trace up front and drain replicas independently; return
        ``None`` when the policy needs live replica state per arrival.
        """
        return None

    def select(self, request: Request, tenant_id: int, engines: Sequence["ReplicaEngine"]) -> int:
        """Pick the replica index for one arrival (replicas advanced to it)."""
        raise NotImplementedError


class RoundRobinRouter(RouterPolicy):
    """Cycle through replicas in request order, ignoring load entirely."""

    name = "round_robin"

    def __init__(self) -> None:
        self._next = 0

    def reset(self, num_replicas: int) -> None:
        self._next = 0

    def assign_batch(self, columns: TraceColumns, num_replicas: int) -> np.ndarray:
        return np.arange(len(columns), dtype=np.int64) % num_replicas

    def select(self, request: Request, tenant_id: int, engines: Sequence["ReplicaEngine"]) -> int:
        # Modding the cursor on read (not just on advance) keeps the pick in
        # range when the candidate list shrinks between calls -- the elastic
        # fleet routes over live membership, so ``len(engines)`` can drop.
        index = self._next % len(engines)
        self._next = (index + 1) % len(engines)
        return index


class PrefixAffinityRouter(RouterPolicy):
    """Pin each tenant to one replica so shared-prefix KV reuse stays local.

    This is a *stub* of real prefix-cache-aware routing: the simulator does
    not yet model prefix-cache hits, so the policy only captures the routing
    side (tenant ``t`` always lands on replica ``t % N``) -- the placement a
    prefix cache would want, and a useful worst case for load imbalance.
    """

    name = "prefix_affinity"

    def assign_batch(self, columns: TraceColumns, num_replicas: int) -> np.ndarray:
        return columns.tenant_ids % num_replicas

    def select(self, request: Request, tenant_id: int, engines: Sequence["ReplicaEngine"]) -> int:
        return tenant_id % len(engines)


class LeastKVLoadRouter(RouterPolicy):
    """Send each arrival to the replica holding the fewest reserved KV bytes.

    KV reservations proxy for memory pressure *and* decode batch width, so
    this balances the quantity that actually throttles admission.  Ties break
    on queued requests, then replica index.
    """

    name = "least_kv_load"

    def select(self, request: Request, tenant_id: int, engines: Sequence["ReplicaEngine"]) -> int:
        return min(
            range(len(engines)),
            key=lambda index: (
                engines[index].scheduler.kv_reserved_bytes,
                engines[index].queued_requests,
                index,
            ),
        )


class LeastQueueRouter(RouterPolicy):
    """Send each arrival to the replica with the shortest admission queue.

    Queue depth is what a real gateway can observe cheaply; ties break on
    active batch size, then replica index.
    """

    name = "least_queue"

    def select(self, request: Request, tenant_id: int, engines: Sequence["ReplicaEngine"]) -> int:
        return min(
            range(len(engines)),
            key=lambda index: (
                engines[index].queued_requests,
                len(engines[index].scheduler.active),
                index,
            ),
        )


#: Registered policies by name (the ``FleetConfig.router`` vocabulary).
ROUTER_POLICIES: Dict[str, Type[RouterPolicy]] = {
    policy.name: policy
    for policy in (RoundRobinRouter, PrefixAffinityRouter, LeastKVLoadRouter, LeastQueueRouter)
}


def get_router(name: str) -> RouterPolicy:
    """Instantiate a registered routing policy by name."""
    try:
        policy = ROUTER_POLICIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown router policy {name!r}; choose from {sorted(ROUTER_POLICIES)}"
        ) from None
    return policy()
