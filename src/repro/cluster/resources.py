"""Cluster resource model: GPUs, nodes, and the allocation pool.

The resource model is deliberately coarse — the scheduling questions the
paper raises (how many GPUs to supply, which jobs to start when, what power
caps to enforce) only need GPU-count granularity with node boundaries, not a
full topology.  Nodes matter because an occupied node burns non-GPU overhead
power, so packing jobs onto fewer nodes is itself an energy lever.

Incremental state model
-----------------------
Every experiment bottoms out in :class:`~repro.cluster.simulator.
ClusterSimulator`, which queries and mutates this pool millions of times per
run, so the pool is built for hot-path work proportional to the GPUs a call
touches, never to the size of the cluster:

* **Arrays are the source of truth for per-GPU state.**  Per-GPU state lives
  in NumPy arrays indexed ``[node, gpu]``: an allocated mask, the utilization
  driven by the running job, and the enforced power cap (NaN = uncapped).
  Job ids are kept in a parallel list-of-lists (strings don't belong in float
  arrays); a slot holds ``None`` exactly when its GPU is free.
* **Counters are maintained, not recomputed.**  Per-node free-GPU counts and
  drain flags (plain lists, read one node at a time), the cluster-wide
  free/busy totals, and the occupied/drained node counts are updated by the
  few GPUs each ``allocate``/``release`` touches, so ``n_free_gpus`` /
  ``can_fit`` are O(1).
* **Placement reads occupancy buckets.**  For every free-GPU count
  ``f = 1..G`` (``G`` GPUs per node) the pool keeps a min-heap of the ids of
  the in-service nodes with exactly ``f`` free GPUs.  Packing walks the
  buckets from ``f = 1`` up, spreading from ``f = G`` down, each in node-id
  order — the ``(free, node_id)`` order a stable sort of the whole cluster
  would give — so ``allocate`` costs O(nodes touched x log nodes).  Entries
  are invalidated lazily: a node whose count changed (or that was drained)
  is re-pushed into its new bucket, and its old entry is dropped when it
  surfaces at the top of a heap.  A per-bucket flag keeps at most one entry
  per node and bucket, so the heaps never outgrow the node count.
* **IT power is delta-maintained.**  Each allocation contributes
  ``n_gpus x power_w(utilization, cap)`` (uniform across a job's GPUs by
  construction); ``allocate``/``release``/``set_power_limit``/``drain_nodes``
  adjust a running total so :meth:`Cluster.it_power_w` is an O(1) read.
  :meth:`Cluster.recompute_it_power_w` is the vectorized full recompute kept
  as a debug/parity checkpoint.
* **``Node`` and ``GpuResource`` are read-only views.**  The historical
  object API (``cluster.nodes``, ``node.free_gpus``, ``gpu.is_free``, …) is
  preserved as lightweight views over the arrays, so schedulers, tests and
  user code read the same state without the pool paying to keep thousands
  of Python objects coherent.  Every state change goes through the
  ``Cluster`` methods above.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Iterable, Iterator, Optional

import numpy as np

from ..config import FacilityConfig
from ..errors import CheckpointError, ResourceError
from ..telemetry.gpu_power import GpuPowerModel, GpuSpec, get_gpu_spec

__all__ = ["GpuResource", "NodeState", "Node", "Allocation", "Cluster"]


class GpuResource:
    """One physical GPU in the cluster — a view over the cluster's state arrays.

    Attributes
    ----------
    node_id / index:
        Location of the device.
    allocated_job_id:
        Id of the job currently using the device, or ``None`` when free.
    power_limit_w:
        Power cap enforced on the device (``None`` means TDP).
    utilization:
        Current compute utilization driven by the running job.

    Read-only: every attribute reads straight from the backing arrays, and
    state changes go through :class:`Cluster` methods.
    """

    __slots__ = ("_cluster", "node_id", "index")

    def __init__(self, cluster: "Cluster", node_id: int, index: int) -> None:
        self._cluster = cluster
        self.node_id = node_id
        self.index = index

    @property
    def allocated_job_id(self) -> Optional[str]:
        """Id of the job using the device (``None`` when free)."""
        return self._cluster._job_ids[self.node_id][self.index]

    @property
    def utilization(self) -> float:
        """Current compute utilization in [0, 1]."""
        return float(self._cluster._utilization[self.node_id, self.index])

    @property
    def power_limit_w(self) -> Optional[float]:
        """Enforced power cap in watts (``None`` means TDP)."""
        cap = self._cluster._power_cap_w[self.node_id, self.index]
        return None if np.isnan(cap) else float(cap)

    @property
    def is_free(self) -> bool:
        """Whether the GPU is currently unallocated."""
        return not self._cluster._allocated[self.node_id, self.index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GpuResource(node_id={self.node_id}, index={self.index}, "
            f"allocated_job_id={self.allocated_job_id!r})"
        )


class NodeState(enum.Enum):
    """Operational state of a node."""

    IDLE = "idle"
    ACTIVE = "active"
    DRAINED = "drained"


class Node:
    """A GPU compute node — a view over the cluster's state arrays.

    ``state`` is derived (drained flag, else occupied → ACTIVE, else IDLE)
    instead of being refreshed by whole-cluster sweeps after every
    allocation change.
    """

    __slots__ = ("_cluster", "node_id", "gpus")

    def __init__(self, cluster: "Cluster", node_id: int) -> None:
        self._cluster = cluster
        self.node_id = node_id
        self.gpus: list[GpuResource] = [
            GpuResource(cluster, node_id, i) for i in range(cluster._gpus_per_node)
        ]

    @property
    def n_gpus(self) -> int:
        """Total GPUs on the node."""
        return self._cluster._gpus_per_node

    @property
    def free_gpus(self) -> list[GpuResource]:
        """GPUs currently unallocated (empty when the node is drained)."""
        cluster = self._cluster
        if cluster._drained[self.node_id]:
            return []
        allocated_row = cluster._allocated[self.node_id]
        return [gpu for gpu, taken in zip(self.gpus, allocated_row) if not taken]

    @property
    def n_free_gpus(self) -> int:
        """Number of free GPUs on the node (0 when drained)."""
        cluster = self._cluster
        if cluster._drained[self.node_id]:
            return 0
        return int(cluster._node_free[self.node_id])

    @property
    def n_busy_gpus(self) -> int:
        """Number of allocated GPUs on the node."""
        cluster = self._cluster
        return cluster._gpus_per_node - int(cluster._node_free[self.node_id])

    @property
    def is_occupied(self) -> bool:
        """Whether any GPU on the node is allocated."""
        cluster = self._cluster
        return int(cluster._node_free[self.node_id]) < cluster._gpus_per_node

    @property
    def state(self) -> NodeState:
        """Operational state, derived from the drain flag and occupancy."""
        cluster = self._cluster
        if cluster._drained[self.node_id]:
            return NodeState.DRAINED
        return NodeState.ACTIVE if self.is_occupied else NodeState.IDLE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Node(node_id={self.node_id}, state={self.state.value!r}, "
            f"free={self.n_free_gpus}/{self.n_gpus})"
        )


@dataclass(frozen=True)
class Allocation:
    """A successful placement of a job onto specific GPUs."""

    job_id: str
    gpu_locations: tuple[tuple[int, int], ...]  # (node_id, gpu_index) pairs

    @property
    def n_gpus(self) -> int:
        """Number of GPUs in the allocation."""
        return len(self.gpu_locations)

    @property
    def node_ids(self) -> tuple[int, ...]:
        """Distinct node ids touched by the allocation (sorted)."""
        return tuple(sorted({node_id for node_id, _ in self.gpu_locations}))

    def resolve(self, cluster: "Cluster") -> list[GpuResource]:
        """The allocation's GPU views on ``cluster``, resolved directly by location."""
        return [cluster.nodes[node_id].gpus[index] for node_id, index in self.gpu_locations]


class Cluster:
    """The cluster's GPU pool with allocation and release book-keeping.

    Parameters
    ----------
    facility:
        Facility description (node count, GPUs per node, overhead powers).
    gpu_model:
        Name of the GPU model installed in every node.
    """

    def __init__(self, facility: FacilityConfig | None = None, gpu_model: str = "V100") -> None:
        self.facility = facility or FacilityConfig()
        self.gpu_spec: GpuSpec = get_gpu_spec(gpu_model)
        self.gpu_power_model = GpuPowerModel(self.gpu_spec)
        n_nodes = self.facility.n_nodes
        gpus_per_node = self.facility.gpus_per_node
        self._n_nodes = n_nodes
        self._gpus_per_node = gpus_per_node
        # Per-GPU state arrays [node, gpu] — the source of truth.
        self._allocated = np.zeros((n_nodes, gpus_per_node), dtype=bool)
        self._utilization = np.zeros((n_nodes, gpus_per_node), dtype=float)
        self._power_cap_w = np.full((n_nodes, gpus_per_node), np.nan)
        self._job_ids: list[list[Optional[str]]] = [
            [None] * gpus_per_node for _ in range(n_nodes)
        ]
        # Incrementally maintained counters (per-node ones as plain lists:
        # the hot paths read them one node at a time).
        self._node_free: list[int] = [gpus_per_node] * n_nodes
        self._drained: list[bool] = [False] * n_nodes
        self._rebuild_buckets()
        self._free_gpus_nondrained = n_nodes * gpus_per_node
        self._busy_gpus = 0
        self._n_occupied = 0
        self._n_drained = 0
        # Delta-maintained IT power: per-job per-GPU power and the busy total.
        self._busy_power_w = 0.0
        self._job_power_w: dict[str, float] = {}
        self._allocations: dict[str, Allocation] = {}
        self.nodes: list[Node] = [Node(self, node_id) for node_id in range(n_nodes)]

    # ------------------------------------------------------------------
    # Capacity queries (all O(1) reads of maintained counters)
    # ------------------------------------------------------------------
    @property
    def total_gpus(self) -> int:
        """Total GPUs in the cluster."""
        return self._n_nodes * self._gpus_per_node

    @property
    def n_free_gpus(self) -> int:
        """Currently free GPUs (on non-drained nodes)."""
        return self._free_gpus_nondrained

    @property
    def n_busy_gpus(self) -> int:
        """Currently allocated GPUs."""
        return self._busy_gpus

    @property
    def n_occupied_nodes(self) -> int:
        """Nodes with at least one allocated GPU."""
        return self._n_occupied

    @property
    def n_drained_nodes(self) -> int:
        """Nodes administratively removed from service."""
        return self._n_drained

    @property
    def allocations(self) -> dict[str, Allocation]:
        """Live allocations keyed by job id (copy)."""
        return dict(self._allocations)

    def gpu_utilization_fraction(self) -> float:
        """Fraction of (non-drained) GPUs currently allocated."""
        available = (self._n_nodes - self._n_drained) * self._gpus_per_node
        if available == 0:
            return 0.0
        return self._busy_gpus / available

    def can_fit(self, n_gpus: int) -> bool:
        """Whether ``n_gpus`` GPUs are currently free (across any nodes)."""
        if n_gpus <= 0:
            raise ResourceError(f"n_gpus must be positive, got {n_gpus!r}")
        return self._free_gpus_nondrained >= n_gpus

    def busy_utilizations(self) -> np.ndarray:
        """Utilizations of the currently-busy GPUs (node-major order)."""
        return self._utilization[self._allocated]

    # ------------------------------------------------------------------
    # Occupancy buckets (see the module docstring)
    # ------------------------------------------------------------------
    def _rebuild_buckets(self) -> None:
        """Rebuild every bucket from the per-node counters.

        Node ids are appended in ascending order, so each list already is a
        valid min-heap.  Bucket 0 stays empty: a full node is never a
        placement candidate.
        """
        n_nodes, gpus_per_node = self._n_nodes, self._gpus_per_node
        self._buckets: list[list[int]] = [[] for _ in range(gpus_per_node + 1)]
        self._queued: list[bytearray] = [bytearray(n_nodes) for _ in range(gpus_per_node + 1)]
        for node_id in range(n_nodes):
            free = self._node_free[node_id]
            if free and not self._drained[node_id]:
                self._buckets[free].append(node_id)
                self._queued[free][node_id] = 1

    def _enqueue(self, node_id: int) -> None:
        """Put ``node_id`` into the bucket of its current free count.

        Called after every change to a node's free count or drain flag.  An
        entry already queued there (left behind by an earlier visit) becomes
        valid again instead of being duplicated.
        """
        free = self._node_free[node_id]
        if free and not self._drained[node_id]:
            queued = self._queued[free]
            if not queued[node_id]:
                queued[node_id] = 1
                heappush(self._buckets[free], node_id)

    def _free_indices(self, node_id: int, free: int) -> range | list[int]:
        """The free GPU indices of ``node_id`` (``free`` of them), ascending."""
        if free == self._gpus_per_node:
            return range(free)
        return [index for index, job in enumerate(self._job_ids[node_id]) if job is None]

    # ------------------------------------------------------------------
    # Allocation / release
    # ------------------------------------------------------------------
    def allocate(
        self,
        job_id: str,
        n_gpus: int,
        *,
        utilization: float = 1.0,
        power_limit_w: Optional[float] = None,
        pack: bool = True,
    ) -> Allocation:
        """Allocate ``n_gpus`` GPUs to ``job_id``.

        With ``pack=True`` (the default, and what energy-aware policies want)
        GPUs are taken from the most-occupied nodes first so fewer nodes are
        woken up: nodes are filled in ascending ``(free, node_id)`` order, the
        last one possibly in part.  With ``pack=False`` GPUs are taken one at
        a time from the node with the most free GPUs remaining, lowest id
        first (spreading, which can help thermals but costs idle overhead).
        Within a node the lowest free GPU indices go first.

        Both modes read the occupancy buckets instead of scanning the
        cluster, so the cost is O(nodes touched x log nodes), and only the
        touched nodes' counters are updated.
        """
        if job_id in self._allocations:
            raise ResourceError(f"job {job_id!r} already holds an allocation")
        if n_gpus <= 0:
            raise ResourceError(f"n_gpus must be positive, got {n_gpus!r}")
        if not self.can_fit(n_gpus):
            raise ResourceError(
                f"cannot allocate {n_gpus} GPUs: only {self.n_free_gpus} free"
            )
        gpus_per_node = self._gpus_per_node
        node_free = self._node_free
        drained = self._drained
        buckets = self._buckets
        queued = self._queued
        locations: list[tuple[int, int]] = []
        newly_occupied = 0
        if pack:
            # can_fit guarantees the walk ends before the top bucket runs dry.
            remaining = n_gpus
            free = 0
            while remaining:
                free += 1
                heap = buckets[free]
                flags = queued[free]
                while heap and remaining:
                    node_id = heappop(heap)
                    flags[node_id] = 0
                    if node_free[node_id] != free or drained[node_id]:
                        continue  # stale entry: the node moved on
                    take = free if free <= remaining else remaining
                    if free == gpus_per_node:
                        newly_occupied += 1
                    indices = self._free_indices(node_id, free)
                    locations.extend([(node_id, index) for index in indices[:take]])
                    node_free[node_id] = free - take
                    remaining -= take
            # Only the last node can have been taken in part.
            self._enqueue(node_id)
        else:
            top = gpus_per_node
            cursors: dict[int, Iterator[int]] = {}
            for _ in range(n_gpus):
                while True:
                    heap = buckets[top]
                    if not heap:
                        top -= 1
                        continue
                    node_id = heappop(heap)
                    queued[top][node_id] = 0
                    if node_free[node_id] == top and not drained[node_id]:
                        break
                cursor = cursors.get(node_id)
                if cursor is None:
                    if top == gpus_per_node:
                        newly_occupied += 1
                    cursor = cursors[node_id] = iter(self._free_indices(node_id, top))
                locations.append((node_id, next(cursor)))
                node_free[node_id] = top - 1
                self._enqueue(node_id)
        # Commit: per-GPU arrays (the node counters moved during the walk).
        utilization = float(utilization)
        cap = None if power_limit_w is None else float(power_limit_w)
        cap_value = np.nan if cap is None else cap
        for node_id, index in locations:
            self._allocated[node_id, index] = True
            self._utilization[node_id, index] = utilization
            self._power_cap_w[node_id, index] = cap_value
            self._job_ids[node_id][index] = job_id
        self._free_gpus_nondrained -= n_gpus
        self._busy_gpus += n_gpus
        self._n_occupied += newly_occupied
        per_gpu_power = self.gpu_power_model.power_w_scalar(utilization, cap)
        self._job_power_w[job_id] = per_gpu_power
        self._busy_power_w += n_gpus * per_gpu_power
        allocation = Allocation(job_id=job_id, gpu_locations=tuple(locations))
        self._allocations[job_id] = allocation
        return allocation

    def release(self, job_id: str) -> Allocation:
        """Release a job's allocation, returning it.

        The allocation's own ``gpu_locations`` index the state arrays
        directly — no cluster-wide GPU index is rebuilt.
        """
        allocation = self._allocations.pop(job_id, None)
        if allocation is None:
            raise ResourceError(f"job {job_id!r} holds no allocation")
        gpus_per_node = self._gpus_per_node
        node_free = self._node_free
        newly_idle = 0
        for node_id, index in allocation.gpu_locations:
            self._allocated[node_id, index] = False
            self._utilization[node_id, index] = 0.0
            self._power_cap_w[node_id, index] = np.nan
            self._job_ids[node_id][index] = None
            node_free[node_id] += 1
            if node_free[node_id] == gpus_per_node:
                newly_idle += 1
        for node_id in {node_id for node_id, _ in allocation.gpu_locations}:
            self._enqueue(node_id)
        n_gpus = allocation.n_gpus
        self._free_gpus_nondrained += n_gpus
        self._busy_gpus -= n_gpus
        self._n_occupied -= newly_idle
        per_gpu_power = self._job_power_w.pop(job_id, 0.0)
        self._busy_power_w -= n_gpus * per_gpu_power
        if self._busy_gpus == 0:
            # Exact resynchronization point: an empty cluster has zero busy
            # power by definition, which also clears any float drift.
            self._busy_power_w = 0.0
        return allocation

    def set_power_limit(self, job_id: str, power_limit_w: Optional[float]) -> None:
        """Change the power cap on every GPU held by ``job_id``."""
        allocation = self._allocations.get(job_id)
        if allocation is None:
            raise ResourceError(f"job {job_id!r} holds no allocation")
        cap = None if power_limit_w is None else float(power_limit_w)
        cap_value = np.nan if cap is None else cap
        for node_id, index in allocation.gpu_locations:
            self._power_cap_w[node_id, index] = cap_value
        # A job's GPUs share one utilization by construction, so its power
        # contribution is a single scalar delta.
        first_node, first_index = allocation.gpu_locations[0]
        utilization = float(self._utilization[first_node, first_index])
        new_power = self.gpu_power_model.power_w_scalar(utilization, cap)
        old_power = self._job_power_w.get(job_id, 0.0)
        self._job_power_w[job_id] = new_power
        self._busy_power_w += allocation.n_gpus * (new_power - old_power)

    def drain_nodes(self, n_nodes: int) -> int:
        """Administratively drain up to ``n_nodes`` currently idle nodes.

        Draining reduces the supplied resource quantity ``q_s`` in Eq. 1;
        only idle nodes can be drained, and the number actually drained is
        returned.
        """
        if n_nodes < 0:
            raise ResourceError(f"n_nodes must be non-negative, got {n_nodes!r}")
        # The in-service idle nodes are the live entries of the top bucket,
        # which pops them lowest id first.
        drained = 0
        gpus_per_node = self._gpus_per_node
        heap = self._buckets[gpus_per_node]
        queued = self._queued[gpus_per_node]
        while drained < n_nodes and heap:
            node_id = heappop(heap)
            queued[node_id] = 0
            if self._drained[node_id] or self._node_free[node_id] != gpus_per_node:
                continue
            self._drained[node_id] = True
            self._n_drained += 1
            self._free_gpus_nondrained -= gpus_per_node
            drained += 1
        return drained

    def undrain_all(self) -> None:
        """Return every drained node to service."""
        if not self._n_drained:
            return
        for node_id, is_drained in enumerate(self._drained):
            if is_drained:
                self._drained[node_id] = False
                self._free_gpus_nondrained += self._node_free[node_id]
                self._enqueue(node_id)
        self._n_drained = 0

    # ------------------------------------------------------------------
    # Power
    # ------------------------------------------------------------------
    def it_power_w(self) -> float:
        """Instantaneous IT power of the cluster in its current allocation state.

        Sums GPU power (via the analytic power model, honouring per-GPU caps
        and utilizations), per-node idle power for non-drained nodes, and the
        active-node overhead for occupied nodes.  O(1): the busy-GPU term is
        delta-maintained by ``allocate``/``release``/``set_power_limit``.
        """
        facility = self.facility
        return (
            facility.node_idle_power_w * (self._n_nodes - self._n_drained)
            + facility.node_active_overhead_w * self._n_occupied
            + self.gpu_spec.idle_power_w * self._free_gpus_nondrained
            + self._busy_power_w
        )

    def recompute_it_power_w(self) -> float:
        """Vectorized full recompute of IT power from the state arrays.

        The debug/parity checkpoint for the delta-maintained value returned
        by :meth:`it_power_w`: one pass over the arrays, independent of the
        incremental counters.
        """
        facility = self.facility
        live = ~np.array(self._drained, dtype=bool)
        allocated = self._allocated[live]
        n_busy = int(np.count_nonzero(allocated))
        power = (
            facility.node_idle_power_w * int(np.count_nonzero(live))
            + facility.node_active_overhead_w * int(np.count_nonzero(allocated.any(axis=1)))
            + self.gpu_spec.idle_power_w * (allocated.size - n_busy)
        )
        if n_busy:
            utils = self._utilization[live][allocated]
            caps = self._power_cap_w[live][allocated]
            caps = np.where(np.isnan(caps), self.gpu_spec.tdp_w, caps)
            power += float(np.sum(self.gpu_power_model.power_w(utils, caps)))
        return float(power)

    def iter_gpus(self) -> Iterable[GpuResource]:
        """Iterate over every GPU in the cluster."""
        return itertools.chain.from_iterable(node.gpus for node in self.nodes)

    # ------------------------------------------------------------------
    # Snapshot / restore (checkpointing support)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """A JSON-able dict of the pool's dynamic state.

        Captures the live allocations (locations, utilization, cap and the
        delta-maintained per-GPU power), the drained-node set, and the
        accumulated ``busy_power_w`` total.  The accumulated float is stored
        verbatim — recomputing it as a fresh sum on restore could differ in
        the last ulp from the incrementally-maintained original, breaking
        bit-identical continuation.
        """
        allocations = []
        for job_id, allocation in self._allocations.items():
            first_node, first_index = allocation.gpu_locations[0]
            cap = self._power_cap_w[first_node, first_index]
            allocations.append(
                {
                    "job_id": job_id,
                    "locations": [list(loc) for loc in allocation.gpu_locations],
                    "utilization": float(self._utilization[first_node, first_index]),
                    "power_limit_w": None if np.isnan(cap) else float(cap),
                    "per_gpu_power_w": self._job_power_w[job_id],
                }
            )
        return {
            "n_nodes": self._n_nodes,
            "gpus_per_node": self._gpus_per_node,
            "gpu_model": self.gpu_spec.name,
            "drained": [int(node_id) for node_id in np.flatnonzero(self._drained)],
            "allocations": allocations,
            "busy_power_w": self._busy_power_w,
        }

    def restore_state(self, state: dict) -> None:
        """Reset the pool to the state captured by :meth:`snapshot_state`.

        The cluster must have been constructed with the same facility shape
        and GPU model; all current allocations are discarded.
        """
        if (
            int(state["n_nodes"]) != self._n_nodes
            or int(state["gpus_per_node"]) != self._gpus_per_node
        ):
            raise CheckpointError(
                f"cluster shape mismatch: snapshot is {state['n_nodes']}x"
                f"{state['gpus_per_node']}, cluster is {self._n_nodes}x{self._gpus_per_node}"
            )
        if state["gpu_model"] != self.gpu_spec.name:
            raise CheckpointError(
                f"GPU model mismatch: snapshot has {state['gpu_model']!r}, "
                f"cluster has {self.gpu_spec.name!r}"
            )
        n_nodes, gpus_per_node = self._n_nodes, self._gpus_per_node
        self._allocated[:] = False
        self._utilization[:] = 0.0
        self._power_cap_w[:] = np.nan
        self._job_ids = [[None] * gpus_per_node for _ in range(n_nodes)]
        self._node_free = [gpus_per_node] * n_nodes
        self._drained = [False] * n_nodes
        for node_id in state["drained"]:
            self._drained[int(node_id)] = True
        self._allocations = {}
        self._job_power_w = {}
        for entry in state["allocations"]:
            job_id = entry["job_id"]
            locations = tuple((int(n), int(i)) for n, i in entry["locations"])
            cap = entry["power_limit_w"]
            cap_value = np.nan if cap is None else float(cap)
            utilization = float(entry["utilization"])
            for node_id, index in locations:
                self._allocated[node_id, index] = True
                self._utilization[node_id, index] = utilization
                self._power_cap_w[node_id, index] = cap_value
                self._job_ids[node_id][index] = job_id
                self._node_free[node_id] -= 1
            self._allocations[job_id] = Allocation(job_id=job_id, gpu_locations=locations)
            self._job_power_w[job_id] = float(entry["per_gpu_power_w"])
        # Derived counters and buckets, then the accumulated power total
        # verbatim.
        self._busy_gpus = int(np.count_nonzero(self._allocated))
        self._n_occupied = sum(free < gpus_per_node for free in self._node_free)
        self._n_drained = sum(self._drained)
        self._free_gpus_nondrained = sum(
            free for free, is_drained in zip(self._node_free, self._drained) if not is_drained
        )
        self._rebuild_buckets()
        self._busy_power_w = float(state["busy_power_w"])
        # The Node views read through the cluster; nothing to rebuild.

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cluster(nodes={len(self.nodes)}, gpus={self.total_gpus}, "
            f"busy={self.n_busy_gpus}, drained_nodes={self.n_drained_nodes})"
        )
