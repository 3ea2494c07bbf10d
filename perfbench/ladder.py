"""The per-layer ladder: counting wrappers around each layer's public functions.

The traced run installs these wrappers (by replacing class and module
attributes) before it sets a workload up, and removes them again for the
untraced passes it pairs with, so the program under test is never edited.
Each wrapper counts calls and wall seconds of its layer.  A call made while
the same layer is already active on the thread (a composite router calling
its parts, a method calling itself through a subclass) is passed through
uncounted, so ``*_n`` counts calls *into* the layer.

``covered_s`` is the time spent inside at least one non-envelope layer,
summed over threads (the workloads run one simulation or one request at a
time, so the threads' spans do not overlap).  Envelope layers (the
experiment entry point that wraps a whole run) are counted but excluded, or
coverage would read 100% by construction.

Fleet sites step on fork-started worker processes.  Their wrappers are the
inherited copies, so the worker entry point is wrapped too: each worker
starts from zeroed counters and writes them to ``ladder-<pid>.json`` in the
work directory when it exits; :meth:`Ladder.take` merges those files.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Optional


class Ladder:
    """Counters for every wrapped layer, plus the patch bookkeeping."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = Path(workdir)
        #: layer name -> [calls, seconds]
        self.stats: dict[str, list] = {}
        #: free-form per-layer tallies (bytes written, hits, decisions, ...)
        self.extra: dict[str, float] = {}
        #: distinct substrate worlds built, by their build arguments
        self.worlds: set[str] = set()
        self.covered = [0.0]
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any, Any]] = []

    # ------------------------------------------------------------------
    # Counting
    # ------------------------------------------------------------------
    def reset(self) -> None:
        for stat in self.stats.values():
            stat[0] = 0
            stat[1] = 0.0
        self.extra.clear()
        self.worlds.clear()
        self.covered[0] = 0.0

    def add(self, key: str, amount: float) -> None:
        self.extra[key] = self.extra.get(key, 0.0) + amount

    def take(self) -> dict[str, Any]:
        """This process's counters merged with any finished fleet workers'; resets."""
        merged = {
            "stats": {name: list(stat) for name, stat in self.stats.items()},
            "extra": dict(self.extra),
            "worlds": sorted(self.worlds),
            "covered_s": self.covered[0],
        }
        for path in sorted(self.workdir.glob("ladder-*.json")):
            worker = json.loads(path.read_text())
            path.unlink()
            for name, (n, s) in worker["stats"].items():
                stat = merged["stats"].setdefault(name, [0, 0.0])
                stat[0] += n
                stat[1] += s
            for key, value in worker["extra"].items():
                merged["extra"][key] = merged["extra"].get(key, 0.0) + value
        self.reset()
        return merged

    def _dump_worker(self) -> None:
        path = self.workdir / f"ladder-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"stats": self.stats, "extra": self.extra}))
        os.replace(tmp, path)

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def _counted(
        self,
        fn: Callable,
        name: str,
        envelope: bool,
        on_result: Optional[Callable[[tuple, dict, Any], None]],
    ) -> Callable:
        stat = self.stats.setdefault(name, [0, 0.0])
        local = self._local
        covered = self.covered
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            state = local.__dict__
            if state.get(name):
                return fn(*args, **kwargs)
            state[name] = True
            outermost = not envelope and not state.get("busy")
            if outermost:
                state["busy"] = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                state[name] = False
                if outermost:
                    state["busy"] = False
                    covered[0] += elapsed
                stat[0] += 1
                stat[1] += elapsed
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        envelope: bool = False,
        on_result: Optional[Callable[[tuple, dict, Any], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` (function, method or classmethod) with a counter."""
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(self._counted(raw.__func__, name, envelope, on_result))
        else:
            replacement = self._counted(raw, name, envelope, on_result)
        self._patches.append((owner, attr, raw, replacement))

    def wrap_worker_entry(self, module: Any, attr: str) -> None:
        """Wrap a fork-started worker's entry so its counters come home."""
        original = module.__dict__[attr]
        ladder = self

        @functools.wraps(original)
        def entry(*args: Any, **kwargs: Any) -> Any:
            ladder.reset()
            ladder._local.__dict__.clear()
            try:
                return original(*args, **kwargs)
            finally:
                ladder._dump_worker()

        self._patches.append((module, attr, original, entry))

    def install(self) -> None:
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)


def build_ladder(workdir: Path) -> Ladder:
    """A ladder over every layer the benchmark reports (installed by the caller)."""
    from repro.analysis.figures import SuperCloudScenario
    from repro.artifacts import keys as artifact_keys
    from repro.artifacts.store import ArtifactStore
    from repro.cluster.cooling import CoolingModel
    from repro.cluster.events import EventQueue
    from repro.cluster.resources import Cluster
    from repro.cluster.simulator import ClusterSimulator
    from repro.experiments.session import ExperimentSession
    from repro.fleet import parallel as fleet_parallel
    from repro.fleet import routing
    from repro.scheduler.pipeline import PolicyPipeline
    from repro.serve.checkpoint import CheckpointStore
    from repro.workloads.supercloud import SuperCloudTraceGenerator

    ladder = Ladder(workdir)

    def world_built(args: tuple, kwargs: dict, result: Any) -> None:
        ladder.worlds.add(repr(sorted(kwargs.items())) + repr(args[1:]))

    def bytes_written(key: str) -> Callable[[tuple, dict, Any], None]:
        def hook(args: tuple, kwargs: dict, path: Any) -> None:
            ladder.add(key, os.path.getsize(path))

        return hook

    def store_hit(args: tuple, kwargs: dict, payload: Any) -> None:
        ladder.add("store.hits", 0 if payload is None else 1)

    def decisions(args: tuple, kwargs: dict, result: Any) -> None:
        ladder.add("pipeline.starts", len(result))

    ladder.wrap(SuperCloudScenario, "build", "substrate.build", on_result=world_built)
    ladder.wrap(SuperCloudTraceGenerator, "generate_jobs", "trace.generate")
    ladder.wrap(EventQueue, "push", "events.push")
    ladder.wrap(EventQueue, "pop", "events.pop")
    ladder.wrap(Cluster, "allocate", "cluster.allocate")
    ladder.wrap(Cluster, "release", "cluster.release")
    ladder.wrap(Cluster, "it_power_w", "power.it_power")
    ladder.wrap(PolicyPipeline, "select", "pipeline.select", on_result=decisions)
    ladder.wrap(CoolingModel, "pue_series", "power.pue_series")
    ladder.wrap(ClusterSimulator, "site_power_summary", "power.site_summary")
    ladder.wrap(ClusterSimulator, "advance", "serve.sim_advance")
    ladder.wrap(ClusterSimulator, "snapshot", "serve.snapshot")
    ladder.wrap(CheckpointStore, "save", "serve.checkpoint_write", on_result=bytes_written("serve.checkpoint_bytes"))
    for router_class in [routing.Router, *_subclasses(routing.Router)]:
        if "select" in router_class.__dict__:
            ladder.wrap(router_class, "select", "fleet.route")
    ladder.wrap(fleet_parallel.FleetWorkerPool, "advance", "fleet.advance")
    ladder.wrap(fleet_parallel.FleetWorkerPool, "submit_batch", "fleet.submit_batch")
    ladder.wrap(ArtifactStore, "get", "store.get", on_result=store_hit)
    ladder.wrap(ArtifactStore, "put", "store.put", on_result=bytes_written("store.put_bytes"))
    ladder.wrap(artifact_keys, "run_key", "keys.run_key")
    ladder.wrap(ExperimentSession, "run", "experiment.run", envelope=True)
    ladder.wrap_worker_entry(fleet_parallel, "_fleet_worker_main")
    return ladder


def _subclasses(cls: type) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found
