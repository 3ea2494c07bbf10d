"""One benchmark process: set a workload up, then measure it (untraced or traced).

Started by ``run.py`` as a fresh interpreter so that ``setup_s`` covers
interpreter start and ``import repro``::

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS SPAWNED_AT WORKDIR

``MODE`` is ``measure`` (set up, then run untraced passes for SECONDS) or
``trace`` (alternate untraced and traced passes for SECONDS, reporting the
per-layer ladder).  ``SPAWNED_AT`` is the parent's ``time.monotonic()`` just
before the spawn.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from clock import ReferenceClock  # noqa: E402
from workloads import CLIENT_CALLS, PassResult, workload  # noqa: E402

#: Counts that must repeat exactly between two traced passes of one seed.
REPEATING = (
    "substrate.worlds",
    "substrate.builds_per_world",
    "fleet.windows",
    "serve.telemetry_rows",
    "store.put_bytes",
    "serve.checkpoint_bytes",
)


#: Layers reported with both a call count and seconds.
COUNTED_LAYERS = (
    "substrate.build",
    "trace.generate",
    "events.push",
    "events.pop",
    "cluster.allocate",
    "cluster.release",
    "pipeline.select",
    "power.it_power",
    "power.site_summary",
    "fleet.route",
    "store.get",
    "store.put",
    "keys.run_key",
    "experiment.run",
)

def main(argv: list[str]) -> int:
    mode, name, seed, seconds, spawned_at, workdir = argv
    seed, seconds, spawned_at = int(seed), float(seconds), float(spawned_at)
    workdir = Path(workdir)
    if mode == "trace":
        start = time.perf_counter()
        import repro  # noqa: F401  (the import is part of set-up)

        report = trace(name, seed, seconds, workdir, time.perf_counter() - start)
    else:
        report = measure(name, seed, seconds, workdir, spawned_at)
    print(json.dumps(report))
    return 0


def measure(name: str, seed: int, seconds: float, workdir: Path, spawned_at: float) -> dict:
    """Set up, then run untraced passes for ``seconds``; report each pass.

    Set-up after interpreter start-up, and every pass, are timed on a
    :class:`ReferenceClock`, so they are in reference-speed seconds.
    ``run.py`` pools the passes of all its interpreters into the metrics.
    """
    # Interpreter start-up in wall seconds (tens of milliseconds); the rest
    # of set-up, from ``import repro`` on, on the clock.
    startup_s = time.monotonic() - spawned_at
    clock = ReferenceClock()
    clock.start()
    wl = workload(name, seed, workdir)
    if wl.one_cpu:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        import repro  # noqa: F401  (the import is part of set-up)

        wl.setup()
        setup_s = startup_s + clock()
        wl.clock = clock
        passes: list[PassResult] = []
        raw_walls: list[float] = []
        began = time.perf_counter()
        while not passes or time.perf_counter() - began < seconds:
            start = time.perf_counter()
            passes.append(wl.run_pass(len(passes)))
            raw_walls.append(time.perf_counter() - start)
        latencies = wl.take_latencies()
    finally:
        clock.stop()
        wl.close()

    return {
        "setup_s": setup_s,
        "peak_rss_mb": wl.peak_rss_mb(),
        "probe": clock.summary(),
        "latencies": latencies,
        "passes": [
            {
                "wall_s": p.wall_s,
                "raw_wall_s": raw_wall,
                "ops": p.ops,
                "failed": p.failed,
                "sim_jobs": p.sim_jobs,
                "digest": p.digest,
                "problems": p.problems,
                "extra": p.extra,
            }
            for p, raw_wall in zip(passes, raw_walls)
        ],
    }


def trace(name: str, seed: int, seconds: float, workdir: Path, import_s: float) -> dict:
    """Alternate untraced and traced passes; report the per-layer ladder.

    Besides each pass's own output checks, every traced pass must produce the
    untraced passes' outputs and the same counts as the other traced passes,
    and ``Cluster.allocate``/``release`` must run once per started job.
    """
    from ladder import build_ladder

    ladder = build_ladder(workdir)
    wl = workload(name, seed, workdir, in_process=True)
    if wl.one_cpu:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    untraced: list[PassResult] = []
    traced: list[tuple[PassResult, dict, dict]] = []
    ladder.install()
    try:
        wl.setup()
        setup_counters = ladder.take()
        ladder.uninstall()
        began = time.perf_counter()
        while len(traced) < 2 or time.perf_counter() - began < seconds:
            untraced.append(wl.run_pass(len(untraced) + len(traced)))
            wl.take_latencies()
            ladder.install()
            try:
                result = wl.run_pass(len(untraced) + len(traced))
            finally:
                ladder.uninstall()
            traced.append((result, ladder.take(), wl.take_latencies()))
    finally:
        ladder.uninstall()
        wl.close()

    problems = [problem for p in untraced for problem in p.problems]
    problems += [problem for p, _, _ in traced for problem in p.problems]
    failed = sum(p.failed for p in untraced) + sum(p.failed for p, _, _ in traced)
    per_pass = [
        layer_metrics(setup_counters, counters, result, latencies, import_s)
        for result, counters, latencies in traced
    ]
    repeating = [m for m in per_pass[0] if m.endswith("_n") or m in REPEATING]
    checks = []
    if len({p.digest for p in untraced} | {p.digest for p, _, _ in traced}) > 1:
        checks.append("traced and untraced passes produced different outputs")
    for metric in repeating:
        values = {m[metric] for m in per_pass}
        if len(values) > 1:
            checks.append(f"{metric} differs between traced passes: {sorted(values)}")
    for result, counters, _ in traced:
        started = result.extra.get("jobs_started")
        for layer in ("cluster.allocate", "cluster.release"):
            calls = counters["stats"][layer][0]
            if started is not None and calls != started:
                checks.append(f"{layer} ran {calls} times for {started} started jobs")
    if checks:
        problems += checks
        failed += sum(p.ops for p, _, _ in traced)
    metrics = {metric: _median(m[metric] for m in per_pass) for metric in per_pass[0]}
    metrics.update((metric, per_pass[0][metric]) for metric in repeating)
    metrics["trace.overhead"] = _median(
        t.wall_s / u.wall_s for u, (t, _, _) in zip(untraced, traced)
    )
    attempted = sum(p.ops for p in untraced) + sum(p.ops for p, _, _ in traced)
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:10],
        "metrics": metrics,
        "detail": {"traced_passes": len(traced), "untraced_passes": len(untraced)},
    }


def layer_metrics(
    setup: dict, counters: dict, result: PassResult, latencies: dict, import_s: float
) -> dict[str, float]:
    """The per-layer metrics of one traced pass, set-up work included."""

    def stat(layer: str) -> tuple[int, float]:
        n1, s1 = setup["stats"].get(layer, (0, 0.0))
        n2, s2 = counters["stats"].get(layer, (0, 0.0))
        return n1 + n2, s1 + s2

    def extra(key: str) -> float:
        return setup["extra"].get(key, 0.0) + counters["extra"].get(key, 0.0)

    m: dict[str, float] = {"setup.import_s": import_s}
    for layer in COUNTED_LAYERS:
        m[layer + "_n"], m[layer + "_s"] = stat(layer)
    worlds = len(set(setup["worlds"]) | set(counters["worlds"]))
    m["substrate.worlds"] = worlds
    m["substrate.builds_per_world"] = m["substrate.build_n"] / worlds if worlds else 0.0
    selects = m["pipeline.select_n"]
    m["pipeline.starts_per_select"] = extra("pipeline.starts") / selects if selects else 0.0
    m["power.pue_series_s"] = stat("power.pue_series")[1]
    m["fleet.windows"] = result.extra.get("fleet.windows", 0)
    m["fleet.advance_s"] = stat("fleet.advance")[1]
    m["fleet.submit_batch_s"] = stat("fleet.submit_batch")[1]
    m["fleet.max_site_advance_s"] = result.extra.get("fleet.max_site_advance_s", 0.0)
    m["fleet.ipc_wait_s"] = (
        result.extra.get("fleet.step_advance_s", 0.0) - m["fleet.max_site_advance_s"]
    )
    m["store.put_bytes"] = extra("store.put_bytes")
    gets = m["store.get_n"]
    m["store.hit_ratio"] = extra("store.hits") / gets if gets else 0.0
    for call in CLIENT_CALLS:
        samples = latencies.get(call)
        m[f"serve.{call}_ms"] = 1e3 * statistics.median(samples) if samples else 0.0
    m["serve.telemetry_rows"] = result.extra.get("serve.telemetry_rows", 0)
    m["serve.sim_advance_s"] = stat("serve.sim_advance")[1]
    m["serve.snapshot_s"] = stat("serve.snapshot")[1]
    m["serve.checkpoint_write_s"] = stat("serve.checkpoint_write")[1]
    m["serve.checkpoint_bytes"] = extra("serve.checkpoint_bytes")
    m["trace.coverage"] = counters["covered_s"] / result.wall_s
    return m


def _median(values) -> float:
    return statistics.median(list(values))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
