"""PERF-OBS-OVERHEAD — tracing must be (near) free, on and off.

The observability layer (:mod:`repro.obs`) leaves its instrumentation in the
simulator's hot paths permanently: span context managers around
begin/advance/finalize, observer hooks, recorder reads at construction.  The
design contract is that this costs nothing measurable —

* **disabled** (the default): the ambient recorder is the shared no-op, so
  instrumented call sites do no clock reads and no allocations; a run with
  the instrumentation in place must match the seed-era wall time (this is
  implicitly gated by the scale ladder in ``test_bench_simulator_scale.py``);
* **enabled**: recording every simulator span and metric for the medium tier
  (64 nodes x 4 GPUs, 2 000 jobs, 28 days — the profiled workload) must cost
  at most **1.05x** the untraced run.

The gate interleaves traced and untraced rounds and takes the **minimum
paired ratio**: each round times the two modes back-to-back under the same
ambient conditions, and the best round estimates the overhead floor.  (A
min-of-each-mode ratio is too noisy for a 5% budget: two ~100 ms floors
drift a few percent apart between processes on a shared machine.  The fleet
lockstep gate uses the same paired discipline.)  One pytest-benchmark entry records
the traced run for the committed ``BENCH_<n>.json`` perf trajectory.
"""

from __future__ import annotations

import gc
import time

import pytest

from benchmarks._report import print_header, print_rows
from repro.climate.weather import WeatherModel
from repro.cluster.cooling import CoolingModel
from repro.cluster.resources import Cluster
from repro.cluster.simulator import ClusterSimulator, SimulationConfig
from repro.config import FacilityConfig
from repro.core.levers import make_scheduler
from repro.grid.iso_ne import IsoNeLikeGrid
from repro.obs import NULL_RECORDER, TraceRecorder, recording, set_recorder
from repro.timeutils import SimulationCalendar
from repro.workloads.demand import DeadlineDemandModel
from repro.workloads.supercloud import SuperCloudTraceConfig, SuperCloudTraceGenerator

SEED = 11
HORIZON_28D = 28 * 24.0
FACILITY = FacilityConfig(n_nodes=64, gpus_per_node=4)
GPU_MODEL = "V100"
N_JOBS = 2000

#: Traced wall time may exceed untraced by at most this factor (best paired
#: round of N).
MAX_TRACED_RATIO = 1.05

ROUNDS = 7


@pytest.fixture(scope="module")
def world():
    calendar = SimulationCalendar(start_year=2020, n_months=2)
    weather = WeatherModel(seed=SEED).hourly_temperature_c(calendar)
    grid = IsoNeLikeGrid(calendar, seed=SEED)
    generator = SuperCloudTraceGenerator(
        SuperCloudTraceConfig(facility=FACILITY, gpu_model=GPU_MODEL),
        demand_model=DeadlineDemandModel(seed=SEED),
        seed=SEED,
    )
    jobs = generator.generate_jobs(n_jobs=N_JOBS, horizon_h=HORIZON_28D)
    return weather, grid, jobs


def _run(world):
    weather, grid, jobs = world
    simulator = ClusterSimulator(
        Cluster(FACILITY, gpu_model=GPU_MODEL),
        make_scheduler("backfill"),
        SimulationConfig(horizon_h=HORIZON_28D),
        weather_hourly_c=weather,
        cooling=CoolingModel(),
        grid=grid,
    )
    return simulator.run([job.clone_pending() for job in jobs])


def test_bench_traced_overhead_gate(world):
    """Traced medium-tier run <= 1.05x untraced, with identical job records."""
    set_recorder(NULL_RECORDER)  # belt and braces: start from the default
    untraced_result = _run(world)  # warm-up round, both substrates hot

    traced_walls, untraced_walls = [], []
    traced_result = None
    spans_recorded = 0
    for _ in range(ROUNDS):
        # A garbage-collection pass landing inside one mode's timed region
        # but not the other's would skew a ~5% gate; collect before each.
        gc.collect()
        t0 = time.perf_counter()
        untraced_result = _run(world)
        untraced_walls.append(time.perf_counter() - t0)
        recorder = TraceRecorder()
        with recording(recorder):
            gc.collect()
            t0 = time.perf_counter()
            traced_result = _run(world)
            traced_walls.append(time.perf_counter() - t0)
        spans_recorded = len(recorder)

    untraced_s = min(untraced_walls)
    traced_s = min(traced_walls)
    ratio = min(t / u for t, u in zip(traced_walls, untraced_walls))

    print_header("Tracing overhead (medium tier: 64x4 V100, 2000 jobs, 28 days)")
    print_rows(
        [
            {"mode": "untraced", "wall_s": untraced_s, "ratio": 1.0, "spans": 0},
            {
                "mode": "traced",
                "wall_s": traced_s,
                "ratio": ratio,
                "spans": spans_recorded,
            },
        ]
    )

    # Tracing must observe, never perturb.
    assert traced_result.job_records == untraced_result.job_records
    assert spans_recorded > 0
    assert ratio <= MAX_TRACED_RATIO, (
        f"traced run cost {ratio:.3f}x the untraced run "
        f"(gate: <= {MAX_TRACED_RATIO}x); tracing must stay near-free"
    )


def test_bench_traced_medium_run(benchmark, world):
    """The traced medium-tier wall time, recorded for the perf trajectory."""

    def traced():
        with recording(TraceRecorder()):
            return _run(world)

    result = benchmark.pedantic(traced, rounds=3, iterations=1, warmup_rounds=1)
    assert result.completed_jobs > 0
