"""ABL-SCHED — scheduling-policy ablation on identical traces.

Not a figure of the paper, but the ablation its framework implies: run the
same one-week SuperCloud-like job trace under FIFO, backfill, energy-aware
(caps + packing + budget) and carbon-aware (deferral + dirty-hour caps)
policies with identical weather and grid, and compare energy, emissions, cost
and service quality.  This is where the paper's caveat shows up concretely:
on a low-renewable grid with an idle-power-dominated facility, deferral alone
buys little — system-side caps and demand-side/purchasing measures need to be
combined (Sections II.A + II.C together, "a concerted, unified effort").
"""

from benchmarks._report import print_header, print_rows
from repro.climate.weather import WeatherModel
from repro.cluster.cooling import CoolingModel
from repro.cluster.resources import Cluster
from repro.cluster.simulator import ClusterSimulator, SimulationConfig
from repro.config import FacilityConfig
from repro.grid.iso_ne import IsoNeLikeGrid
from repro.scheduler.compose import build_pipeline
from repro.timeutils import SimulationCalendar
from repro.workloads.supercloud import SuperCloudTraceConfig, SuperCloudTraceGenerator

FACILITY = FacilityConfig(n_nodes=24, gpus_per_node=2)

#: Policy name -> explicit pipeline spelling, in table order.
POLICIES = {
    "fifo": "fifo",
    "backfill": "backfill",
    "energy-aware": "backfill+cap(fraction=0.75)+budget",
    "carbon-aware": "backfill+carbon(cap=0.7)",
    "deadline-aware": "edf+backfill+slack(margin=2.0)",
}


def _build_world():
    calendar = SimulationCalendar(2020, 2)
    weather = WeatherModel(seed=0).hourly_temperature_c(calendar)
    grid = IsoNeLikeGrid(calendar, seed=0)
    generator = SuperCloudTraceGenerator(SuperCloudTraceConfig(facility=FACILITY), seed=7)
    jobs = generator.generate_jobs(n_jobs=200, horizon_h=5 * 24.0, deferrable_fraction=0.5)
    return weather, grid, jobs


def _run_all(weather, grid, jobs):
    results = []
    for name, spelling in POLICIES.items():
        simulator = ClusterSimulator(
            Cluster(FACILITY),
            build_pipeline(spelling, name=name),
            SimulationConfig(horizon_h=7 * 24.0),
            weather_hourly_c=weather,
            cooling=CoolingModel(),
            grid=grid,
        )
        results.append(simulator.run([job.clone_pending() for job in jobs]))
    return results


def test_bench_scheduler_comparison(benchmark):
    weather, grid, jobs = _build_world()
    results = benchmark.pedantic(
        lambda: _run_all(weather, grid, jobs), rounds=1, iterations=1, warmup_rounds=0
    )

    print_header("Scheduler ablation — identical one-week trace, weather and grid")
    print_rows(
        [
            {
                "scheduler": r.scheduler_name,
                "facility_energy_kwh": r.facility_energy_kwh,
                "emissions_kg": r.total_emissions_kg,
                "cost_usd": r.total_cost_usd,
                "energy_per_gpu_hour_kwh": r.energy_per_gpu_hour_kwh,
                "completed_jobs": r.completed_jobs,
                "mean_wait_h": r.mean_wait_h,
                "p95_wait_h": r.p95_wait_h,
            }
            for r in results
        ]
    )
    print("reading: energy-aware (caps + packing) wins on energy per delivered GPU-hour at a small")
    print("wait-time cost; pure carbon-aware deferral trades extra wait for little emission gain on")
    print("this grid — it needs to be paired with purchasing/load-shaping (Section II.A).")

    by_name = {r.scheduler_name: r for r in results}
    fifo, backfill = by_name["fifo"], by_name["backfill"]
    energy_aware = by_name["energy-aware"]
    # All policies deliver the same completed work on this under-subscribed trace.
    delivered = {round(r.delivered_gpu_hours, 2) for r in results}
    assert len(delivered) == 1
    # Backfill should not be slower than FIFO for users.
    assert backfill.mean_wait_h <= fifo.mean_wait_h + 1e-6
    # The energy-aware policy is the most energy-efficient per delivered GPU-hour.
    assert energy_aware.energy_per_gpu_hour_kwh <= min(
        r.energy_per_gpu_hour_kwh for r in results
    ) + 1e-9
    # And its wait-time cost stays moderate (activity constraint intact).
    assert energy_aware.mean_wait_h <= backfill.mean_wait_h + 2.0
