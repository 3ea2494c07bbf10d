#!/usr/bin/env python
"""Composable policies: sweep staged scheduler pipelines through a campaign.

A scheduling policy is a composition of four pluggable stages — ordering,
admission gates, placement and a power-cap chain — addressable by a spec
string in the `repro.scheduler.compose` grammar:

    backfill+carbon(cap=0.7)+budget
    edf+backfill+slack(margin=2.0)+cap(fraction=0.8)
    sjf+backfill+renewable(min_share=0.25)

The five built-in policy names (`fifo`, `backfill`, `energy-aware`,
`carbon-aware`, `deadline-aware`) are canned compositions registered through
`register_policy()`, with hash-pinned job records.  Because the `schedule` experiment takes the policy as an
ordinary parameter, the whole composition space sweeps through the campaign
layer like any other grid dimension.

Run with::

    python examples/policy_composition.py

The same sweep from the command line::

    greenhpc sweep --experiments schedule \\
        --grid "policy=backfill,backfill+carbon(cap=0.7)+budget" --json

`greenhpc policies` prints the registered policies and the stage vocabulary.
"""

from __future__ import annotations

from repro.core.levers import make_scheduler
from repro.experiments import CampaignSpec, run_campaign
from repro.scheduler.compose import parse_policy

#: Three composed pipelines against the plain backfill baseline: carbon
#: deferral + dirty-hour caps + the facility budget gate; EDF ordering that
#: spends deadline slack on green hours under a static cap; and shortest-job
#: ordering gated on the grid's renewable share.
PIPELINES = [
    "backfill",
    "backfill+carbon(cap=0.7)+budget",
    "edf+backfill+slack(margin=2.0)+cap(fraction=0.8)",
    "sjf+backfill+renewable(min_share=0.25)",
]


def show_compositions() -> None:
    print("pipelines under test (parse -> canonical round-trip):")
    for spec in PIPELINES:
        parsed = parse_policy(spec)
        scheduler = make_scheduler(spec)
        stages = [type(s).__name__ for s in (*scheduler.gates, *scheduler.power)]
        print(f"  {parsed!s:<52} ordering={type(scheduler.ordering).__name__:<20}"
              f" stages={stages}")
    print()


def sweep_pipelines() -> None:
    campaign = CampaignSpec(
        experiments=("schedule",),
        base="single-year",
        param_grid={
            "policy": PIPELINES,
            "jobs": [150],
            "horizon_days": [5.0],
        },
    )
    result = run_campaign(campaign)

    print("one seeded world, four policy compositions:")
    header = f"  {'policy':<52} {'energy kWh':>11} {'CO2 kg':>8} {'wait h':>7} {'miss %':>7}"
    print(header)
    print("  " + "-" * (len(header) - 2))
    for row in result.rows:
        print(
            f"  {row['policy']:<52} {row['facility_energy_kwh']:>11.1f} "
            f"{row['emissions_kg']:>8.1f} {row['mean_wait_h']:>7.2f} "
            f"{100.0 * row['deadline_miss_rate']:>7.1f}"
        )
    print()

    baseline = result.rows[0]
    greenest = min(result.rows, key=lambda r: r["emissions_kg"])
    savings = 100.0 * (1.0 - greenest["emissions_kg"] / baseline["emissions_kg"])
    print(f"greenest composition: {greenest['policy']}")
    print(f"emissions vs. plain backfill: {savings:+.1f}% "
          f"(wait {greenest['mean_wait_h']:.2f} h vs {baseline['mean_wait_h']:.2f} h)")


def main() -> None:
    print("=" * 72)
    print("Composable policy pipelines: ordering + gates + placement + power")
    print("=" * 72)
    show_compositions()
    sweep_pipelines()


if __name__ == "__main__":
    main()
