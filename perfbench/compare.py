"""Compare two sets of benchmark runs, workload by workload and metric by metric.

Usage::

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the lines ``run.py --record FILE`` appended, any number of
runs per workload (ten or more per side for a claim).  For every workload
both files ran, and every metric of ``BENCHMARK.json``, it prints each side's
median and quartiles, the ratio of the medians with its base, and a verdict:

* ``unresolved`` -- the base's own spread (interquartile range over median)
  is wider than the metric's bound, and not every new run beats every base run;
* ``regressed`` -- the new median is worse than the base's by more than the bound;
* ``improved`` -- the new median is better by more than the base's spread,
  and the new side wins at least nine tenths of the runs paired in order;
* ``within bound`` -- otherwise.

Per-layer metrics have no bound: counts read ``same`` or ``changed`` (a count
repeats exactly between runs of one program), other metrics only ``-``.  The
workload-specific figures of the detail line (``DETAIL``) are listed the same
way, after the end-to-end metrics.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Detail-line figures worth comparing, with their units.
DETAIL = {
    "error_rate": "fraction",
    "raw_sim_jobs_per_s": "jobs/s",
    "raw_ops_per_s": "ops/s",
    "cold_points_per_s": "points/s",
    "warm_points_per_s": "points/s",
    "serve_req_per_s": "req/s",
    "serve_p50_ms": "ms",
    "serve_p99_ms": "ms",
    "serve_checkpoint_ms": "ms",
}


def load(path: str) -> dict[tuple[str, int], list[dict]]:
    """Runs by (workload, trace flag), in file order."""
    runs: dict[tuple[str, int], list[dict]] = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            runs.setdefault((record["workload"], record["trace"]), []).append(record)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    b1, bmed, b3 = quartiles(base)
    nmed = statistics.median(new)
    spread = (b3 - b1) / abs(bmed) if bmed else float("inf")
    gain = sign * (nmed - bmed) / abs(bmed) if bmed else 0.0
    all_better = min(sign * v for v in new) > max(sign * v for v in base)
    if spread > bound:
        return "improved" if all_better else "unresolved"
    if gain < -bound:
        return "regressed"
    pairs = list(zip(base, new))
    wins = sum(sign * n > sign * b for b, n in pairs)
    if gain > spread and pairs and wins >= 0.9 * len(pairs):
        return "improved"
    return "within bound"


def values_of(runs: list[dict], metric: str) -> list[float]:
    values = [r["result"]["metrics"].get(metric, {}).get("value") for r in runs]
    values += [r["detail"].get(metric) for r in runs]
    return [v for v in values if v is not None]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = load(argv[0]), load(argv[1])
    header = f"{'metric':32} {'base q1/med/q3':>30} {'new q1/med/q3':>30} {'new/base':>9}  verdict"
    for key in sorted(set(base) & set(new)):
        workload, traced = key
        b_runs, n_runs = base[key], new[key]
        print(f"\n{workload} ({'per-layer' if traced else 'end-to-end'}; "
              f"{len(b_runs)} base runs, {len(n_runs)} new runs)")
        print(header)
        metrics = spec["per_layer"] if traced else spec["end_to_end"] + [
            {"name": name, "unit": unit} for name, unit in DETAIL.items()
        ]
        for metric in metrics:
            b = values_of(b_runs, metric["name"])
            n = values_of(n_runs, metric["name"])
            if not b or not n:
                continue
            bq, nq = quartiles(b), quartiles(n)
            ratio = f"{nq[1] / bq[1]:.3f}" if bq[1] else "-"
            if "bound" in metric:
                call = verdict(b, n, metric["better"], metric["bound"])
            elif traced and metric["unit"] == "count":
                call = "same" if set(b) == set(n) and len(set(b)) == 1 else "changed"
            else:
                call = "-"
            print(
                f"{metric['name']:32} {_fmt(bq):>30} {_fmt(nq):>30} {ratio:>9}  {call}"
                f"  (base median {bq[1]:.6g} {metric['unit']})"
            )
    return 0


def _fmt(q: tuple[float, float, float]) -> str:
    return "/".join(f"{v:.4g}" for v in q)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
