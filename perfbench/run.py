"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload site-xlarge --seed 0 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped, in
``INTERPRETERS`` fresh interpreters one after another: each sets the workload
up and runs untraced passes for its share of ``--seconds``.
``--trace 1`` reports the per-layer ladder instead, from one interpreter that
alternates untraced and traced passes (see ``worker.py`` and ``ladder.py``).

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; the line before it carries workload-specific detail (the
figures behind ``error_rate``, cold/warm points per second, serve latency
percentiles with their sample counts).  ``--record FILE`` also appends both
to FILE as one JSON line, the input of ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import CLIENT_CALLS, WORKLOADS, env_with_source  # noqa: E402

#: Fresh interpreters per untraced run.  Each sets the workload up and
#: measures for a share of ``--seconds``; ``setup_s`` is the median of their
#: set-ups, and the throughputs are medians over all their passes, so no one
#: process's memory layout or moment on the host decides a figure.
INTERPRETERS = 3
#: Every process this run starts must be gone by then (the limit is 180 s).
RUN_BUDGET_S = 165.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_jobs_per_s": "jobs/s",
    "ops_per_s": "ops/s",
}
_RATIOS = (
    "substrate.builds_per_world",
    "pipeline.starts_per_select",
    "store.hit_ratio",
    "trace.coverage",
    "trace.overhead",
)
_COUNTS = ("substrate.worlds", "fleet.windows", "serve.telemetry_rows")


def layer_unit(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name in _RATIOS:
        return "ratio"
    if name in _COUNTS or name.endswith("_n"):
        return "count"
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    raise ValueError(f"no unit for metric {name!r}")


class WorkerFailed(RuntimeError):
    pass


def spawn(root: Path, workdir: Path, mode: str, args: argparse.Namespace, deadline: float) -> dict:
    """Run one worker interpreter to completion and return its report."""
    seconds = args.seconds if mode == "trace" else args.seconds / INTERPRETERS
    spawned_at = time.monotonic()
    command = [
        sys.executable, str(HERE / "worker.py"), mode, args.workload, str(args.seed),
        str(seconds), repr(spawned_at), str(workdir),
    ]
    # A session of its own, so a timeout can stop the worker's children too
    # (the serve daemon, fleet stepping workers).
    process = subprocess.Popen(
        command, cwd=root, env=env_with_source(root), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise WorkerFailed(f"{mode} worker ran past the {RUN_BUDGET_S:.0f} s budget") from None
    lines = out.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise WorkerFailed(f"{mode} worker exited with {process.returncode}:\n{err[-4000:]}")
    return json.loads(lines[-1])


def pool(name: str, reports: list[dict]) -> tuple[dict, dict]:
    """The run's report and end-to-end values from its interpreters' passes."""
    passes = [p for r in reports for p in r["passes"]]
    problems = [problem for p in passes for problem in p["problems"]]
    failed = sum(p["failed"] for p in passes)
    if len({p["digest"] for p in passes}) > 1:
        problems.append("passes of one seed produced different outputs")
        failed += sum(p["ops"] for p in passes[1:])
    attempted = sum(p["ops"] for p in passes)

    def rate(key: str, wall: str = "wall_s") -> float:
        return statistics.median(p[key] / p[wall] for p in passes)

    values = {
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
        "sim_jobs_per_s": rate("sim_jobs"),
        "ops_per_s": rate("ops"),
    }
    detail: dict = {
        "passes": len(passes),
        "error_rate": failed / attempted,
        "digest": passes[0]["digest"],
        "setup_samples_s": [r["setup_s"] for r in reports],
        "raw_sim_jobs_per_s": rate("sim_jobs", "raw_wall_s"),
        "raw_ops_per_s": rate("ops", "raw_wall_s"),
        "pass_s": [p["wall_s"] for p in passes],
        "raw_pass_walls_s": [p["raw_wall_s"] for p in passes],
        "probes": [r["probe"] for r in reports],
    }
    if name == "sweep-cold-warm":
        for phase in ("cold", "warm"):
            detail[f"{phase}_points_per_s"] = statistics.median(
                p["extra"]["points"] / p["extra"][f"{phase}_s"] for p in passes
            )
    if name == "serve-session":
        latencies: dict[str, list[float]] = {}
        for r in reports:
            for kind, samples in r["latencies"].items():
                latencies.setdefault(kind, []).extend(samples)
        interactive = [s for kind in CLIENT_CALLS for s in latencies[kind]]
        percentiles = statistics.quantiles(interactive, n=100)
        detail.update(
            serve_req_per_s=values["ops_per_s"],
            serve_p50_ms=1e3 * percentiles[49],
            serve_p99_ms=1e3 * percentiles[98],
            serve_samples=len(interactive),
            serve_checkpoint_ms=1e3 * statistics.median(latencies["checkpoint"]),
            serve_checkpoints=len(latencies["checkpoint"]),
        )
    report = {"attempted": attempted, "failed": failed, "problems": problems[:10], "detail": detail}
    return report, values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, help="append the result to this JSON-lines file")
    args = parser.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no source tree at {root / 'src' / 'repro'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    workdir = root / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            report = spawn(root, workdir, "trace", args, deadline)
            metrics = {
                name: {"value": value, "unit": layer_unit(name)}
                for name, value in report["metrics"].items()
            }
        else:
            reports = [spawn(root, workdir, "measure", args, deadline) for _ in range(INTERPRETERS)]
            report, values = pool(args.workload, reports)
            metrics = {
                name: {"value": values[name], "unit": unit}
                for name, unit in END_TO_END_UNITS.items()
            }
    except WorkerFailed as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    result = {
        "correct": report["failed"] == 0 and not report["problems"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "problems": report["problems"],
        "detail": report["detail"],
    }
    if args.record is not None:
        with args.record.open("a") as handle:
            handle.write(json.dumps(dict(detail, result=result)) + "\n")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
