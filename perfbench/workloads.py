"""The four benchmark workloads, each driven through a shipped entry point.

A workload is set up once per process and then run as repeated *passes*: a
fixed amount of work whose inputs depend only on the seed.  Each pass checks
its outputs and returns a :class:`PassResult` with its wall time, the ops it
attempted and failed (an op is a simulation run, a campaign point or an HTTP
request), the simulated jobs it completed, and a digest of its outputs.  Every
pass of one seed must produce the same digest, traced or not.

Why each workload exists, and which layer metric should move which
end-to-end metric on it, is written down in ``README.md`` next to this file.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

#: The serve client's interactive calls; checkpoints and session set-up and
#: tear-down are timed apart from them.
CLIENT_CALLS = ("submit", "advance", "telemetry", "route", "status")

#: Job-record digest of one site-xlarge pass at seed 0 (both policies).  It
#: moves only when the simulator's behaviour changes.
SITE_XLARGE_PIN_SEED0 = "8970e707b9e1a3edd01f96e03f6ecf97"


@dataclass
class PassResult:
    wall_s: float
    ops: int
    failed: int
    sim_jobs: int
    digest: str
    problems: list[str] = field(default_factory=list)
    #: workload-specific timings (seconds unless the key says otherwise)
    extra: dict[str, Any] = field(default_factory=dict)


def _digest(payload: Any) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=repr).encode()
    ).hexdigest()[:32]


class _Capture:
    """Records what a method returns, leaving its behaviour unchanged.

    Installed at set-up in every mode, so untraced and traced passes pay the
    same (one list append per captured call).
    """

    def __init__(self, owner: Any, attr: str) -> None:
        original = owner.__dict__[attr]
        self.results: list[Any] = []
        results = self.results

        def capturing(*args: Any, **kwargs: Any) -> Any:
            result = original(*args, **kwargs)
            results.append(result)
            return result

        setattr(owner, attr, capturing)

    def drain(self) -> list[Any]:
        taken = list(self.results)
        self.results.clear()
        return taken


class Workload:
    """One workload for one seed.  ``in_process`` (the traced run) hosts the
    serve daemon in this process instead of starting ``greenhpc serve``."""

    name = ""
    #: Whether to keep this process and its children on one CPU, so that a
    #: reference clock in this process probes the CPU the children run on.
    one_cpu = False

    def __init__(self, seed: int, workdir: Path, *, in_process: bool = False) -> None:
        self.seed = int(seed)
        self.workdir = Path(workdir)
        self.in_process = in_process
        #: What passes are timed on: the measuring run swaps in a
        #: ``ReferenceClock``; the traced run keeps wall time.
        self.clock = time.perf_counter

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, index: int) -> PassResult:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def take_latencies(self) -> dict[str, list[float]]:
        """Client-side request latencies since the last call, by call kind."""
        return {}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# site-xlarge: the simulator hot path on one big site
# ---------------------------------------------------------------------------


class SiteXlarge(Workload):
    """``schedule`` on ``supercloud-xlarge`` (1024 x 8 A100), two policies, one trace."""

    name = "site-xlarge"
    POLICIES = ("backfill", "backfill+carbon(cap=0.7)")
    JOBS = 8000
    HORIZON_DAYS = 28.0

    def setup(self) -> None:
        from repro import ExperimentSession

        self.session = ExperimentSession("supercloud-xlarge", seed=self.seed, n_months=2)
        self.capture = _Capture(ExperimentSession, "simulate_policy")
        self.session.scenario()
        self.trace_ids = [
            job.job_id
            for job in self.session.job_trace(
                n_jobs=self.JOBS, horizon_h=self.HORIZON_DAYS * 24.0
            )
        ]

    def run_pass(self, index: int) -> PassResult:
        problems: list[str] = []
        digests = []
        sim_jobs = 0
        start = self.clock()
        for policy in self.POLICIES:
            result = self.session.run(
                "schedule", policy=policy, jobs=self.JOBS, horizon_days=self.HORIZON_DAYS
            )
            sim_jobs += int(result.scalars["completed_jobs"])
        wall = self.clock() - start
        runs = self.capture.drain()
        for policy, run in zip(self.POLICIES, runs):
            problems += _check_dispatched_once(policy, run.job_records, self.trace_ids)
            digests.append(_records_digest(run.job_records))
        digest = _digest(digests)
        if self.seed == 0 and digest != SITE_XLARGE_PIN_SEED0:
            problems.append(f"job-record digest {digest} != pin {SITE_XLARGE_PIN_SEED0}")
        failed = len(self.POLICIES) if problems else 0
        return PassResult(
            wall, len(self.POLICIES), failed, sim_jobs, digest, problems,
            extra={"jobs_started": sum(_started(run.job_records) for run in runs)},
        )


def _check_dispatched_once(label: str, records: list, trace_ids: list[str]) -> list[str]:
    ids = [record.job_id for record in records]
    problems = []
    if len(ids) != len(set(ids)):
        problems.append(f"{label}: a job has more than one record")
    if set(ids) != set(trace_ids):
        problems.append(f"{label}: records do not cover the trace exactly")
    for record in records:
        if record.start_time_h is not None and record.start_time_h < record.submit_time_h:
            problems.append(f"{label}: job {record.job_id} started before submission")
            break
        if record.completed and record.start_time_h is None:
            problems.append(f"{label}: job {record.job_id} completed without starting")
            break
    return problems


def _started(records: list) -> int:
    return sum(record.start_time_h is not None for record in records)


def _records_digest(records: list) -> str:
    return _digest([list(vars(record).values()) for record in records])


# ---------------------------------------------------------------------------
# fleet-deca: fleet coordination across ten small sites on two workers
# ---------------------------------------------------------------------------


class FleetDeca(Workload):
    """``fleet`` on ``deca-continental-small`` with ``--workers 2``."""

    name = "fleet-deca"
    # The coordinator and its two stepping workers share one CPU, so the
    # coordinator's reference clock probes the core that does the work.
    # Coordination dominates here: the sites are small and the stepping
    # workers wait on the coordinator every window.
    one_cpu = True
    FLEET = "deca-continental-small"
    ROUTER = "carbon-min+queue-cap(max=50)"
    JOBS = 10000
    HORIZON_DAYS = 14.0
    #: fleet rows whose value must equal the sum over the site rows, bit for bit
    SUMMED = (
        "it_energy_kwh",
        "facility_energy_kwh",
        "cooling_energy_kwh",
        "emissions_kg",
        "cost_usd",
        "completed_jobs",
        "delivered_gpu_hours",
    )

    def setup(self) -> None:
        from repro import ExperimentSession
        from repro.fleet import FleetSimulator, get_fleet
        from repro.parallel.pool import ParallelConfig

        self.session = ExperimentSession(
            "default", seed=self.seed, n_months=1, parallel=ParallelConfig(n_workers=2)
        )
        spec = self.session.spec
        members = get_fleet(self.FLEET).with_member_overrides(
            seed=spec.seed, start_year=spec.start_year, n_months=spec.n_months
        ).members
        for member in members:
            self.session.scenario(member)
        trace = self.session.job_trace(
            n_jobs=self.JOBS, horizon_h=self.HORIZON_DAYS * 24.0, spec=members[0]
        )
        self.trace_ids = [job.job_id for job in trace]
        self.capture = _Capture(FleetSimulator, "run")

    def run_pass(self, index: int) -> PassResult:
        start = self.clock()
        result = self.session.run(
            "fleet",
            fleet=self.FLEET,
            router=self.ROUTER,
            jobs=self.JOBS,
            horizon_days=self.HORIZON_DAYS,
        )
        wall = self.clock() - start
        (fleet,) = self.capture.drain()
        problems = []
        fleet_row, *site_rows = result.rows
        for key in self.SUMMED:
            if fleet_row[key] != sum(row[key] for row in site_rows):
                problems.append(f"fleet {key} != sum over sites")
        assigned = [a.job_id for a in fleet.assignments]
        if len(assigned) != len(set(assigned)) or set(assigned) != set(self.trace_ids):
            problems.append("jobs are not assigned exactly once")
        site_ids = [r.job_id for site in fleet.site_results for r in site.job_records]
        if sorted(site_ids) != sorted(assigned):
            problems.append("site job records do not match the assignments")
        timings = fleet.step_timings
        digest = _digest(
            [
                [(a.job_id, a.site_index, a.dispatch_hour) for a in fleet.assignments],
                [_records_digest(site.job_records) for site in fleet.site_results],
            ]
        )
        return PassResult(
            wall,
            1,
            1 if problems else 0,
            int(fleet_row["completed_jobs"]),
            digest,
            problems,
            extra={
                "fleet.windows": timings.n_windows,
                "fleet.max_site_advance_s": timings.max_site_advance_s,
                "fleet.step_advance_s": timings.advance_s,
                "jobs_started": sum(_started(site.job_records) for site in fleet.site_results),
            },
        )


# ---------------------------------------------------------------------------
# sweep-cold-warm: a campaign over 16 worlds, cold store then warm store
# ---------------------------------------------------------------------------


class SweepColdWarm(Workload):
    """``sweep`` of four experiments over 8 seeds x ``n_months=3,6``, serially."""

    name = "sweep-cold-warm"
    EXPERIMENTS = ("figures", "table1", "powercap", "schedule")
    N_SEEDS = 8
    MONTHS = (3, 6)

    def setup(self) -> None:
        from repro.experiments.campaign import CampaignSpec

        seeds = random.Random(self.seed).sample(range(1, 1 << 20), self.N_SEEDS)
        self.campaign = CampaignSpec(
            experiments=self.EXPERIMENTS,
            base="default",
            scenario_grid={"seed": seeds, "n_months": list(self.MONTHS)},
            seed=self.seed,
        )
        self.n_points = len(self.campaign.expand())

    def run_pass(self, index: int) -> PassResult:
        from repro.artifacts import ArtifactStore
        from repro.experiments.campaign import clear_worker_sessions, run_campaign

        root = self.workdir / f"store-{index}"
        shutil.rmtree(root, ignore_errors=True)
        # A cold pass is a fresh process in real use: no store, no cached worlds.
        clear_worker_sessions()
        store = ArtifactStore(root)
        start = self.clock()
        cold = run_campaign(self.campaign, None, store=store)
        middle = self.clock()
        warm = run_campaign(self.campaign, None, store=store)
        end = self.clock()
        shutil.rmtree(root, ignore_errors=True)
        problems = []
        if (cold.cache_hits, cold.cache_misses) != (0, self.n_points):
            problems.append(f"cold pass: {cold.cache_hits} hits, {cold.cache_misses} misses")
        if (warm.cache_hits, warm.cache_misses) != (self.n_points, 0):
            problems.append(f"warm pass: {warm.cache_hits} hits, {warm.cache_misses} misses")
        cold_rows = json.dumps(cold.rows, sort_keys=True)
        if json.dumps(warm.rows, sort_keys=True) != cold_rows or warm.to_csv() != cold.to_csv():
            problems.append("warm rows differ from cold rows")
        sim_jobs = sum(
            int(row["completed_jobs"]) for row in cold.rows if row["experiment"] == "schedule"
        )
        ops = 2 * self.n_points
        return PassResult(
            end - start,
            ops,
            ops if problems else 0,
            sim_jobs,
            _digest(cold_rows),
            problems,
            extra={"cold_s": middle - start, "warm_s": end - middle, "points": self.n_points},
        )


# ---------------------------------------------------------------------------
# serve-session: one closed-loop client against a `greenhpc serve` daemon
# ---------------------------------------------------------------------------


class ServeSession(Workload):
    """Two ``supercloud-medium`` sessions, hour by hour, checkpointed daily."""

    name = "serve-session"
    # Client and daemon take turns (closed loop), so on one shared CPU they
    # lose no parallelism, the figures stop depending on where the scheduler
    # places the two processes, and the client's reference clock probes the
    # core that does the work.
    one_cpu = True
    SESSIONS = (
        ("holyoke-ma", "backfill"),
        ("phoenix-az", "backfill+carbon(cap=0.7)"),
    )
    ROUTER = "carbon-min+queue-cap(max=50)"
    DAYS = 7
    JOBS_PER_HOUR = 4

    def setup(self) -> None:
        # Per interpreter: a daemon restores whatever checkpoints it finds.
        ckpt = self.workdir / f"checkpoints-{os.getpid()}"
        if self.in_process:
            from repro.serve.daemon import ServeDaemon

            self.daemon = ServeDaemon(port=0, checkpoint_dir=str(ckpt))
            self._thread = threading.Thread(target=self.daemon.serve_forever, daemon=True)
            self._thread.start()
            url = f"http://{self.daemon.host}:{self.daemon.port}"
        else:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                 "--checkpoint-dir", str(ckpt)],
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                text=True,
            )
            line = self.process.stdout.readline()
            match = re.search(r"listening on (http://\S+)", line)
            if match is None:
                raise RuntimeError(f"daemon did not start: {line!r}")
            url = match.group(1)
        from repro.serve.client import ServeClient

        self.client = ServeClient(url)
        self.latencies: dict[str, list[float]] = {}
        # Sessions share the daemon's per-spec worlds, and those outlive the
        # sessions: building them here keeps every timed pass alike.
        for site, policy in self.SESSIONS:
            self.client.create_session(session_id=f"warm-{site}", **self._session_body(site, policy))
            self.client.delete_session(f"warm-{site}")

    def _session_body(self, site: str, policy: str) -> dict[str, Any]:
        return {
            "scenario": "supercloud-medium",
            "seed": self.seed,
            "n_months": 1,
            "site": site,
            "policy": policy,
            "horizon_h": self.DAYS * 24.0,
        }

    def _jobs(self, site: str, hour: int) -> list[dict]:
        rng = random.Random(f"{self.seed}/{site}/{hour}")
        return [
            {
                "job_id": f"{site}-h{hour}-{k}",
                "user_id": f"u{rng.randrange(40)}",
                "n_gpus": rng.choice((1, 2, 4, 8, 16)),
                "duration_h": round(rng.uniform(0.5, 11.5), 3),
                "submit_time_h": hour + round(rng.random(), 3),
            }
            for k in range(self.JOBS_PER_HOUR)
        ]

    def run_pass(self, index: int) -> PassResult:
        from repro.errors import ServeError

        client = self.client
        problems: list[str] = []
        ops = failed = sim_jobs = rows_read = 0
        # Outputs name sites, not session ids, so every pass digests alike.
        outputs: list[Any] = []

        def request(kind: str, call, *args: Any, **kwargs: Any) -> Any:
            nonlocal ops, failed
            ops += 1
            began = self.clock()
            try:
                return call(*args, **kwargs)
            except ServeError as exc:
                failed += 1
                problems.append(f"{kind}: {exc}")
                return None
            finally:
                self.latencies.setdefault(kind, []).append(self.clock() - began)

        start = self.clock()
        sites = {f"p{index:04d}-{site}": site for site, _ in self.SESSIONS}
        for (sid, site), (_, policy) in zip(sites.items(), self.SESSIONS):
            request("create", client.create_session, session_id=sid, **self._session_body(site, policy))
        cursors = dict.fromkeys(sites, 0)
        for hour in range(self.DAYS * 24):
            for sid, site in sites.items():
                jobs = self._jobs(site, hour)
                request("submit", client.submit_jobs, sid, jobs)
                request("advance", client.advance, sid, hour + 1.0)
                rows = request(
                    "telemetry", lambda: list(client.stream_telemetry(sid, since=cursors[sid]))
                )
                if rows is not None:
                    if [row["tick"] for row in rows] != list(
                        range(cursors[sid], cursors[sid] + len(rows))
                    ):
                        failed += 1
                        problems.append(f"{sid}: telemetry cursor gap at {cursors[sid]}")
                    cursors[sid] += len(rows)
                    rows_read += len(rows)
                    for row in rows:
                        row.pop("session_id", None)
                    outputs.append([site, rows])
                routed = request(
                    "route", client.route, jobs[0], router=self.ROUTER, sessions=list(sites)
                )
                if routed is not None:
                    outputs.append([site, sites[routed["session_id"]]])
                status = request("status", client.session_status, sid)
                if status is not None:
                    outputs.append([site, status["n_pending"], status["n_running"]])
                if (hour + 1) % 24 == 0:
                    request("checkpoint", client.checkpoint, sid)
        for sid, site in sites.items():
            final = request("finalize", client.finalize, sid)
            if final is not None:
                sim_jobs += int(final["summary"]["completed_jobs"])
                outputs.append([site, final["summary"]])
            request("delete", client.delete_session, sid)
        wall = self.clock() - start
        return PassResult(
            wall, ops, failed, sim_jobs, _digest(outputs), problems[:5],
            extra={"serve.telemetry_rows": rows_read},
        )

    def take_latencies(self) -> dict[str, list[float]]:
        taken, self.latencies = self.latencies, {}
        return taken

    def close(self) -> None:
        if self.in_process:
            self.daemon.shutdown()
            self._thread.join(timeout=30)
            self.daemon.close()
            return
        process = getattr(self, "process", None)
        if process is None:
            return
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        process.stdout.close()

    def peak_rss_mb(self) -> float:
        if self.in_process:
            return super().peak_rss_mb()
        # The daemon is this process's only child, and it has been waited for.
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (SiteXlarge, FleetDeca, SweepColdWarm, ServeSession)
}


def env_with_source(root: Path) -> dict[str, str]:
    """The environment a child needs to import ``repro`` from ``root/src``.

    String hashing is fixed too, so that every interpreter of a run lays its
    dictionaries out alike (outputs do not depend on it; speed does a little).
    """
    env = dict(os.environ, PYTHONHASHSEED="0")
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def workload(name: str, seed: int, workdir: Path, *, in_process: bool = False) -> Workload:
    return WORKLOADS[name](seed, workdir, in_process=in_process)
