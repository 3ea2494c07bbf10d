"""State-parity tests for the incremental array-backed cluster core.

Three layers of evidence that the delta-maintained state model is exact:

1. **Scalar model parity** — the scalar fast paths of
   :class:`~repro.telemetry.gpu_power.GpuPowerModel` are bit-equal to the
   array API they mirror.
2. **Randomized state parity** — random allocate/release/drain/undrain/re-cap
   sequences keep every incremental counter equal to a brute-force recount
   over the GPU views, and keep the O(1) IT power equal (to float tolerance)
   to both the vectorized recompute checkpoint and a pure-Python reference
   that reproduces the pre-refactor whole-cluster scan arithmetic.  A second
   oracle, the whole-cluster argsort/argmax placement the occupancy buckets
   replaced, must pick the same GPUs and drain the same nodes over random
   allocate/release/re-cap/drain/undrain/restore sequences.
3. **Seeded end-to-end parity** — a pinned SuperCloud-like workload produces
   *bit-identical* job records (hash-pinned against the pre-refactor
   implementation) under all five scheduling policies, with the power series
   agreeing with the recompute checkpoint at every allocation change
   (``parity_check=True``).
"""

import hashlib

import numpy as np
import pytest

from repro.climate.weather import WeatherModel
from repro.cluster.cooling import CoolingModel
from repro.cluster.resources import Cluster, NodeState
from repro.cluster.simulator import ClusterSimulator, SimulationConfig
from repro.config import FacilityConfig
from repro.grid.iso_ne import IsoNeLikeGrid
from repro.scheduler.compose import build_pipeline
from repro.telemetry.gpu_power import GpuPowerModel, get_gpu_spec
from repro.timeutils import SimulationCalendar
from repro.workloads.demand import DeadlineDemandModel
from repro.workloads.supercloud import SuperCloudTraceConfig, SuperCloudTraceGenerator


# ---------------------------------------------------------------------------
# 1. Scalar fast paths vs. the array API
# ---------------------------------------------------------------------------


class TestScalarModelParity:
    @pytest.fixture(params=["V100", "A100", "T4"])
    def model(self, request) -> GpuPowerModel:
        return GpuPowerModel(get_gpu_spec(request.param))

    def test_power_w_scalar_bit_equal(self, model):
        utils = [0.0, 0.1, 0.33, 0.5, 0.72, 0.9, 1.0, 1.7, -0.2]
        caps = [None, 50.0, 100.0, 150.0, 187.5, 250.0, 400.0, 1000.0]
        for util in utils:
            for cap in caps:
                assert model.power_w_scalar(util, cap) == float(model.power_w(util, cap))

    def test_clamp_and_throughput_scalar_bit_equal(self, model):
        for cap in [10.0, 60.0, 100.0, 175.0, 250.0, 400.0, 999.0]:
            assert model.clamp_power_limit_scalar(cap) == float(model.clamp_power_limit(cap))
            for util in [0.2, 0.72, 1.0]:
                assert model.relative_throughput_scalar(cap, util) == float(
                    model.relative_throughput(cap, util)
                )
                assert model.slowdown_factor_scalar(cap, util) == float(
                    model.slowdown_factor(cap, util)
                )

    def test_uncapped_scalar_bit_equal(self, model):
        for util in np.linspace(-0.5, 1.5, 23):
            assert model.uncapped_power_w_scalar(float(util)) == float(
                model.uncapped_power_w(float(util))
            )


# ---------------------------------------------------------------------------
# 2. Randomized incremental-state parity
# ---------------------------------------------------------------------------


def brute_force_it_power(cluster: Cluster) -> float:
    """The pre-refactor whole-cluster scan, kept verbatim as the reference."""
    facility = cluster.facility
    idle_gpu_w = cluster.gpu_spec.idle_power_w
    power = 0.0
    busy_utils: list[float] = []
    busy_caps: list[float] = []
    for node in cluster.nodes:
        if node.state is NodeState.DRAINED:
            continue
        power += facility.node_idle_power_w
        occupied = False
        for gpu in node.gpus:
            if gpu.is_free:
                power += idle_gpu_w
            else:
                occupied = True
                busy_utils.append(gpu.utilization)
                busy_caps.append(
                    gpu.power_limit_w if gpu.power_limit_w is not None else cluster.gpu_spec.tdp_w
                )
        if occupied:
            power += facility.node_active_overhead_w
    if busy_utils:
        power += float(
            np.sum(cluster.gpu_power_model.power_w(np.asarray(busy_utils), np.asarray(busy_caps)))
        )
    return power


def assert_state_parity(cluster: Cluster) -> None:
    """Counters and cached power must match brute-force recounts over the views."""
    free = sum(
        1
        for node in cluster.nodes
        if node.state is not NodeState.DRAINED
        for gpu in node.gpus
        if gpu.is_free
    )
    busy = sum(1 for gpu in cluster.iter_gpus() if not gpu.is_free)
    occupied = sum(1 for node in cluster.nodes if node.is_occupied)
    drained = sum(1 for node in cluster.nodes if node.state is NodeState.DRAINED)
    assert cluster.n_free_gpus == free
    assert cluster.n_busy_gpus == busy
    assert cluster.n_occupied_nodes == occupied
    assert cluster.n_drained_nodes == drained
    for node in cluster.nodes:
        assert node.n_free_gpus == len(node.free_gpus)
        assert node.n_busy_gpus == node.n_gpus - sum(1 for g in node.gpus if g.is_free)
    reference = brute_force_it_power(cluster)
    np.testing.assert_allclose(cluster.it_power_w(), reference, rtol=1e-9, atol=1e-6)
    np.testing.assert_allclose(cluster.recompute_it_power_w(), reference, rtol=1e-12, atol=1e-9)


@pytest.mark.parametrize("seed", [0, 7, 20220527])
def test_randomized_sequences_keep_state_exact(seed):
    rng = np.random.default_rng(seed)
    cluster = Cluster(FacilityConfig(n_nodes=6, gpus_per_node=4), gpu_model="V100")
    live: list[str] = []
    next_id = 0
    for step in range(300):
        op = rng.random()
        if op < 0.45 and cluster.n_free_gpus > 0:
            n_gpus = int(rng.integers(1, cluster.n_free_gpus + 1))
            job_id = f"job-{next_id}"
            next_id += 1
            cap = None if rng.random() < 0.5 else float(rng.uniform(80.0, 300.0))
            cluster.allocate(
                job_id,
                n_gpus,
                utilization=float(rng.uniform(0.05, 1.0)),
                power_limit_w=cap,
                pack=bool(rng.random() < 0.5),
            )
            live.append(job_id)
        elif op < 0.70 and live:
            job_id = live.pop(int(rng.integers(len(live))))
            cluster.release(job_id)
        elif op < 0.85 and live:
            job_id = live[int(rng.integers(len(live)))]
            cap = None if rng.random() < 0.3 else float(rng.uniform(80.0, 300.0))
            cluster.set_power_limit(job_id, cap)
        elif op < 0.95:
            cluster.drain_nodes(int(rng.integers(0, 4)))
        else:
            cluster.undrain_all()
        if step % 10 == 0 or step > 280:
            assert_state_parity(cluster)
    # Drain the cluster empty: the busy-power accumulator must return to 0.
    for job_id in live:
        cluster.release(job_id)
    cluster.undrain_all()
    assert cluster.n_busy_gpus == 0
    assert cluster.n_free_gpus == cluster.total_gpus
    assert cluster.it_power_w() == pytest.approx(brute_force_it_power(cluster), rel=0, abs=0)
    assert_state_parity(cluster)


def reference_placement(cluster: Cluster, n_gpus: int, pack: bool) -> tuple:
    """The pre-bucket placement, kept verbatim as the oracle.

    One whole-cluster pass per call: a stable ``argsort`` of the nodes by free
    count (pack) or repeated ``argmax`` over a decremented copy (spread), read
    from the public views only.
    """
    free = np.array([node.n_free_gpus for node in cluster.nodes])
    allocated = np.array([[not gpu.is_free for gpu in node.gpus] for node in cluster.nodes])
    locations = []
    if pack:
        candidates = np.flatnonzero(free > 0)
        order = candidates[np.argsort(free[candidates], kind="stable")]
        remaining = n_gpus
        for node_id in order:
            free_indices = np.flatnonzero(~allocated[node_id])
            take = free_indices if free_indices.size <= remaining else free_indices[:remaining]
            locations.extend((int(node_id), int(index)) for index in take)
            remaining -= take.size
            if remaining == 0:
                break
    else:
        cursors: dict[int, int] = {}
        for _ in range(n_gpus):
            node_id = int(np.argmax(free))
            row = np.flatnonzero(~allocated[node_id])
            cursor = cursors.get(node_id, 0)
            locations.append((node_id, int(row[cursor])))
            cursors[node_id] = cursor + 1
            free[node_id] -= 1
    return tuple(locations)


def reference_drain(cluster: Cluster, n_nodes: int) -> list[int]:
    """The node ids the pre-bucket ``drain_nodes`` scan would drain."""
    idle = [
        node.node_id
        for node in cluster.nodes
        if node.state is not NodeState.DRAINED and node.n_free_gpus == node.n_gpus
    ]
    return idle[:n_nodes]


def _drained_ids(cluster: Cluster) -> list[int]:
    return [node.node_id for node in cluster.nodes if node.state is NodeState.DRAINED]


@pytest.mark.parametrize("seed", range(40))
def test_bucketed_placement_matches_whole_cluster_reference(seed):
    """Random op sequences: every placement and drain equals the oracle's."""
    rng = np.random.default_rng(seed)
    facility = FacilityConfig(n_nodes=int(rng.integers(1, 13)), gpus_per_node=int(rng.integers(1, 9)))
    cluster = Cluster(facility, gpu_model="V100")
    live: list[str] = []
    for step in range(300):
        op = rng.random()
        if op < 0.40 and cluster.n_free_gpus > 0:
            n_gpus = int(rng.integers(1, cluster.n_free_gpus + 1))
            pack = bool(rng.random() < 0.5)
            expected = reference_placement(cluster, n_gpus, pack)
            job_id = f"job-{step}"
            allocation = cluster.allocate(job_id, n_gpus, utilization=0.7, pack=pack)
            assert allocation.gpu_locations == expected
            live.append(job_id)
        elif op < 0.65 and live:
            cluster.release(live.pop(int(rng.integers(len(live)))))
        elif op < 0.70 and live:
            cluster.set_power_limit(live[int(rng.integers(len(live)))], 150.0)
        elif op < 0.80:
            n_nodes = int(rng.integers(0, 4))
            expected = reference_drain(cluster, n_nodes)
            before = set(_drained_ids(cluster))
            assert cluster.drain_nodes(n_nodes) == len(expected)
            assert set(_drained_ids(cluster)) - before == set(expected)
        elif op < 0.85:
            cluster.undrain_all()
        else:
            state = cluster.snapshot_state()
            target = cluster if rng.random() < 0.5 else Cluster(facility, gpu_model="V100")
            target.restore_state(state)
            cluster = target
        if step % 25 == 0:
            assert_state_parity(cluster)
    assert_state_parity(cluster)


def test_gpu_views_are_read_only():
    """State changes go through Cluster methods; the views refuse writes."""
    cluster = Cluster(FacilityConfig(n_nodes=1, gpus_per_node=2))
    gpu = cluster.nodes[0].gpus[0]
    for name, value in (("allocated_job_id", "x"), ("utilization", 0.5), ("power_limit_w", 100.0)):
        with pytest.raises(AttributeError):
            setattr(gpu, name, value)
    assert cluster.n_free_gpus == 2
    assert cluster.it_power_w() == cluster.recompute_it_power_w()


def test_allocation_resolves_gpus_directly():
    cluster = Cluster(FacilityConfig(n_nodes=2, gpus_per_node=2))
    allocation = cluster.allocate("a", 3, utilization=0.5)
    gpus = allocation.resolve(cluster)
    assert [(g.node_id, g.index) for g in gpus] == list(allocation.gpu_locations)
    assert all(g.allocated_job_id == "a" for g in gpus)


# ---------------------------------------------------------------------------
# 3. Seeded end-to-end parity with the pre-refactor implementation
# ---------------------------------------------------------------------------

SEED = 1234
FACILITY = FacilityConfig(n_nodes=8, gpus_per_node=4)
HORIZON_H = 14 * 24.0

#: sha256 over the repr of every job record's (id, start, finish, energy, cap,
#: completed, missed-deadline) tuple, captured from the pre-refactor scan-based
#: implementation on this exact workload.  Matching hashes mean bit-identical
#: job-level outcomes.  (The hash is sensitive to libm's pow in the last ulp,
#: so an exotic platform could flip it; the tolerance assertions below are the
#: platform-independent backstop.)
PRE_REFACTOR_RECORD_HASHES = {
    "backfill": "21c6114658ebc0f853785065943f24df30bec46c86a23caeec43501a9e2d3920",
    "fifo": "52f30937aa2ca0af0d198a058a9e0335aff15de1debab2472ca8bdc6c1541dc5",
    "energy-aware": "258f7f7bd6e3f7a889c8536acb4eaedf2526020fec0d3232d61437791ce9299f",
    "carbon-aware": "9d1be27979da14dac3209677b3d8f1677d47ae2503b377e94584a659879666e8",
    "deadline-aware": "4f5bf8d9845cb2627e3c73e965ea4138c9d17fc18a1093f32ea345dba174f202",
}

#: Headline metrics captured from the pre-refactor implementation (full float
#: precision).  ``delivered_gpu_hours``/``mean_wait_h`` derive purely from job
#: records and must match exactly; the energy/cost totals integrate the power
#: series and are allowed one part in 1e12 for the delta-maintained summation.
PRE_REFACTOR_METRICS = {
    "backfill": (1812.7819959080746, 1960.7028294482975, 3744.4164705279586, 3.513885431581352),
    "fifo": (1809.5093644455555, 1955.1587878741482, 3744.4164705279586, 9.344292370784999),
    "energy-aware": (1740.3556805600206, 1882.7477169388428, 3744.4164705279586, 3.693189731961997),
    "carbon-aware": (1781.7806673142989, 1933.6299859039398, 3744.4164705279586, 3.184461630729425),
    "deadline-aware": (1828.7097834634963, 1982.8102422810566, 3744.4164705279586, 2.9088644563804165),
}

#: The pipeline spelling of each pinned policy (the defaults of the
#: pre-refactor scheduler classes the pins above were captured from).
SCHEDULERS = {
    "backfill": "backfill",
    "fifo": "fifo",
    "energy-aware": "backfill+cap(fraction=0.75)+budget",
    "carbon-aware": "backfill+carbon(cap=0.7)",
    "deadline-aware": "edf+backfill+slack(margin=2.0)",
}


@pytest.fixture(scope="module")
def parity_world():
    calendar = SimulationCalendar(start_year=2020, n_months=1)
    weather = WeatherModel(seed=SEED).hourly_temperature_c(calendar)
    grid = IsoNeLikeGrid(calendar, seed=SEED)
    generator = SuperCloudTraceGenerator(
        SuperCloudTraceConfig(facility=FACILITY),
        demand_model=DeadlineDemandModel(seed=SEED),
        seed=SEED,
    )
    jobs = generator.generate_jobs(n_jobs=200, horizon_h=HORIZON_H - 48.0)
    return weather, grid, jobs


def _records_fingerprint(result) -> str:
    records = [
        (
            record.job_id,
            record.start_time_h,
            record.finish_time_h,
            record.energy_j,
            record.power_cap_w,
            record.completed,
            record.missed_deadline,
        )
        for record in result.job_records
    ]
    return hashlib.sha256(repr(records).encode()).hexdigest()


@pytest.mark.parametrize("policy", sorted(SCHEDULERS))
def test_end_to_end_matches_pre_refactor(policy, parity_world):
    weather, grid, jobs = parity_world
    simulator = ClusterSimulator(
        Cluster(FACILITY),
        build_pipeline(SCHEDULERS[policy], name=policy),
        SimulationConfig(horizon_h=HORIZON_H),
        weather_hourly_c=weather,
        cooling=CoolingModel(),
        grid=grid,
        parity_check=True,  # recompute checkpoint verified at every change
    )
    result = simulator.run([job.clone_pending() for job in jobs])
    it_kwh, facility_kwh, delivered, mean_wait = PRE_REFACTOR_METRICS[policy]
    assert result.delivered_gpu_hours == delivered
    assert result.mean_wait_h == mean_wait
    np.testing.assert_allclose(result.it_energy_kwh, it_kwh, rtol=1e-12)
    np.testing.assert_allclose(result.facility_energy_kwh, facility_kwh, rtol=1e-12)
    assert _records_fingerprint(result) == PRE_REFACTOR_RECORD_HASHES[policy]


def test_power_series_matches_recompute_at_every_tick(parity_world):
    """The recorded tick series equals per-tick recomputes of a shadow run."""
    weather, grid, jobs = parity_world
    fast = ClusterSimulator(
        Cluster(FACILITY),
        build_pipeline("backfill", name="backfill"),
        SimulationConfig(horizon_h=HORIZON_H),
        weather_hourly_c=weather,
        cooling=CoolingModel(),
        grid=grid,
    )
    result = fast.run([job.clone_pending() for job in jobs])
    # PUE series must be exactly the vectorized curve at the tick hours.
    pue_hourly = CoolingModel().pue_series(weather)
    indices = np.minimum(np.maximum(result.tick_times_h, 0.0), HORIZON_H).astype(int)
    np.testing.assert_array_equal(result.pue, pue_hourly[indices])
    # And the final cluster state power must agree with the brute-force scan.
    np.testing.assert_allclose(
        fast.cluster.it_power_w(), brute_force_it_power(fast.cluster), rtol=1e-9
    )
