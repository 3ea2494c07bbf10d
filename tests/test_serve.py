"""The simulation service: daemon API, streaming, routing, restart-restore.

Each test class shares one in-process :class:`~repro.serve.ServeDaemon` on an
ephemeral port, talked to through the pure-stdlib
:class:`~repro.serve.ServeClient`.  The restart test is the subsystem's
acceptance gate: checkpoint at hour H, drop the daemon, restore into a fresh
one, advance to the horizon — the run summary must equal the uninterrupted
session's bit for bit.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

import pytest

from repro.errors import ServeError
from repro.serve import ServeClient, ServeDaemon

HORIZON_H = 72.0


@pytest.fixture()
def daemon(tmp_path):
    daemon = ServeDaemon(
        port=0,
        checkpoint_dir=str(tmp_path / "ckpt"),
        checkpoint_every_h=1000.0,  # only explicit checkpoints in tests
        request_timeout_s=30.0,
    )
    thread = threading.Thread(target=daemon.serve_forever, daemon=True)
    thread.start()
    try:
        yield daemon
    finally:
        daemon._server.shutdown()
        daemon.close()
        thread.join(timeout=5)


@pytest.fixture()
def client(daemon):
    return ServeClient(f"http://127.0.0.1:{daemon.port}")


def _create(client, session_id="s1", **extra):
    params = dict(
        session_id=session_id,
        scenario="supercloud-small",
        policy="backfill",
        horizon_h=HORIZON_H,
        preload_jobs=60,
    )
    params.update(extra)
    return client.create_session(**params)


def _raw_request(daemon, method, path, body=None, *, content_length=None):
    """One request with a hand-written body/header; returns (status, JSON payload).

    The 10 s socket timeout bounds a handler that never answers.
    """
    connection = http.client.HTTPConnection("127.0.0.1", daemon.port, timeout=10)
    try:
        data = None if body is None else body.encode()
        connection.putrequest(method, path)
        if data is not None or content_length is not None:
            length = str(len(data)) if content_length is None else content_length
            connection.putheader("Content-Length", length)
        connection.endheaders(data)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


class TestSessionLifecycle:
    def test_health_and_version(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["checkpointing"] is True
        from repro import __version__

        assert client.version()["version"] == __version__

    def test_create_advance_finalize(self, client):
        status = _create(client)
        assert status["session_id"] == "s1"
        assert status["now_h"] == 0.0
        status = client.advance("s1", until_h=24.0)
        assert status["now_h"] == 24.0
        assert status["timed_out"] is False
        assert status["ticks_recorded"] == 24
        summary = client.finalize("s1")["summary"]
        assert summary["completed_jobs"] > 0
        assert client.session_status("s1")["finalized"] is True

    def test_mid_run_submission_runs(self, client):
        _create(client, preload_jobs=0)
        client.advance("s1", until_h=10.0)
        accepted = client.submit_jobs(
            "s1",
            [{"job_id": "mid", "user_id": "u", "n_gpus": 2, "duration_h": 2.0,
              "submit_time_h": 12.0}],
        )["accepted"]
        assert accepted == 1
        client.advance("s1", until_h=HORIZON_H)
        summary = client.finalize("s1")["summary"]
        assert summary["completed_jobs"] == 1.0

    def test_sessions_share_one_world(self, daemon, client):
        _create(client, session_id="a")
        _create(client, session_id="b", policy="carbon-aware")
        assert client.health()["worlds"] == 1
        assert {s["session_id"] for s in client.list_sessions()} == {"a", "b"}
        world = daemon.manager.world_for(daemon.manager.get("a").spec)
        assert world.scenario_builds == 1

    def test_delete_session(self, client):
        _create(client)
        client.delete_session("s1")
        with pytest.raises(ServeError, match="404"):
            client.session_status("s1")

    def test_unknown_session_is_404(self, client):
        with pytest.raises(ServeError, match="404"):
            client.advance("ghost", until_h=1.0)

    def test_bad_requests_are_400(self, client):
        with pytest.raises(ServeError, match="400"):
            client.create_session(scenario="no-such-scenario")
        _create(client)
        with pytest.raises(ServeError, match="400"):
            client.submit_jobs("s1", [{"job_id": "x"}])  # missing required fields
        with pytest.raises(ServeError, match="400"):
            client.create_session(session_id="s1")  # duplicate id
        client.finalize("s1")
        with pytest.raises(ServeError, match="400"):
            client.advance("s1", until_h=80.0)  # finalized

    def test_non_finite_policy_parameter_is_400(self, client):
        with pytest.raises(ServeError, match="400.*must be finite"):
            _create(client, policy="backfill+slack(margin=nan)")

    @pytest.mark.parametrize("field", ["submit_time_h", "duration_h"])
    def test_non_finite_job_time_is_400(self, client, field):
        # json.loads accepts NaN; such a job used to hang the session's
        # event loop on the next advance.
        _create(client, preload_jobs=0)
        job = {"job_id": "j", "user_id": "u", "n_gpus": 1, "duration_h": 1.0,
               "submit_time_h": 5.0, field: float("nan")}
        with pytest.raises(ServeError, match=f"400.*{field} must be finite"):
            client.submit_jobs("s1", [job])
        assert client.advance("s1", until_h=24.0)["now_h"] == 24.0

    @pytest.mark.parametrize(
        "body",
        [
            {"until_h": "abc"},
            {"until_h": None},
            {"until_h": [1]},
            {"until_h": float("nan")},
            {"until_h": 10**400},
            {"until_h": 24.0, "deadline_s": "x"},
            {"until_h": 24.0, "deadline_s": float("nan")},
        ],
        ids=[
            "until-str", "until-null", "until-list", "until-nan", "until-overflow",
            "deadline-str", "deadline-nan",
        ],
    )
    def test_malformed_advance_is_400(self, daemon, client, body):
        _create(client, preload_jobs=0)
        status, payload = _raw_request(daemon, "POST", "/sessions/s1/advance", json.dumps(body))
        assert status == 400, payload
        assert client.advance("s1", until_h=24.0)["now_h"] == 24.0

    @pytest.mark.parametrize(
        "field, value",
        [
            ("horizon_h", "abc"),
            ("horizon_h", None),
            ("horizon_h", float("inf")),
            ("preload_jobs", "abc"),
            ("preload_jobs", [3]),
            ("tick_h", "abc"),
            ("power_cap_fraction", "abc"),
            ("facility_power_budget_w", "abc"),
        ],
    )
    def test_malformed_session_number_is_400(self, daemon, client, field, value):
        body = {"session_id": "s1", "scenario": "supercloud-small", field: value}
        status, payload = _raw_request(daemon, "POST", "/sessions", json.dumps(body))
        assert status == 400, payload
        assert field in payload["error"]
        assert client.list_sessions() == []

    @pytest.mark.parametrize("length", ["abc", "-5", "1.5"])
    def test_malformed_content_length_is_400(self, daemon, client, length):
        _create(client, preload_jobs=0)
        status, payload = _raw_request(
            daemon, "POST", "/sessions/s1/advance", "", content_length=length
        )
        assert status == 400, payload
        assert "Content-Length" in payload["error"]

    def test_duplicate_and_past_submissions_rejected(self, client):
        _create(client, preload_jobs=0)
        job = {"job_id": "j", "user_id": "u", "n_gpus": 1, "duration_h": 1.0,
               "submit_time_h": 5.0}
        client.submit_jobs("s1", [job])
        with pytest.raises(ServeError, match="duplicate"):
            client.submit_jobs("s1", [job])
        client.advance("s1", until_h=24.0)
        with pytest.raises(ServeError, match="past"):
            client.submit_jobs("s1", [dict(job, job_id="j2", submit_time_h=3.0)])


class TestTelemetry:
    def test_stream_and_resume_by_cursor(self, client):
        _create(client)
        client.advance("s1", until_h=24.0)
        rows = list(client.stream_telemetry("s1"))
        assert len(rows) == 24
        assert rows[0]["now_h"] == 0.0
        assert rows[-1]["now_h"] == 23.0
        assert all(row["facility_power_w"] >= row["it_power_w"] for row in rows)
        assert all(row["carbon_intensity_g_per_kwh"] > 0 for row in rows)
        client.advance("s1", until_h=30.0)
        tail = list(client.stream_telemetry("s1", since=len(rows)))
        assert [row["now_h"] for row in tail] == [24.0, 25.0, 26.0, 27.0, 28.0, 29.0]

    def test_since_beyond_end_of_stream_is_an_empty_200(self, client):
        _create(client)
        client.advance("s1", until_h=6.0)
        assert list(client.stream_telemetry("s1", since=6)) == []
        assert list(client.stream_telemetry("s1", since=10_000)) == []
        # The session is untouched and still streams from the top.
        assert len(list(client.stream_telemetry("s1"))) == 6

    def test_dropped_follow_reader_resumes_by_cursor(self, client):
        """A follow=1 reader that dies mid-stream reconnects with since=N."""
        _create(client)
        client.advance("s1", until_h=8.0)
        seen = []
        stream = client.stream_telemetry("s1", follow=True, max_wait_s=5.0)
        for row in stream:
            seen.append(row)
            if len(seen) == 3:
                break
        stream.close()  # drop the connection mid-stream
        client.advance("s1", until_h=12.0)
        resumed = list(client.stream_telemetry("s1", since=len(seen)))
        assert [row["now_h"] for row in seen + resumed] == [float(h) for h in range(12)]

    def test_non_integer_since_is_a_clean_400(self, client):
        from urllib import error as urlerror
        from urllib import request as urlrequest

        _create(client)
        client.advance("s1", until_h=2.0)
        for query in ("since=abc", "since=1.5", "max_wait_s=soon"):
            url = f"{client.base_url}/sessions/s1/telemetry?{query}"
            with pytest.raises(urlerror.HTTPError) as excinfo:
                urlrequest.urlopen(url, timeout=10)
            assert excinfo.value.code == 400

    @pytest.mark.parametrize("max_wait_s", ["nan", "inf", "-inf"])
    def test_non_finite_max_wait_is_400_not_a_hang(self, daemon, client, max_wait_s):
        # An unchecked NaN wait blocks the handler thread forever; the
        # client's own timeout turns that into a failure instead of a hang.
        _create(client)
        client.advance("s1", until_h=2.0)
        path = f"/sessions/s1/telemetry?follow=1&max_wait_s={max_wait_s}"
        status, payload = _raw_request(daemon, "GET", path)
        assert status == 400, payload
        assert "max_wait_s" in payload["error"]

    def test_follow_sees_rows_from_concurrent_advance(self, client):
        _create(client)
        collected = []

        def reader():
            for row in client.stream_telemetry("s1", follow=True, max_wait_s=10.0):
                collected.append(row)
                if len(collected) >= 12:
                    break

        thread = threading.Thread(target=reader)
        thread.start()
        client.advance("s1", until_h=12.0)
        thread.join(timeout=20)
        assert not thread.is_alive()
        assert len(collected) >= 12


class TestObservability:
    def test_session_uptime_and_request_counts(self, client):
        _create(client)
        status = client.session_status("s1")
        assert status["uptime_s"] >= 0.0
        assert status["requests"] >= 1  # the status read itself counts
        client.advance("s1", until_h=4.0)
        later = client.session_status("s1")
        assert later["uptime_s"] >= status["uptime_s"]
        assert later["requests"] > status["requests"]
        health = client.health()
        stats = health["session_stats"]["s1"]
        assert stats["uptime_s"] >= 0.0 and stats["requests"] >= 2
        listed = {s["session_id"]: s for s in client.list_sessions()}
        assert "uptime_s" in listed["s1"] and "requests" in listed["s1"]

    def test_metrics_endpoint_is_prometheus_text(self, daemon, client):
        from urllib import request as urlrequest

        _create(client)
        client.advance("s1", until_h=2.0)
        url = f"http://127.0.0.1:{daemon.port}/metrics"
        with urlrequest.urlopen(url, timeout=10) as resp:
            assert resp.status == 200
            assert resp.headers["Content-Type"].startswith("text/plain")
            text = resp.read().decode()
        assert "# TYPE serve_requests_total counter" in text
        assert 'route="sessions/{id}/advance"' in text  # bounded-cardinality label
        assert "serve_sessions 1.0" in text
        assert 'serve_session_now_h{session="s1"} 2.0' in text
        assert 'serve_session_requests{session="s1"}' in text
        # Scraping twice refreshes the gauges without duplicating families.
        with urlrequest.urlopen(url, timeout=10) as resp:
            again = resp.read().decode()
        assert again.count("# TYPE serve_sessions gauge") == 1

    def test_unknown_routes_share_one_metric_label(self, daemon, client):
        from urllib import error as urlerror
        from urllib import request as urlrequest

        for path in ("/nope", "/definitely/not/a/route"):
            with pytest.raises(urlerror.HTTPError):
                urlrequest.urlopen(
                    f"http://127.0.0.1:{daemon.port}{path}", timeout=10
                )
        text = (
            urlrequest.urlopen(f"http://127.0.0.1:{daemon.port}/metrics", timeout=10)
            .read()
            .decode()
        )
        assert text.count('route="other"') == 1  # one series, status=404

    def test_requests_are_traced_when_ambient_recorder_enabled(self, client):
        from repro.obs import NULL_RECORDER, TraceRecorder, recording, set_recorder

        try:
            rec = TraceRecorder()
            with recording(rec):
                client.health()
                # The handler thread closes the span just after the body is
                # flushed to the client; give it a beat to land.
                deadline = time.monotonic() + 5.0
                while not rec.spans and time.monotonic() < deadline:
                    time.sleep(0.01)
            spans = [s for s in rec.spans if s.name == "serve.request"]
            assert len(spans) == 1
            assert spans[0].attributes["route"] == "health"
            assert spans[0].attributes["status"] == 200
        finally:
            set_recorder(NULL_RECORDER)


class TestRouting:
    def test_route_prefers_empty_queue(self, client):
        _create(client, session_id="busy", preload_jobs=0)
        _create(client, session_id="idle", preload_jobs=0)
        # Saturate "busy": 30 x 4 GPUs on a 64-GPU facility leaves a queue.
        client.submit_jobs(
            "busy",
            [{"job_id": f"fill-{i}", "user_id": "u", "n_gpus": 4,
              "duration_h": 10.0, "submit_time_h": 0.5} for i in range(30)],
        )
        client.advance("busy", until_h=1.0)
        client.advance("idle", until_h=1.0)
        answer = client.route(
            {"job_id": "probe", "user_id": "u", "n_gpus": 2, "duration_h": 1.0,
             "submit_time_h": 1.0},
            router="least-queued",
        )
        assert answer["session_id"] == "idle"
        assert len(answer["candidates"]) == 2

    def test_route_respects_session_filter_and_composed_spec(self, client):
        _create(client, session_id="a")
        _create(client, session_id="b")
        answer = client.route(
            {"job_id": "probe", "user_id": "u", "n_gpus": 1, "duration_h": 1.0,
             "submit_time_h": 0.0},
            router="carbon-min+queue-cap(max=500)",
            sessions=["b"],
        )
        assert answer["session_id"] == "b"

    def test_route_without_sessions_is_400(self, client):
        with pytest.raises(ServeError, match="400"):
            client.route({"job_id": "p", "user_id": "u", "n_gpus": 1,
                          "duration_h": 1.0, "submit_time_h": 0.0})


class TestCheckpointRestore:
    def test_restart_resumes_bit_identically(self, tmp_path):
        """The acceptance gate: kill at hour 36, restore, finish — same summary."""
        ckpt = str(tmp_path / "ckpt")

        def run_daemon():
            daemon = ServeDaemon(port=0, checkpoint_dir=ckpt, request_timeout_s=30.0)
            thread = threading.Thread(target=daemon.serve_forever, daemon=True)
            thread.start()
            return daemon, ServeClient(f"http://127.0.0.1:{daemon.port}")

        # Uninterrupted reference session.
        daemon, client = run_daemon()
        _create(client, session_id="ref")
        client.advance("ref", until_h=HORIZON_H)
        reference = client.finalize("ref")["summary"]

        # Interrupted twin: advance halfway, checkpoint, drop the daemon cold.
        _create(client, session_id="twin")
        client.advance("twin", until_h=36.0)
        client.checkpoint("twin")
        daemon._server.shutdown()
        daemon.close()

        daemon, client = run_daemon()
        try:
            assert "twin" in client.health()["restored"]
            status = client.session_status("twin")
            assert status["now_h"] == 36.0
            assert status["ticks_recorded"] == 36
            client.advance("twin", until_h=HORIZON_H)
            resumed = client.finalize("twin")["summary"]
            assert resumed == reference
        finally:
            daemon._server.shutdown()
            daemon.close()

    def test_graceful_shutdown_checkpoints_sessions(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        daemon = ServeDaemon(port=0, checkpoint_dir=ckpt, request_timeout_s=30.0)
        thread = threading.Thread(target=daemon.serve_forever, daemon=True)
        thread.start()
        client = ServeClient(f"http://127.0.0.1:{daemon.port}")
        _create(client, session_id="drained")
        client.advance("drained", until_h=12.0)
        daemon.shutdown()  # the SIGTERM path: drain-checkpoint then stop
        thread.join(timeout=10)
        assert not thread.is_alive()
        daemon.close()
        assert "drained" in daemon.store.session_ids()
        payload = daemon.store.latest("drained")
        assert payload["snapshot"]["state"]["advanced_to"] == 12.0
        # And a fresh daemon restores it.
        daemon2 = ServeDaemon(port=0, checkpoint_dir=ckpt)
        assert daemon2.restored == ["drained"]
        daemon2.close()

    def test_checkpoint_disabled_without_dir(self):
        daemon = ServeDaemon(port=0, checkpoint_dir=None)
        thread = threading.Thread(target=daemon.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServeClient(f"http://127.0.0.1:{daemon.port}")
            assert client.health()["checkpointing"] is False
            _create(client)
            with pytest.raises(ServeError, match="disabled"):
                client.checkpoint("s1")
        finally:
            daemon._server.shutdown()
            daemon.close()
            thread.join(timeout=5)


class TestCli:
    def test_version_flag(self, capsys):
        from repro import __version__
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_serve_subcommand_registered(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--port", "0", "--checkpoint-dir", "/tmp/x"]
        )
        assert args.command == "serve"
        assert args.port == 0
        assert args.checkpoint_every_h == 24.0
