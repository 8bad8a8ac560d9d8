"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import main


def test_estimate_outputs_json(capsys):
    rc = main(
        [
            "estimate",
            "--L", "10000", "--fmax", "0.5", "--vs-min", "400",
        ]
    )
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["elements"] > 0
    assert out["work"] > out["elements"]


def test_mesh_command(tmp_path, capsys):
    rc = main(
        [
            "mesh",
            "--L", "8000", "--fmax", "0.25", "--vs-min", "400",
            "--h-min", "250",
            "--workdir", str(tmp_path / "db"),
            "--max-level", "5", "--blocks", "2",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "elements" in out and "node db" in out
    assert (tmp_path / "db" / "elements.etree").exists()


def test_forward_command_writes_npz(tmp_path, capsys):
    out_file = tmp_path / "run.npz"
    rc = main(
        [
            "forward",
            "--L", "2000", "--fmax", "1.0", "--vs-min", "500",
            "--h-min", "250", "--max-level", "4",
            "--t-end", "0.5",
            "--receivers", "[[1000, 1000, 0]]",
            "--out", str(out_file),
        ]
    )
    assert rc == 0
    assert out_file.exists()
    archive = np.load(out_file)
    assert archive["data"].shape[0] == 1
    assert np.isfinite(archive["data"]).all()
    assert "PGV" in capsys.readouterr().out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_submit_serve_roundtrip(tmp_path, capsys):
    spool, out_dir = str(tmp_path / "spool"), str(tmp_path / "out")
    spec_args = [
        "--L", "8000", "--fmax", "0.15", "--vs-min", "400",
        "--max-level", "3", "--t-end", "1.0",
        "--receivers", "[[4000, 4000, 0]]",
    ]
    assert main(["submit", "--spool", spool] + spec_args) == 0
    assert main(["submit", "--spool", spool] + spec_args) == 0
    out = capsys.readouterr().out
    # equal specs advertise one shared artifact key
    keys = {line.split("artifact key ")[1] for line in out.splitlines()}
    assert len(keys) == 1

    rc = main(["serve", "--spool", spool, "--out-dir", out_dir])
    assert rc == 0
    out = capsys.readouterr().out
    assert "served 2 request(s) (0 failed) in 1 batch(es)" in out
    a = np.load(out_dir + "/req-000000.npz")
    b = np.load(out_dir + "/req-000001.npz")
    # coalesced columns of one fused loop: identical requests,
    # identical bits
    assert np.array_equal(a["data"], b["data"])
    # the spool files were retired, not deleted
    assert sorted(
        f for f in (tmp_path / "spool" / "done").iterdir()
    )
    # an empty spool drains as a no-op
    assert main(["serve", "--spool", spool, "--out-dir", out_dir]) == 0


SPEC_ARGS = [
    "--L", "8000", "--fmax", "0.15", "--vs-min", "400",
    "--max-level", "3", "--t-end", "1.0",
    "--receivers", "[[4000, 4000, 0]]",
]


def test_serve_quarantines_torn_spool_json(tmp_path, capsys):
    spool, out_dir = str(tmp_path / "spool"), str(tmp_path / "out")
    assert main(["submit", "--spool", spool] + SPEC_ARGS) == 0
    # a torn write (crashed submitter, partial copy): must not wedge
    # the drain or poison the valid request alongside it
    (tmp_path / "spool" / "req-000099.json").write_text(
        '{"id": "req-000099", "spec": {'
    )
    rc = main(["serve", "--spool", spool, "--out-dir", out_dir])
    assert rc == 1
    assert "QUARANTINED" in capsys.readouterr().out
    # the valid request was still served and retired
    assert (tmp_path / "out" / "req-000000.npz").exists()
    assert (tmp_path / "spool" / "done" / "req-000000.json").exists()
    # the torn one sits in quarantine with a parse report
    q = tmp_path / "spool" / "quarantine"
    assert (q / "req-000099.json").exists()
    report = json.loads((q / "req-000099.report.json").read_text())
    assert report["stage"] == "parse"
    assert report["attempts"] == 1
    # exactly-once disposition: nothing pending anywhere
    assert not list((tmp_path / "spool").glob("req-*.json"))
    assert not list((tmp_path / "spool" / "inflight").glob("req-*"))


def test_serve_replays_claimed_inflight_requests(tmp_path, capsys):
    # a predecessor claimed the request into inflight/ and was killed
    # mid-solve; a restarted serve replays it to done/ exactly once
    spool = str(tmp_path / "spool")
    assert main(["submit", "--spool", spool] + SPEC_ARGS) == 0
    inflight = tmp_path / "spool" / "inflight"
    inflight.mkdir()
    (tmp_path / "spool" / "req-000000.json").rename(
        inflight / "req-000000.json"
    )
    rc = main(
        [
            "serve", "--spool", spool,
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    assert rc == 0
    assert (tmp_path / "out" / "req-000000.npz").exists()
    assert (tmp_path / "spool" / "done" / "req-000000.json").exists()
    assert not list(inflight.glob("req-*"))


def test_serve_injected_fault_retries_then_serves(tmp_path, monkeypatch, capsys):
    # a one-shot NaN injection fails attempt 1; the drain's retry
    # pass advances the fault plan and attempt 2 runs clean
    monkeypatch.setenv("REPRO_FAULTS", "nan:rank=0,step=1")
    spool = str(tmp_path / "spool")
    assert main(["submit", "--spool", spool] + SPEC_ARGS) == 0
    rc = main(
        [
            "serve", "--spool", spool,
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    assert rc == 0
    assert "will retry" in capsys.readouterr().out
    assert (tmp_path / "out" / "req-000000.npz").exists()
    assert (tmp_path / "spool" / "done" / "req-000000.json").exists()


def test_service_traffic_never_builds_a_worker_pool(
    tmp_path, monkeypatch, capsys
):
    """Every service request ends in the serial solver, which is why
    the service has no worker-pool failure handling.  A distributed
    service path must bring that handling back with it."""
    from repro.parallel import ProcWorld
    from repro.service import Engine
    from repro.service.server import request_from_dict

    def no_pools(self, *args, **kwargs):
        raise AssertionError("service traffic built a ProcWorld")

    monkeypatch.setattr(ProcWorld, "__init__", no_pools)
    spool = tmp_path / "spool"
    assert main(["submit", "--spool", str(spool)] + SPEC_ARGS) == 0
    rc = main(
        ["serve", "--spool", str(spool), "--out-dir", str(tmp_path / "out")]
    )
    assert rc == 0
    served = np.load(tmp_path / "out" / "req-000000.npz")

    request = request_from_dict(
        json.loads((spool / "done" / "req-000000.json").read_text())
    )
    with Engine() as engine:
        (seis,) = engine.submit_batch(
            request.spec, [request.scenario], request.t_end,
            receivers=request.receivers,
        )
    seis.save(str(tmp_path / "direct.npz"))
    direct = np.load(tmp_path / "direct.npz")
    assert np.array_equal(direct["data"], served["data"])


def test_serve_quarantines_at_max_attempts(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_FAULTS", "nan:rank=0,step=1")
    spool = str(tmp_path / "spool")
    assert main(["submit", "--spool", spool] + SPEC_ARGS) == 0
    rc = main(
        [
            "serve", "--spool", spool,
            "--out-dir", str(tmp_path / "out"),
            "--max-attempts", "1",
        ]
    )
    assert rc == 1
    q = tmp_path / "spool" / "quarantine"
    assert (q / "req-000000.json").exists()
    report = json.loads((q / "req-000000.report.json").read_text())
    assert report["stage"] == "solve"
    assert report["attempts"] == 1
    assert report["error_type"] == "PoisonedRequestError"
    assert not list((tmp_path / "spool" / "inflight").glob("req-*"))


def test_serve_exporters_and_top(tmp_path, capsys):
    # two spooled requests served with every exporter armed: both
    # request traces stitch to the batch's solve spans, the Prometheus
    # file carries the service metrics, and `top` renders the status
    from repro import telemetry

    spool, status = str(tmp_path / "spool"), str(tmp_path / "status.json")
    prom, trace = tmp_path / "prom.txt", tmp_path / "trace.jsonl"
    spec_args = ["--L", "8000", "--fmax", "0.15", "--max-level", "3",
                 "--t-end", "1.0"]
    telemetry.disable()
    try:
        assert main(["submit", "--spool", spool] + spec_args) == 0
        assert main(["submit", "--spool", spool] + spec_args
                    + ["--scenario", "northridge"]) == 0
        rc = main([
            "serve", "--spool", spool, "--out-dir", str(tmp_path / "out"),
            "--status-file", status, "--prometheus", str(prom),
            "--metrics-jsonl", str(tmp_path / "metrics.jsonl"),
            "--trace-out", str(trace), "--report",
        ])
        assert rc == 0
        recs = [json.loads(line) for line in trace.read_text().splitlines()]
        reqs = [r for r in recs if r["type"] == "request_trace"]
        links = {r["trace"]: r["parent"]
                 for r in recs if r["type"] == "trace_link"}
        assert len(reqs) == 2
        for r in reqs:
            ids = (r["trace"], links.get(r["trace"]))
            assert any(
                e["type"] == "event" and e.get("trace") in ids for e in recs
            ), f"no stitched events for {r['request']}"
        text = prom.read_text()
        assert "repro_service_latency_total" in text
        assert 'quantile="0.99"' in text
        assert "repro_service_cache_hit_ratio" in text
        capsys.readouterr()
        assert main(["top", "--status-file", status]) == 0
        assert "  queue: 0 unclaimed" in (
            capsys.readouterr().out
        )
    finally:
        telemetry.disable()
