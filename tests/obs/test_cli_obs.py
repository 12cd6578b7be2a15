"""CLI surface of the telemetry subsystem."""

import json

import pytest

from repro import obs
from repro.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version_reports_package_and_git(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--version"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("repro ")
    assert obs.package_version() in out


def test_metrics_command_emits_both_formats(capsys):
    code, out, _ = run(capsys, "demo", "--metrics", "both")
    assert code == 0
    # Prometheus side: counters with engine labels and a histogram.
    assert "# TYPE cam_searches_total counter" in out
    assert 'cam_searches_total{engine="cycle"}' in out
    assert "cam_search_latency_cycles_bucket" in out
    assert "cam_unit_utilisation" in out
    # JSON side parses and carries the same families.
    json_start = out.index('{\n  "meta"')
    snapshot = json.loads(out[json_start:])
    names = {metric["name"] for metric in snapshot["metrics"]}
    assert "cam_searches_total" in names
    assert "cam_update_latency_cycles" in names


def test_metrics_command_json_only(capsys):
    code, out, _ = run(capsys, "demo", "--metrics", "json",
                       "--engine", "batch")
    assert code == 0
    snapshot = json.loads(out[out.index('{\n  "meta"'):])
    families = {m["name"]: m for m in snapshot["metrics"]}
    assert families["cam_searches_total"]["samples"][0]["labels"] == {
        "engine": "batch"
    }


def test_trace_command_writes_loadable_chrome_json(tmp_path, capsys):
    out_path = tmp_path / "trace.json"
    code, out, _ = run(capsys, "demo", "--trace-out", str(out_path))
    assert code == 0
    trace = json.loads(out_path.read_text())
    events = trace["traceEvents"]
    spans = [e for e in events if e.get("ph") == "X"]
    assert {"session.update", "session.search"} <= {e["name"] for e in spans}
    # The sim waveform is unified onto its own track.
    sim_events = [e for e in events if e.get("cat") == "sim"]
    assert sim_events


def test_demo_trace_and_manifest(tmp_path, capsys):
    trace_path = tmp_path / "demo_trace.json"
    manifest_path = tmp_path / "demo_manifest.json"
    code, out, _ = run(
        capsys, "demo", "--engine", "batch",
        "--trace-out", str(trace_path),
        "--manifest-out", str(manifest_path),
    )
    assert code == 0
    assert "wrote manifest" in out
    manifest = obs.load_manifest(str(manifest_path))
    assert manifest["name"] == "cli_demo"
    assert manifest["config"]["engine"] == "batch"
    assert manifest["timings"]["wall_s"] > 0
    names = {m["name"] for m in manifest["metrics"]["metrics"]}
    assert "cam_updates_total" in names
    trace = json.loads(trace_path.read_text())
    assert any(e.get("ph") == "X" for e in trace["traceEvents"])


@pytest.mark.parametrize("argv", [
    ["demo", "--groups", "3", "--manifest-out"],
    ["audit", "--operations", "0", "--trace-out"],
])
def test_failed_command_switches_telemetry_off(tmp_path, capsys, argv):
    code, _out, err = run(capsys, *argv, str(tmp_path / "out.json"))
    assert code == 1 and "error" in err
    assert not obs.enabled()


def test_validate_manifest_command(tmp_path, capsys):
    path = obs.write_manifest(
        obs.build_manifest(name="smoke", timings={"t": 0.1}),
        str(tmp_path),
    )
    code, out, _ = run(capsys, "validate-manifest", path)
    assert code == 0
    assert "valid" in out

    bad = tmp_path / "BENCH_bad.json"
    bad.write_text("{}")
    code, _out, err = run(capsys, "validate-manifest", str(bad))
    assert code == 1
    assert "error" in err


@pytest.mark.slow
def test_tc_trace_out_has_nested_pipeline_spans(tmp_path, capsys):
    trace_path = tmp_path / "tc_trace.json"
    code, out, _ = run(
        capsys, "tc", "--dataset", "facebook_combined",
        "--max-edges", "1000", "--trace-out", str(trace_path),
    )
    assert code == 0
    assert "functional cross-check" in out
    trace = json.loads(trace_path.read_text())
    spans = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
    names = {e["name"] for e in spans}
    assert {"tc.dataset", "tc.cost_model", "tc.verify", "tc.intersect"} <= names
    assert any(name.startswith("session.") for name in names)
    assert any(name.startswith("unit.") for name in names)

    def contains(outer, inner):
        return (outer["ts"] <= inner["ts"] and inner["ts"] + inner["dur"]
                <= outer["ts"] + outer["dur"] + 1e-6)

    verify = next(e for e in spans if e["name"] == "tc.verify")
    intersects = [e for e in spans if e["name"] == "tc.intersect"]
    sessions = [e for e in spans if e["name"].startswith("session.")]
    assert any(contains(verify, e) for e in intersects)
    assert any(contains(i, s) for i in intersects for s in sessions)
