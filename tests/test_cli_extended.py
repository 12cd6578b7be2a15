"""Tests for the sweep/vcd CLI extensions."""

import pytest

from repro.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_sweep_block(capsys):
    code, out = run(capsys, "sweep", "block", "--sizes", "32,64")
    assert code == 0
    assert "srch cy" in out
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) == 3  # header + two sizes


def test_sweep_unit(capsys):
    code, out = run(capsys, "sweep", "unit", "--sizes", "128")
    assert code == 0
    assert "4800" in out


def test_snapshot_restore_roundtrip(tmp_path, capsys):
    path = tmp_path / "demo.camsnap"
    code, out = run(capsys, "snapshot", "--out", str(path),
                    "--entries", "64", "--seed", "7")
    assert code == 0
    assert "content hash:" in out
    code, out = run(capsys, "restore", str(path), "--verify")
    assert code == 0
    assert "verify ok" in out


@pytest.mark.parametrize("suffix", [".json", ".camsnap"])
@pytest.mark.parametrize("engine", ["cycle", "batch", "audit"])
def test_snapshot_restore_verifies_on_every_engine(tmp_path, capsys,
                                                   engine, suffix):
    """The geometry a snapshot records rebuilds a restorable CAM on
    every engine, from either codec."""
    path = tmp_path / f"demo{suffix}"
    assert run(capsys, "snapshot", "--out", str(path), "--entries", "64",
               "--engine", engine)[0] == 0
    code, out = run(capsys, "restore", str(path), "--verify")
    assert code == 0
    assert f"restored into {engine}" in out and "verify ok" in out


def test_restore_config_mismatch_exits_nonzero(tmp_path, capsys):
    """Restoring onto a session whose geometry disagrees with the
    snapshot must exit 1 with a one-line diagnostic naming both
    configs (the snapshot's and the target's)."""
    path = tmp_path / "demo.camsnap"
    assert run(capsys, "snapshot", "--out", str(path),
               "--entries", "64")[0] == 0
    code = main(["restore", str(path), "--entries", "32",
                 "--block-size", "32"])
    captured = capsys.readouterr()
    assert code == 1
    error_lines = [line for line in captured.err.splitlines()
                   if line.startswith("error:")]
    assert len(error_lines) == 1
    line = error_lines[0]
    assert "snapshot/config mismatch" in line
    assert "snapshot[kind=unit entries=64" in line
    assert "target[kind=unit entries=32" in line


def test_restore_data_width_mismatch_names_both_widths(tmp_path, capsys):
    path = tmp_path / "demo.camsnap"
    assert run(capsys, "snapshot", "--out", str(path),
               "--entries", "64")[0] == 0
    code = main(["restore", str(path), "--data-width", "16"])
    captured = capsys.readouterr()
    assert code == 1
    assert "data_width=48" in captured.err  # the snapshot's
    assert "data_width=16" in captured.err  # the target's


def test_restore_truncated_snapshot_is_a_decode_error(tmp_path, capsys):
    path = tmp_path / "demo.camsnap"
    assert run(capsys, "snapshot", "--out", str(path),
               "--entries", "64")[0] == 0
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    code = main(["restore", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "cannot decode" in captured.err


def test_vcd_command(tmp_path, capsys):
    out_file = tmp_path / "trace.vcd"
    code, out = run(capsys, "vcd", "--out", str(out_file))
    assert code == 0
    assert out_file.exists()
    text = out_file.read_text()
    assert text.startswith("$date")
    assert "$enddefinitions $end" in text
