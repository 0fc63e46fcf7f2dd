from __future__ import annotations

import pathlib
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def script_process(name: str, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *argv],
        capture_output=True,
        text=True,
        timeout=300,
    )


def run_script(name: str, *argv: str) -> None:
    proc = script_process(name, *argv)
    assert proc.returncode == 0, proc.stderr


def test_reproduce_figures_writes_csv_and_svg(tmp_path):
    run_script(
        "reproduce_figures.py",
        "--out-dir",
        str(tmp_path),
        "--resolution",
        "3",
        "--preset",
        "fig3b",
        "--preset",
        "fig2c",
    )
    for name in ("fig3b", "fig2c"):
        assert (tmp_path / f"{name}.csv").read_text().startswith("# cavmag")
        assert (tmp_path / f"{name}.svg").read_text().startswith("<svg")
    assert "<polyline" in (tmp_path / "fig3b.svg").read_text()
    assert "<polyline" not in (tmp_path / "fig2c.svg").read_text()


def test_survival_temperature_writes_csv_and_svg(tmp_path):
    run_script("survival_temperature.py", "--out-dir", str(tmp_path), "--points", "3")
    rows = (tmp_path / "survival_temperature.csv").read_text().splitlines()
    assert rows[0] == "r,threshold_K"
    assert len(rows) == 4
    assert (tmp_path / "survival_temperature.svg").read_text().startswith("<svg")


def test_survival_temperature_leaves_unentangled_r_empty(tmp_path):
    run_script(
        "survival_temperature.py", "--out-dir", str(tmp_path), "--r-min", "0", "--points", "3"
    )
    rows = (tmp_path / "survival_temperature.csv").read_text().splitlines()
    assert rows[:2] == ["r,threshold_K", "0,"]
    assert [row.split(",")[0] for row in rows[2:]] == ["1", "2"]
    assert all(float(row.split(",")[1]) > 0.0 for row in rows[2:])
    assert (tmp_path / "survival_temperature.svg").read_text().startswith("<svg")


@pytest.mark.parametrize(
    "name, option",
    [("survival_temperature.py", "--points"), ("reproduce_figures.py", "--resolution")],
)
def test_scripts_reject_a_zero_count(tmp_path, name, option):
    proc = script_process(name, "--out-dir", str(tmp_path / "out"), option, "0")
    assert proc.returncode == 2
    assert option in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()
