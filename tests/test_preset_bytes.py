"""Golden CSV bytes of every figure preset at resolution 7.

Unlike ``test_golden.py`` these grids run the whole pipeline, drift and
diffusion build, Lyapunov solve and negativities, so any change that
moves a preset's CSV at 9 significant digits fails here. The expected
files are ``tests/golden/preset_<name>.csv``. Regenerate them with
``python tests/test_preset_bytes.py`` only when an output change is
intended, and record that change.
"""

from __future__ import annotations

import io
import pathlib

import pytest

from cavmag.sweep import PRESET_NAMES, emit_csv, figure_preset, run_sweep

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"
RESOLUTION = 7


def preset_csv(name: str) -> str:
    buf = io.StringIO()
    emit_csv(run_sweep(figure_preset(name, RESOLUTION)), buf)
    return buf.getvalue()


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_bytes_match_golden(name):
    expected = (GOLDEN_DIR / f"preset_{name}.csv").read_bytes().decode("utf-8")
    assert preset_csv(name) == expected


if __name__ == "__main__":
    for name in PRESET_NAMES:
        path = GOLDEN_DIR / f"preset_{name}.csv"
        path.write_bytes(preset_csv(name).encode("utf-8"))
        print(f"wrote {path}")
