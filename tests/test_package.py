from __future__ import annotations

import cavmag

# Names that callers outside the package, the benchmark among them, read at top level.
READ_AT_TOP_LEVEL = (
    "BASELINE",
    "SweepAxis",
    "SweepSpec",
    "SweepGrid",
    "emit_csv",
    "emit_heatmap",
    "emit_lineplot",
    "entanglement_report",
    "find_temperature_threshold",
    "run_sweep",
    "solve_lyapunov",
    "steady_state_cm",
)


def test_every_exported_name_resolves_and_is_listed_once():
    assert len(set(cavmag.__all__)) == len(cavmag.__all__)
    for name in cavmag.__all__:
        assert getattr(cavmag, name) is not None, name
    assert set(READ_AT_TOP_LEVEL) <= set(cavmag.__all__)
