from __future__ import annotations

import pytest

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


# The public calls that take one object of a package type: anything else is a caller's error, ValueError.
TYPED_CALLS = (
    cavmag.steady_state_cm,
    cavmag.entanglement_report,
    cavmag.run_sweep,
    cavmag.log_negativity,
    cavmag.symplectic_eigenvalues,
)


@pytest.mark.parametrize("value", [1.0, None, "x", True], ids=repr)
@pytest.mark.parametrize("call", TYPED_CALLS, ids=lambda call: call.__name__)
def test_a_value_of_another_type_raises_value_error(call, value):
    with pytest.raises(ValueError, match=f" must be a [A-Za-z]+, not {type(value).__name__}$"):
        call(value)
