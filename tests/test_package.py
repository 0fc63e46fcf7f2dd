from __future__ import annotations

import pytest

import cavmag
from cavmag import cvgaussian, model

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


# The calls that take an object of a package type first, by name, with valid further arguments: anything else in
# that place is a caller's error, ValueError.
TYPED_CALLS = {
    "steady_state_cm": cavmag.steady_state_cm,
    "entanglement_report": cavmag.entanglement_report,
    "run_sweep": cavmag.run_sweep,
    "log_negativity": cavmag.log_negativity,
    "symplectic_eigenvalues": cavmag.symplectic_eigenvalues,
    "reduce": lambda cm: cavmag.reduce(cm, (0,)),
    "partial_transpose": lambda cm: cavmag.partial_transpose(cm, 0),
    "two_mode_symplectic_eigenvalues": cvgaussian.two_mode_symplectic_eigenvalues,
    "thermal_pair_moments": lambda params: model.thermal_pair_moments(params, ((2, 3),)),
    "noise_moments": model.noise_moments,
}


@pytest.mark.parametrize("value", [1.0, None, "x", True], ids=repr)
@pytest.mark.parametrize("call", TYPED_CALLS.values(), ids=TYPED_CALLS)
def test_a_value_of_another_type_raises_value_error(call, value):
    with pytest.raises(ValueError, match=f" must be a [A-Za-z]+, not {type(value).__name__}$"):
        call(value)
