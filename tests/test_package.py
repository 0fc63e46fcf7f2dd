from __future__ import annotations

import inspect
import io
import math
import sys

import numpy as np
import pytest

import cavmag
from cavmag import CavmagError, cli, cvgaussian, model

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


# A valid call of every callable that cavmag exports and of cli.main, by name: the callable and every positional
# argument it takes (the exception types take none of their own).
_B = cavmag.BASELINE
_SPEC = cavmag.SweepSpec(_B, cavmag.SweepAxis("r", (0.1, 0.2)), None, ("E_mm",))
_GRID = cavmag.run_sweep(_SPEC)
_GRID2 = cavmag.run_sweep(cavmag.SweepSpec(_B, _SPEC.axis1, cavmag.SweepAxis("temperature", (0.0, 0.1)), ("E_mm",)))
_CM = cavmag.steady_state_cm(_B)
VALID_CALLS = {
    "CovarianceMatrix": (cavmag.CovarianceMatrix, (np.eye(2) / 2, ("a",))),
    "EntanglementReport": (cavmag.EntanglementReport, (0.0,) * 6),
    "SweepAxis": (cavmag.SweepAxis, ("r", (1.0,))),
    "SweepGrid": (cavmag.SweepGrid, (_SPEC, dict(_GRID.columns), ())),
    "SweepSpec": (cavmag.SweepSpec, (_B, cavmag.SweepAxis("r", (0.1,)), None, ("E_mm",), "x")),
    "SystemParams": (cavmag.SystemParams, tuple(getattr(_B, name) for name in model._FIELD_RULES)),
    "emit_csv": (cavmag.emit_csv, (_GRID, io.StringIO())),
    "emit_heatmap": (cavmag.emit_heatmap, (_GRID2, "E_mm", io.StringIO())),
    "emit_lineplot": (cavmag.emit_lineplot, (_GRID, io.StringIO(), ("E_mm",))),
    "entanglement_report": (cavmag.entanglement_report, (_B,)),
    "figure_preset": (cavmag.figure_preset, ("fig2c", 3, _B)),
    "find_temperature_threshold": (cavmag.find_temperature_threshold, (_B.replace(r=0.4), 2.0, 1e-2)),
    "log_negativity": (cavmag.log_negativity, (cavmag.reduce(_CM, (2, 3)),)),
    "partial_transpose": (cavmag.partial_transpose, (cavmag.reduce(_CM, (2, 3)), 0)),
    "reduce": (cavmag.reduce, (_CM, (2, 3))),
    "run_sweep": (cavmag.run_sweep, (_SPEC,)),
    "solve_lyapunov": (cavmag.solve_lyapunov, (-np.eye(2), np.eye(2), True)),
    "steady_state_cm": (cavmag.steady_state_cm, (_B,)),
    "symplectic_eigenvalues": (cavmag.symplectic_eigenvalues, (_CM,)),
    "cli.main": (cli.main, (["list-presets"],)),
}
# Values of every kind that a caller may pass by mistake.
HOSTILE = [True, "x", b"x", None, 10**400, math.nan, math.inf, np.float64(1.0), np.array(1.0), np.array([1.0, 2.0]),
           [1.0], {"a": 1}, 1j]


def test_the_valid_calls_cover_every_exported_callable_and_its_positional_arguments():
    exported = {name for name in cavmag.__all__ if callable(getattr(cavmag, name))}
    errors = {name for name in exported if isinstance(getattr(cavmag, name), type)
              and issubclass(getattr(cavmag, name), Exception)}
    assert set(VALID_CALLS) == exported - errors | {"cli.main"}
    for name, (call, args) in VALID_CALLS.items():
        assert len(args) == len(inspect.signature(call).parameters), name


@pytest.mark.parametrize(
    "name,index", [(name, i) for name, (_, args) in VALID_CALLS.items() for i in range(len(args))]
)
def test_any_value_in_any_argument_raises_nothing_or_value_error(name, index, monkeypatch, capsys, tmp_path):
    # A caller's mistake is ValueError, or the CavmagError of a valid input the model cannot solve.
    monkeypatch.setattr(sys, "argv", ["cavmag", "list-presets"])  # what cli.main(None) reads
    monkeypatch.chdir(tmp_path)  # an emitter given "x" or b"x" writes the file x
    call, args = VALID_CALLS[name]
    call(*args)
    for value in HOSTILE:
        try:
            call(*args[:index], value, *args[index + 1:])
        except (ValueError, CavmagError):
            pass
