from __future__ import annotations

import dataclasses
import functools
import io
import itertools
import math
import os
import re
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cavmag import linsys, model
from cavmag.cvgaussian import STATE_CHECK_SLACK
from cavmag.errors import CavmagError, NoEntanglementError, NumericalFailureError
from cavmag.model import BASELINE, SystemParams
from cavmag.sweep import (
    COLOR_ANCHORS,
    DEFAULT_RESOLUTION_1D,
    DEFAULT_RESOLUTION_2D,
    NAN_FILL,
    OUTPUT_COLUMNS,
    PARAMETER_PATHS,
    PRESET_NAMES,
    SweepAxis,
    SweepGrid,
    SweepSpec,
    _grid_fields,
    apply_parameter,
    color_for,
    emit_csv,
    emit_heatmap,
    emit_lineplot,
    figure_preset,
    find_temperature_threshold,
    parse_config,
    render_lines,
    run_sweep,
    summarize_point,
)
from cavmag.model import entanglement_report

from conftest import STAGES_UNCALLED, outcome, state_nu_min
from oracles import color_by_cell, fields_of, grid_points, threshold_by_full_solves, threshold_by_steps

# One batch of points: one closed-form call for its pairs, and no spectrum of its states.
ONE_BATCH = dict(_closed_form=1, symplectic_spectra=0)

UNIT = BASELINE.kappa_a[0]


def tiny_spec(**kwargs) -> SweepSpec:
    defaults = dict(
        base=BASELINE,
        axis1=SweepAxis("r", (0.0, 1.0)),
        axis2=None,
        outputs=("E_mm",),
        name="tiny",
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


# Asymmetric operating point: unequal drives, cavity linewidths and couplings, every mode detuned.
DRIVE = (BASELINE.omega_drive[0], BASELINE.omega_drive[1] + 3.3 * UNIT)
ASYMMETRIC = BASELINE.replace(
    omega_drive=DRIVE,
    omega_a=(DRIVE[0] + 0.31 * UNIT, DRIVE[1] - 0.17 * UNIT),
    omega_m=(DRIVE[0] - 0.23 * UNIT, DRIVE[1] + 0.41 * UNIT),
    kappa_a=(UNIT, 1.37 * UNIT),
    kappa_m=(0.13 * UNIT, 0.29 * UNIT),
    g=(3.1 * UNIT, 4.7 * UNIT),
    r=0.6,
    theta=0.4,
    temperature=0.07,
)


def expected_fields(p: SystemParams, path: str, x: float) -> dict:
    """The fields ``path`` writes on ``p``, each in the order of operations of its definition."""
    k, w = p.kappa_a[0], p.omega_drive
    hz = (2.0 * math.pi * x, 2.0 * math.pi * x)
    return {
        "r": dict(r=x),
        "theta": dict(theta=x),
        "temperature": dict(temperature=x),
        "delta_a1": dict(omega_a=(w[0] + x * k, p.omega_a[1])),
        "delta_a2": dict(omega_a=(p.omega_a[0], w[1] + x * k)),
        "delta_m1": dict(omega_m=(w[0] + x * k, p.omega_m[1])),
        "delta_m2": dict(omega_m=(p.omega_m[0], w[1] + x * k)),
        "g1": dict(g=(x * k, p.g[1])),
        "g2": dict(g=(p.g[0], x * k)),
        "g": dict(g=(x * k, x * k)),
        "g2_over_g1": dict(g=(p.g[0], x * p.g[0])),
        "kappa_m1": dict(kappa_m=(x * k, p.kappa_m[1])),
        "kappa_m2": dict(kappa_m=(p.kappa_m[0], x * k)),
        "kappa_m": dict(kappa_m=(x * k, x * k)),
        "kappa_a2": dict(kappa_a=(p.kappa_a[0], x * k)),
        "kappa_a_hz": dict(kappa_a=hz),
        "omega_a_hz": dict(omega_a=hz, omega_m=hz, omega_drive=hz),
    }[path]


# A value per path, none of them exact in binary: detunings of either sign, rates and Hz positive.
PATH_VALUES = {
    "r": 0.37, "theta": -1.13, "temperature": 0.021,
    "delta_a1": 0.29, "delta_a2": -0.61, "delta_m1": -0.43, "delta_m2": 0.77,
    "g1": 2.3, "g2": 3.9, "g": 1.7, "g2_over_g1": 0.83,
    "kappa_m1": 0.11, "kappa_m2": 0.53, "kappa_m": 0.31, "kappa_a2": 1.9,
    "kappa_a_hz": 7.3e6, "omega_a_hz": 9.7e9,
}


class TestApplyParameter:
    @pytest.mark.parametrize("base", [BASELINE, ASYMMETRIC], ids=["baseline", "asymmetric"])
    @pytest.mark.parametrize("path", sorted(PATH_VALUES))
    def test_each_path_writes_its_fields_bit_for_bit(self, base, path):
        x = PATH_VALUES[path]
        changed = apply_parameter(base, path, x)
        expected = dataclasses.replace(base, **expected_fields(base, path, x))
        for field in dataclasses.fields(SystemParams):
            assert getattr(changed, field.name) == getattr(expected, field.name), field.name

    def test_every_path_is_covered(self):
        assert set(PATH_VALUES) == set(PARAMETER_PATHS)

    def test_direct_fields(self):
        assert apply_parameter(BASELINE, "r", 0.4).r == 0.4
        assert apply_parameter(BASELINE, "theta", 0.7).theta == 0.7
        assert apply_parameter(BASELINE, "temperature", 0.2).temperature == 0.2

    def test_detuning_in_cavity_linewidth_units(self):
        p = apply_parameter(BASELINE, "delta_a1", 0.3)
        assert p.delta_a[0] == pytest.approx(0.3 * UNIT, rel=1e-9)
        assert p.delta_a[1] == 0.0
        p = apply_parameter(BASELINE, "delta_m2", -0.5)
        assert p.delta_m[1] == pytest.approx(-0.5 * UNIT, rel=1e-9)

    def test_coupling_in_cavity_linewidth_units(self):
        p = apply_parameter(BASELINE, "g", 2.0)
        assert p.g == (pytest.approx(2.0 * UNIT), pytest.approx(2.0 * UNIT))
        p = apply_parameter(BASELINE, "g2", 3.0)
        assert p.g[0] == BASELINE.g[0]
        assert p.g[1] == pytest.approx(3.0 * UNIT)

    def test_coupling_ratio(self):
        p = apply_parameter(BASELINE, "g2_over_g1", 0.5)
        assert p.g[1] / p.g[0] == pytest.approx(0.5, rel=1e-12)
        assert p.g[0] == BASELINE.g[0]

    def test_magnon_linewidth(self):
        p = apply_parameter(BASELINE, "kappa_m", 0.7)
        assert p.kappa_m == (pytest.approx(0.7 * UNIT), pytest.approx(0.7 * UNIT))

    def test_absolute_frequency_paths(self):
        p = apply_parameter(BASELINE, "kappa_a_hz", 7e6)
        assert p.kappa_a[0] == pytest.approx(2.0 * math.pi * 7e6, rel=1e-12)
        p = apply_parameter(BASELINE, "omega_a_hz", 9e9)
        assert p.omega_a[0] == pytest.approx(2.0 * math.pi * 9e9, rel=1e-12)
        assert p.delta_a == (0.0, 0.0)

    def test_unknown_path_lists_known_paths(self):
        with pytest.raises(ValueError, match="kappa_m"):
            apply_parameter(BASELINE, "bogus", 1.0)

    def test_nonfinite_value_rejected(self):
        with pytest.raises(ValueError):
            apply_parameter(BASELINE, "r", math.nan)
        with pytest.raises(ValueError, match="must be finite"):
            apply_parameter(BASELINE, "r", 10**400)

    @pytest.mark.parametrize(("path", "value"), [("r", "0.5"), ("r", True), ("g", b"2")])
    def test_non_number_value_rejected(self, path, value):
        with pytest.raises(ValueError, match="must be a real number"):
            apply_parameter(BASELINE, path, value)

    def test_original_untouched(self):
        apply_parameter(BASELINE, "r", 0.123)
        assert BASELINE.r == 1.0

    def test_every_registered_path_is_callable(self):
        for path in PARAMETER_PATHS:
            apply_parameter(BASELINE, path, 0.5)


class TestParseConfig:
    def test_valid_file(self):
        text = "# drive\nparams.r = 0.4\n\nparams.temperature = 0.1\nparams.g = 2\n"
        assert parse_config(text) == [("r", 0.4), ("temperature", 0.1), ("g", 2.0)]

    def test_empty_text(self):
        assert parse_config("") == []
        assert parse_config("# only comments\n\n") == []

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("params.r 0.4", "line 1"),
            ("r = 0.4", "section.key"),
            ("drive.r = 0.4", "unknown section"),
            ("params.bogus = 1", "unknown parameter path"),
            ("params.r = twelve", "not a number"),
            ("params.r = 1\nparams.g = oops", "line 2"),
        ],
    )
    def test_errors_carry_line_numbers(self, text, fragment):
        with pytest.raises(ValueError, match=fragment):
            parse_config(text)

    def test_later_line_wins(self):
        assert parse_config("params.r = 1\nparams.r = 2\n") == [("r", 1.0), ("r", 2.0)]


class TestAxisAndSpecValidation:
    def test_axis_rejects_unknown_path(self):
        with pytest.raises(ValueError, match="unknown parameter path"):
            SweepAxis("bogus", (0.0, 1.0))

    def test_axis_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            SweepAxis("r", ())
        with pytest.raises(ValueError):
            SweepAxis("r", (0.0, math.inf))
        with pytest.raises(ValueError, match="must be finite"):
            SweepAxis("r", (0, 10**400))
        for values in ("12", b"12"):
            with pytest.raises(ValueError, match="not a string"):
                SweepAxis("r", values)
        for values in (5, 0.5, None, (True, False), ("0.5", "1")):
            with pytest.raises(ValueError):
                SweepAxis("r", values)

    def test_axis_requires_strict_monotonicity(self):
        with pytest.raises(ValueError, match="monotone"):
            SweepAxis("r", (0.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="monotone"):
            SweepAxis("r", (0.0, 2.0, 1.0))
        SweepAxis("r", (2.0, 1.0, 0.0))

    def test_spec_rejects_bad_outputs(self):
        with pytest.raises(ValueError, match="valid columns"):
            tiny_spec(outputs=("bogus",))
        with pytest.raises(ValueError, match="unique"):
            tiny_spec(outputs=("E_mm", "E_mm"))
        with pytest.raises(ValueError, match="at least one"):
            tiny_spec(outputs=())
        for outputs in ("E_mm", b"E_mm", 5, None):
            with pytest.raises(ValueError, match="outputs must be a sequence of column names"):
                tiny_spec(outputs=outputs)

    def test_spec_rejects_duplicate_axis_path(self):
        with pytest.raises(ValueError, match="different parameter path"):
            tiny_spec(axis2=SweepAxis("r", (0.0, 1.0)))

    @pytest.mark.parametrize(
        "change",
        [dict(axis1=None), dict(axis1=("r", (0.0, 1.0))), dict(axis2=("g", (1.0, 2.0))),
         dict(base=dataclasses.asdict(BASELINE)), dict(base=None)],
        ids=["axis1-None", "axis1-tuple", "axis2-tuple", "base-dict", "base-None"],
    )
    def test_spec_rejects_a_base_or_axis_of_the_wrong_type(self, change):
        with pytest.raises(ValueError, match="SweepAxis|SystemParams"):
            tiny_spec(**change)

    @pytest.mark.parametrize("name", [5, None, b"fig2c", "a<b & c\nrow", "tab\tname", "nul\x00", "line\u2028break"])
    def test_spec_rejects_a_name_that_is_not_printable_text(self, name):
        with pytest.raises(ValueError, match="name must be printable text"):
            tiny_spec(name=name)

    def test_shape(self):
        assert tiny_spec().shape == (2,)
        assert tiny_spec(axis2=SweepAxis("g", (1.0, 2.0, 3.0))).shape == (2, 3)


class TestSummarizePoint:
    def test_matches_full_report_at_baseline(self):
        cell = summarize_point(BASELINE)
        rep = entanglement_report(BASELINE)
        assert cell.E_aa == rep.E_aa
        assert cell.E_mm == rep.E_mm
        assert cell.E_a1m1 == rep.E_a1m1
        assert cell.E_a2m2 == rep.E_a2m2
        assert cell.N_am == rep.N_am

    def test_ratio_column(self):
        cell = summarize_point(BASELINE.replace(r=0.5, temperature=0.1))
        assert cell.E_mm_over_E_aa == pytest.approx(cell.E_mm / cell.E_aa, rel=1e-12)

    def test_ratio_is_nan_where_drive_is_off(self):
        cell = summarize_point(BASELINE.replace(r=0.0))
        assert cell.E_aa == 0.0
        assert math.isnan(cell.E_mm_over_E_aa)

    def test_state_is_reported_physical(self):
        summarize_point(BASELINE)
        assert state_nu_min([BASELINE])[0] >= 0.5 - 1e-9

    def test_cavity_magnon_indicator_negative_on_resonance(self):
        cell = summarize_point(BASELINE)
        assert cell.N_am < 0.0
        assert cell.E_a1m1 == 0.0

    @given(
        r=st.floats(0.0, 8.0),
        temperature=st.floats(0.0, 5.0),
        log_kappa_m=st.floats(-9.0, 1.0),
        g=st.one_of(st.just(0.0), st.floats(0.0, 20.0)),
        detunings=st.tuples(*[st.floats(-50.0, 50.0)] * 4),
        theta=st.floats(-math.pi, math.pi),
        g_ratio=st.floats(0.0, 3.0),
    )
    @settings(max_examples=300)
    def test_wide_box_gives_finite_values_or_typed_error(
        self, r, temperature, log_kappa_m, g, detunings, theta, g_ratio
    ):
        params = BASELINE
        knobs = [
            ("r", r),
            ("temperature", temperature),
            ("theta", theta),
            ("kappa_m", 10.0**log_kappa_m),
            ("g", g),
            ("g2_over_g1", g_ratio),
        ]
        knobs += list(zip(("delta_a1", "delta_a2", "delta_m1", "delta_m2"), detunings))
        for path, value in knobs:
            params = apply_parameter(params, path, value)
        try:
            cell = summarize_point(params)
        except CavmagError:
            return
        values = [cell.E_aa, cell.E_mm, cell.E_a1m1, cell.E_a2m2, cell.N_am]
        assert all(math.isfinite(v) for v in values)
        assert math.isfinite(cell.E_mm_over_E_aa) or cell.E_aa == 0.0
        # Where the pairs resolve, so does the state's own spectrum, and it is physical.
        assert state_nu_min([params])[0] >= 0.5 - STATE_CHECK_SLACK

    @given(r=st.floats(0.0, 8.0), theta=st.floats(-math.pi, math.pi))
    @example(r=4.4, theta=0.0)
    @example(r=4.4, theta=math.pi / 4.0)
    @settings(max_examples=150)
    def test_decoupled_cavity_negativity_is_twice_r(self, r, theta):
        # Below r = 4.4 the eigen-solve resolves nu_min = exp(-2r)/2 to
        # the 1e-8 bound; above it the result is exact or refused.
        params = BASELINE.replace(r=r, theta=theta, g=(0.0, 0.0))
        try:
            e_aa = summarize_point(params).E_aa
        except NumericalFailureError:
            assert r > 4.4
            return
        assert e_aa == pytest.approx(2.0 * r, abs=1e-8)


# Random valid bases: knobs of BASELINE set in turn, the absolute linewidth scale first.
BASES = st.fixed_dictionaries({
    "kappa_a_hz": st.floats(1e-3, 1e9),
    "kappa_a2": st.floats(0.1, 10.0),
    **dict.fromkeys(("kappa_m1", "kappa_m2"), st.floats(1e-9, 10.0)),
    **dict.fromkeys(("g1", "g2"), st.one_of(st.just(-0.0), st.floats(0.0, 20.0))),
    **dict.fromkeys(("delta_a1", "delta_a2", "delta_m1", "delta_m2"), st.floats(-5.0, 5.0)),
    "r": st.one_of(st.just(-0.0), st.floats(0.0, 3.0)),
    "theta": st.floats(-4.0, 4.0),
    "temperature": st.one_of(st.just(-0.0), st.floats(0.0, 1e3)),
}).map(lambda knobs: functools.reduce(lambda p, knob: apply_parameter(p, *knob), knobs.items(), BASELINE))
# Axis values, good and bad for some path: negative, zero of either sign, subnormal, and large enough for a
# product with a rate to overflow. Strictly monotone, as SweepAxis requires.
AXIS_VALUES = st.lists(
    st.one_of(st.sampled_from((-1.0, -0.0, 0.0, 5e-324, 0.5, 2.0, 1e300, 1.7e308)), st.floats(-3.0, 3.0)),
    min_size=1, max_size=3, unique=True,
).map(sorted)


def stacks_or_error(build):
    """The bytes of each cell's drift and diffusion from ``build()``, or the type and message of what it raises;
    no warning. The drifts are broadcast to the cells, as the solve broadcasts them."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a, d, _ = model._stacks(build())
    except Exception as exc:  # noqa: BLE001 - the type is compared
        return type(exc), str(exc)
    return np.broadcast_to(a, d.shape).tobytes(), d.tobytes()


class TestGridBuild:
    """The array-native grid build against the per-cell build of ``oracles.grid_points``."""

    @given(base=BASES, values1=AXIS_VALUES, values2=AXIS_VALUES.map(lambda values: values[::-1]))
    @settings(max_examples=25)
    def test_every_path_pair_equals_the_per_cell_build(self, base, values1, values2):
        # Each single-axis grid and each ordered pair of distinct paths: equal stacks bit for bit, or the same
        # error, from the first bad cell in row-major order and its first bad field.
        singles = [(path, None) for path in PARAMETER_PATHS]
        for path1, path2 in singles + list(itertools.permutations(PARAMETER_PATHS, 2)):
            spec = SweepSpec(base, SweepAxis(path1, values1), path2 and SweepAxis(path2, values2), ("E_mm",))
            expected = stacks_or_error(lambda: fields_of(grid_points(spec)))
            assert stacks_or_error(lambda: _grid_fields(spec)) == expected, (path1, path2)

    @pytest.mark.parametrize(
        "axis1,axis2,error",
        [
            (("g", (0.0, -1.0)), None, "coupling rates must be nonnegative"),
            (("r", (0.5, 1.0)), ("kappa_m", (-0.0, 1.0)), "kappa_m must be strictly positive"),
            (("kappa_m1", (1.0, 2.0)), ("g2_over_g1", (1.0, 1.7e308)), "g must be finite"),
            (("temperature", (1.0, 2.0)), ("omega_a_hz", (-1.0, 1.0)), "omega_a must be strictly positive"),
        ],
    )
    def test_a_bad_cell_raises_what_its_system_params_raises(self, axis1, axis2, error):
        spec = SweepSpec(ASYMMETRIC, SweepAxis(*axis1), axis2 and SweepAxis(*axis2), ("E_mm",))
        for build in (lambda: grid_points(spec), lambda: _grid_fields(spec), lambda: run_sweep(spec)):
            with pytest.raises(ValueError) as raised:
                build()
            assert str(raised.value) == error


class TestRunSweep:
    def test_single_cell_equals_direct_summary(self):
        spec = tiny_spec(axis1=SweepAxis("r", (0.7,)))
        grid = run_sweep(spec)
        assert all(grid.value_array(column).shape == (1,) for column in OUTPUT_COLUMNS)
        direct = summarize_point(BASELINE.replace(r=0.7))
        assert [grid.value_array(column)[0] for column in OUTPUT_COLUMNS] == list(dataclasses.astuple(direct))

    def test_row_major_ordering(self):
        spec = tiny_spec(
            axis1=SweepAxis("r", (0.2, 0.8)),
            axis2=SweepAxis("temperature", (0.0, 0.1, 0.2)),
        )
        grid = run_sweep(spec)
        assert grid.value_array("E_mm").shape == (2, 3)
        for i, r in enumerate(spec.axis1.values):
            for j, t in enumerate(spec.axis2.values):
                direct = summarize_point(BASELINE.replace(r=r, temperature=t))
                assert grid.value_array("E_mm")[i, j] == direct.E_mm

    def test_value_array_shapes(self):
        grid1 = run_sweep(tiny_spec(axis1=SweepAxis("r", (0.0, 0.5, 1.0))))
        assert grid1.value_array("E_mm").shape == (3,)
        grid2 = run_sweep(
            tiny_spec(axis1=SweepAxis("r", (0.0, 1.0)), axis2=SweepAxis("g", (2.0, 5.0)))
        )
        assert grid2.value_array("E_mm").shape == (2, 2)
        with pytest.raises(ValueError):
            grid2.value_array("bogus")

    def test_grid_holds_a_read_only_copy_of_each_column(self):
        spec = tiny_spec(axis1=SweepAxis("r", (0.0, 1.0)), axis2=SweepAxis("g", (2.0, 5.0, 7.0)))
        source = np.arange(6.0)
        grid = SweepGrid(spec=spec, columns=dict.fromkeys(OUTPUT_COLUMNS, source), provenance=())
        source[0] = -1.0
        assert grid.value_array("E_aa")[0, 0] == 0.0 and grid.value_array("N_am").shape == (2, 3)
        with pytest.raises(ValueError, match="read-only"):
            grid.value_array("E_mm")[0, 0] = 1.0
        with pytest.raises(ValueError, match="one array per column"):
            SweepGrid(spec=spec, columns=dict.fromkeys(OUTPUT_COLUMNS[1:], source), provenance=())
        with pytest.raises(ValueError):
            SweepGrid(spec=spec, columns=dict.fromkeys(OUTPUT_COLUMNS, source[:5]), provenance=())

    @pytest.mark.parametrize(
        "provenance", ["abc", b"abc", 5, None, ("note\nrow",), (5,), ("tab\there",), ("line\u2028break",)]
    )
    def test_grid_rejects_provenance_that_is_not_printable_lines(self, provenance):
        columns = dict.fromkeys(OUTPUT_COLUMNS, np.zeros(2))
        with pytest.raises(ValueError, match="provenance"):
            SweepGrid(spec=tiny_spec(), columns=columns, provenance=provenance)

    def test_grid_keeps_provenance_lines_as_a_tuple(self):
        columns = dict.fromkeys(OUTPUT_COLUMNS, np.zeros(2))
        grid = SweepGrid(spec=tiny_spec(), columns=columns, provenance=iter(["a <b>", ""]))
        assert grid.provenance == ("a <b>", "")
        buf = io.StringIO()
        emit_csv(grid, buf)
        assert buf.getvalue().startswith("# a <b>\n# \naxis1,E_mm,stable\n")

    def test_repeated_runs_give_identical_results(self):
        spec = figure_preset("fig2c", resolution=5)
        first = run_sweep(spec)
        second = run_sweep(spec)
        for column in OUTPUT_COLUMNS:
            assert np.array_equal(
                first.value_array(column), second.value_array(column), equal_nan=True
            )

    def test_shared_drift_grid_costs_one_solve(self, calls):
        axis1 = SweepAxis("r", tuple(np.linspace(0.0, 2.0, 5)))
        run_sweep(tiny_spec(axis1=axis1, axis2=SweepAxis("temperature", tuple(np.linspace(0.0, 1.0, 5)))))
        # 25 cells on one drift: its six members solved, no back-substitution per cell.
        expected = dict(solve_lyapunov=1, _stacks=1, _real_schur=1, _triangular_solve=6, **ONE_BATCH)
        assert calls == dict(STAGES_UNCALLED, **expected)

    def test_varying_drift_grid_costs_one_solve_per_cell(self, calls):
        axis1 = SweepAxis("kappa_m", tuple(np.linspace(0.01, 1.0, 5)))
        run_sweep(tiny_spec(axis1=axis1, axis2=SweepAxis("g", tuple(np.linspace(0.0, 10.0, 5)))))
        expected = dict(solve_lyapunov=1, _stacks=1, _real_schur=25, _triangular_solve=25, **ONE_BATCH)
        assert calls == dict(STAGES_UNCALLED, **expected)

    @pytest.mark.parametrize(
        "spec,schur,trsyl",
        [
            # One drift serving 64 cells: its six members, not a back-substitution per cell.
            (tiny_spec(axis1=SweepAxis("r", tuple(np.linspace(0.0, 2.0, 8))),
                       axis2=SweepAxis("temperature", tuple(np.linspace(0.0, 1.0, 8)))), 1, 6),
            (figure_preset("fig3a", 7), 7, 42),  # 7 drifts (g2/g1), 7 cells each
            (figure_preset("fig3b", 7), 3, 18),  # 3 drifts (g), 7 cells each
            (tiny_spec(axis1=SweepAxis("g", tuple(np.linspace(0.5, 8.0, 8))),
                       axis2=SweepAxis("r", tuple(np.linspace(0.0, 2.0, 8)))), 8, 48),  # a drift per row
            (tiny_spec(axis1=SweepAxis("r", tuple(np.linspace(0.0, 2.0, 7)))), 1, 6),  # 7 cells: the members
            # At most six cells per drift: each cell's own D.
            (tiny_spec(axis1=SweepAxis("r", (0.0, 1.0, 2.0)), axis2=SweepAxis("temperature", (0.0, 0.5))), 1, 6),
            (tiny_spec(axis1=SweepAxis("r", (0.0, 1.0)), axis2=SweepAxis("temperature", (0.0, 0.5))), 1, 4),
            (tiny_spec(axis1=SweepAxis("kappa_m", tuple(np.linspace(0.01, 1.0, 8))),
                       axis2=SweepAxis("g", tuple(np.linspace(0.0, 10.0, 8)))), 64, 64),
        ],
        ids=["r-x-T-64", "fig3a-7", "fig3b-7", "g-x-r-64", "r-line-7", "r-x-T-6", "r-x-T-4", "kappa_m-x-g-64"],
    )
    def test_a_grid_makes_one_lyapunov_call_and_a_back_substitution_per_member_or_cell(self, calls, spec, schur, trsyl):
        run_sweep(spec)
        assert (calls["solve_lyapunov"], calls["_real_schur"], calls["_triangular_solve"]) == (1, schur, trsyl)

    def test_provenance_names_the_preset(self):
        grid = run_sweep(figure_preset("fig4", resolution=3))
        assert any("fig4" in line for line in grid.provenance)
        assert any("axis1" in line for line in grid.provenance)


PRESET_TABLE = {
    # name: (axis1 path, lo, hi), (axis2 path, lo, hi) or None, outputs,
    #        base r, base T, base g/kappa_a, base kappa_m/kappa_a
    "fig2a": (("delta_a1", -1.0, 1.0), ("delta_m1", -1.0, 1.0), ("E_mm",), 1.0, 0.1, 5.0, 0.2),
    "fig2b": (("delta_a2", -1.0, 1.0), ("delta_m2", -1.0, 1.0), ("E_mm",), 1.0, 0.1, 5.0, 0.2),
    "fig2c": (("r", 0.0, 2.0), ("temperature", 0.0, 1.0), ("E_mm",), 1.0, 0.0, 5.0, 0.2),
    "fig3a": (("r", 0.0, 2.0), ("g2_over_g1", 0.0, 2.0), ("E_mm",), 1.0, 0.1, 5.0, 0.2),
    "fig3b": (
        ("r", 0.0, 2.0),
        ("g", 0.5, 2.0),
        ("E_mm_over_E_aa", "E_aa", "E_mm"),
        1.0,
        0.1,
        5.0,
        0.2,
    ),
    "fig4": (("r", 0.0, 2.0), None, ("E_aa",), 1.0, 0.0, 0.0, 0.2),
    "fig5a": (("kappa_m", 0.01, 1.0), ("g", 0.0, 10.0), ("E_aa",), 1.0, 0.0, 5.0, 0.2),
    "fig5b": (("kappa_m", 0.01, 1.0), ("g", 0.0, 10.0), ("E_mm",), 1.0, 0.0, 5.0, 0.2),
    "fig6": (
        ("kappa_m", 0.01, 1.0),
        ("g", 0.0, 10.0),
        ("N_am", "E_a1m1", "E_a2m2"),
        1.0,
        0.0,
        5.0,
        0.2,
    ),
}


class TestFigurePresets:
    def test_registry_is_complete(self):
        assert PRESET_NAMES == tuple(sorted(PRESET_TABLE))

    @pytest.mark.parametrize("name", sorted(PRESET_TABLE))
    def test_preset_fidelity(self, name):
        ax1, ax2, outputs, r, temperature, g_ratio, km_ratio = PRESET_TABLE[name]
        spec = figure_preset(name)
        assert spec.name == name
        assert spec.outputs == outputs
        assert spec.axis1.path == ax1[0]
        assert spec.axis1.values[0] == pytest.approx(ax1[1], abs=1e-12)
        assert spec.axis1.values[-1] == pytest.approx(ax1[2], abs=1e-12)
        if ax2 is None:
            assert spec.axis2 is None
            assert len(spec.axis1.values) == DEFAULT_RESOLUTION_1D
        else:
            assert spec.axis2.path == ax2[0]
            assert spec.axis2.values[0] == pytest.approx(ax2[1], abs=1e-12)
            assert spec.axis2.values[-1] == pytest.approx(ax2[2], abs=1e-12)
            if name == "fig3b":
                assert spec.axis1.values == tuple(np.linspace(0.0, 2.0, DEFAULT_RESOLUTION_1D))
                assert spec.axis2.values == (0.5, 1.0, 2.0)
            else:
                assert len(spec.axis1.values) == DEFAULT_RESOLUTION_2D
                assert len(spec.axis2.values) == DEFAULT_RESOLUTION_2D
        base = spec.base
        assert base.r == r
        assert base.temperature == temperature
        assert base.g[0] / UNIT == pytest.approx(g_ratio, rel=1e-12)
        assert base.kappa_m[0] / UNIT == pytest.approx(km_ratio, rel=1e-12)
        assert base.delta_a == (0.0, 0.0)
        assert base.delta_m == (0.0, 0.0)

    def test_unknown_preset_lists_names(self):
        with pytest.raises(ValueError, match="fig2a"):
            figure_preset("nope")

    @pytest.mark.parametrize(
        "args,kwargs,message",
        [((["fig2c"],), {}, "preset name must be a str, not list"),
         ((b"fig2c",), {}, "preset name must be a str, not bytes"),
         (("fig4", 3), dict(base=1.0), "base must be a SystemParams, not float"),
         (("fig4",), dict(base=dataclasses.asdict(BASELINE)), "base must be a SystemParams, not dict")],
    )
    def test_a_name_or_base_of_the_wrong_type_is_a_value_error(self, args, kwargs, message):
        with pytest.raises(ValueError, match=message):
            figure_preset(*args, **kwargs)

    def test_resolution_override(self):
        spec = figure_preset("fig2a", resolution=7)
        assert len(spec.axis1.values) == 7
        assert len(spec.axis2.values) == 7
        line = figure_preset("fig4", resolution=11)
        assert len(line.axis1.values) == 11
        # Any integral type but bool, which would silently build a one-point grid.
        assert figure_preset("fig2a", np.int64(7)) == spec
        with pytest.raises(ValueError, match="positive integer"):
            figure_preset("fig2a", True)

    def test_base_override_propagates(self):
        custom = BASELINE.replace(kappa_a=(UNIT, 2.0 * UNIT))
        spec = figure_preset("fig2c", base=custom)
        assert spec.base.kappa_a[1] == pytest.approx(2.0 * UNIT)
        assert spec.base.r == 1.0

    def test_squeezing_heatmap_peaks_at_cold_strong_drive(self):
        grid = run_sweep(figure_preset("fig2c", resolution=7))
        values = grid.value_array("E_mm")
        top = np.unravel_index(int(np.nanargmax(values)), values.shape)
        assert top == (6, 0)

    def test_asymmetry_band_narrows_with_drive(self):
        grid = run_sweep(figure_preset("fig3a", resolution=9))
        values = grid.value_array("E_mm")
        entangled_width = (values > 1e-9).sum(axis=1)
        low, high = entangled_width[2], entangled_width[8]
        assert high < low
        mid = len(grid.spec.axis2.values) // 2
        assert values[8, mid] > 0.0


class TestTemperatureThreshold:
    def test_threshold_for_moderate_drive(self):
        thr = find_temperature_threshold(BASELINE.replace(r=0.4), tol=1e-3)
        assert 0.6 <= thr <= 1.0
        assert thr == pytest.approx(0.848, abs=5e-3)

    def test_none_when_still_entangled_at_cap(self):
        assert find_temperature_threshold(BASELINE.replace(r=0.4), t_max=0.3) is None

    def test_no_drive_raises(self):
        with pytest.raises(NoEntanglementError):
            find_temperature_threshold(BASELINE.replace(r=0.0))

    def test_tolerance_controls_resolution(self):
        coarse = find_temperature_threshold(BASELINE.replace(r=0.4), tol=1e-2)
        fine = find_temperature_threshold(BASELINE.replace(r=0.4), tol=1e-5)
        assert abs(coarse - fine) <= 1e-2 + 1e-5

    @pytest.mark.parametrize("tol", [5e-324, 1e-320])
    def test_subnormal_tolerance_bisects_to_the_last_float(self, tol, calls):
        # t_max / tol overflows; the step count does not need that quotient.
        params = BASELINE.replace(r=0.4)
        threshold = find_temperature_threshold(params, 2.0, tol)
        # The search ends once lo and hi are adjacent floats: 56 calls, where
        # the step count from tol alone is over a thousand.
        assert calls["_closed_form"] < 60
        assert threshold == find_temperature_threshold(params, 2.0, 1e-300)
        assert threshold == threshold_by_full_solves(params, 2.0, tol)
        assert threshold == pytest.approx(0.848, abs=5e-3)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            find_temperature_threshold(BASELINE, t_max=0.0)
        with pytest.raises(ValueError):
            find_temperature_threshold(BASELINE, tol=0.0)
        with pytest.raises(ValueError, match="t_max must be positive and finite"):
            find_temperature_threshold(BASELINE, t_max=10**400)
        with pytest.raises(ValueError, match="tol must satisfy"):
            find_temperature_threshold(BASELINE, tol=10**400)
        for bad in (dict(t_max=True), dict(t_max="2"), dict(tol=None), dict(tol="0.1"), dict(t_max=None)):
            with pytest.raises(ValueError, match="must be a real number"):
                find_temperature_threshold(BASELINE, **bad)
        for params in (1.0, None, dataclasses.asdict(BASELINE)):
            with pytest.raises(ValueError, match="params must be a SystemParams"):
                find_temperature_threshold(params)

    def test_equals_the_per_step_solve_bisection(self):
        # The survival-curve setting: t_max 3 K, tol 1e-3 K.
        rs = np.random.default_rng(2024).uniform(0.05, 2.0, 60)
        for r in rs:
            params = BASELINE.replace(r=float(r))
            expected = threshold_by_full_solves(params, 3.0, 1e-3)
            assert find_temperature_threshold(params, 3.0, 1e-3) == expected

    def test_equals_the_per_step_solve_bisection_off_symmetry(self):
        # Distinct magnon frequencies, linewidths and couplings, nonzero
        # detunings, bisected to 1e-9 K.
        rng = np.random.default_rng(7)
        unit = BASELINE.kappa_a[0]
        found = 0
        for _ in range(24):
            drive = 2.0 * math.pi * rng.uniform(8e9, 12e9, 2)
            params = BASELINE.replace(
                omega_drive=tuple(drive),
                omega_a=tuple(drive + unit * rng.uniform(-0.1, 0.1, 2)),
                omega_m=tuple(drive + unit * rng.uniform(-0.1, 0.1, 2)),
                kappa_m=tuple(unit * rng.uniform(0.15, 0.25, 2)),
                g=tuple(unit * rng.uniform(4.0, 6.0) * np.array([1.0, rng.uniform(0.85, 1.15)])),
                r=rng.uniform(0.3, 1.2),
            )
            try:
                expected = threshold_by_full_solves(params, 3.0, 1e-9)
            except NoEntanglementError:
                with pytest.raises(NoEntanglementError):
                    find_temperature_threshold(params, 3.0, 1e-9)
                continue
            assert find_temperature_threshold(params, 3.0, 1e-9) == expected
            found += expected is not None
        assert found >= 20

    @staticmethod
    def failing_at(monkeypatch, failures):
        """Make the bath occupation at each temperature of ``failures`` return or raise its value."""
        occupation = model.thermal_occupation

        def patched(omega, temperature):
            outcome = failures.get(temperature)
            if isinstance(outcome, Exception):
                raise outcome
            return occupation(omega, temperature) if outcome is None else outcome

        monkeypatch.setattr(model, "thermal_occupation", patched)

    def test_failure_off_the_visited_path_leaves_the_threshold(self, monkeypatch):
        # At r = 0.4 the threshold is 0.848 K: the walk turns left at 1.5 K and never
        # visits 2.25 K, which the first round evaluates with the rest of its tree.
        params = BASELINE.replace(r=0.4)
        expected = threshold_by_full_solves(params, 3.0, 1e-3)
        self.failing_at(monkeypatch, {2.25: NumericalFailureError("off the path")})
        assert find_temperature_threshold(params, 3.0, 1e-3) == expected
        with pytest.raises(NumericalFailureError, match="off the path"):
            model.thermal_pair_moments(params, ((2, 3),))([2.25])

    def test_visited_failure_raises_as_the_one_step_search(self, monkeypatch):
        # The round's call raises at 2.25 K (unvisited) before any matrix check; the one-step
        # search fails at 1.125 K, its third step, where an infinite occupation fails the
        # finite-matrix check.
        params = BASELINE.replace(r=0.4)
        self.failing_at(monkeypatch, {2.25: ValueError("off the path"), 1.125: math.inf})
        with pytest.raises(NumericalFailureError) as expected:
            threshold_by_steps(params, 3.0, 1e-3)
        with pytest.raises(NumericalFailureError) as raised:
            find_temperature_threshold(params, 3.0, 1e-3)
        assert type(raised.value) is type(expected.value)
        assert str(raised.value) == str(expected.value) == "drift or diffusion matrix overflows at these parameters"

    @given(
        r=st.floats(0.05, 2.0),
        t_max=st.sampled_from((0.3, 0.7, 3.0, 1e300)),
        tol=st.one_of(st.sampled_from((1e-2, 1e-3, 1e-9, 1e-300, 5e-324)), st.floats(5e-324, 1e-2)),
    )
    @settings(max_examples=40)
    def test_rounds_equal_the_one_step_search(self, r, t_max, tol):
        params = BASELINE.replace(r=r)
        expected = outcome(lambda: threshold_by_steps(params, t_max, tol))
        found = outcome(lambda: find_temperature_threshold(params, t_max, tol))
        if isinstance(expected, CavmagError):
            assert type(found) is type(expected) and str(found) == str(expected)
            return
        assert found == expected
        # Full solves decide each step on their own round-off: tens of ulps from the closed
        # form where the bracket closes to adjacent floats.
        full = threshold_by_full_solves(params, t_max, tol)
        assert found is full is None or found == pytest.approx(full, rel=1e-12)

    def test_one_search_costs_one_solve(self, calls):
        assert find_temperature_threshold(BASELINE.replace(r=0.4), 3.0, 1e-3) is not None
        # Probes at 0 and t_max, then ceil(log2(3 / 1e-3)) = 12 steps, 3 tree levels per
        # closed-form call: the probes ride with the first round, so 4 calls.
        expected = dict(solve_lyapunov=1, _stacks=1, _real_schur=1, _triangular_solve=3, _closed_form=4)
        assert calls == dict(STAGES_UNCALLED, **expected)


EMITTERS = pytest.mark.parametrize(
    "emit",
    [lambda g, out: emit_csv(g, out), lambda g, out: emit_heatmap(g, None, out), emit_lineplot],
    ids=["emit_csv", "emit_heatmap", "emit_lineplot"],
)


@EMITTERS
@pytest.mark.parametrize("grid", [1.0, None, "grid", tiny_spec()])
def test_emitters_refuse_what_is_not_a_grid(emit, grid):
    with pytest.raises(ValueError, match=f"^grid must be a SweepGrid, not {type(grid).__name__}$"):
        emit(grid, io.StringIO())


@EMITTERS
def test_emitters_refuse_a_file_descriptor_and_leave_it_open(emit):
    # open() takes an int (and True) as a descriptor to write to and then close: stdout, for True.
    grid = run_sweep(tiny_spec(axis2=SweepAxis("temperature", (0.0, 0.1))))
    read_end, write_end = os.pipe()
    try:
        for destination in (True, write_end, None, b"out.csv"):
            message = f"^destination must be a path or have a write method, not {type(destination).__name__}$"
            with pytest.raises(ValueError, match=message):
                emit(grid, destination)
        assert os.write(write_end, b"x") == 1 and os.read(read_end, 1) == b"x"
        os.fstat(1)  # stdout is still open
    finally:
        os.close(read_end)
        os.close(write_end)


class TestEmitCsv:
    def test_layout_and_formatting(self):
        grid = run_sweep(tiny_spec(axis1=SweepAxis("r", (0.0, 1.0))))
        buf = io.StringIO()
        emit_csv(grid, buf)
        lines = buf.getvalue().splitlines()
        comments = [l for l in lines if l.startswith("# ")]
        data = [l for l in lines if not l.startswith("# ")]
        assert comments
        assert data[0] == "axis1,E_mm,stable"
        assert len(data) == 3
        first = data[1].split(",")
        assert first[0] == "0"
        assert first[2] == "true"

    def test_nine_significant_digits(self):
        grid = run_sweep(tiny_spec(axis1=SweepAxis("r", (1.0,))))
        buf = io.StringIO()
        emit_csv(grid, buf)
        value = buf.getvalue().splitlines()[-1].split(",")[1]
        assert value == "1.25468819"

    def test_two_axis_layout(self):
        grid = run_sweep(
            tiny_spec(axis1=SweepAxis("r", (0.0, 1.0)), axis2=SweepAxis("g", (2.0, 5.0)))
        )
        buf = io.StringIO()
        emit_csv(grid, buf)
        data = [l for l in buf.getvalue().splitlines() if not l.startswith("# ")]
        assert data[0] == "axis1,axis2,E_mm,stable"
        assert len(data) == 5
        assert data[1].startswith("0,2,")
        assert data[2].startswith("0,5,")

    def test_round_trip_against_value_array(self):
        grid = run_sweep(tiny_spec(axis1=SweepAxis("r", (0.0, 0.5, 1.0))))
        buf = io.StringIO()
        emit_csv(grid, buf)
        data = [l for l in buf.getvalue().splitlines() if not l.startswith("# ")][1:]
        parsed = np.array([float(row.split(",")[1]) for row in data])
        assert np.allclose(parsed, grid.value_array("E_mm"), rtol=1e-8, atol=1e-9)

    def test_writes_to_path(self, tmp_path):
        grid = run_sweep(tiny_spec(axis1=SweepAxis("r", (0.5,))))
        target = tmp_path / "out.csv"
        for destination in (str(target), target):  # a str and an os.PathLike
            target.unlink(missing_ok=True)
            emit_csv(grid, destination)
            content = target.read_text()
            assert content.endswith("\n")
            assert "axis1,E_mm,stable" in content

    def test_markup_in_the_name_stays_on_its_provenance_line(self):
        buf = io.StringIO()
        emit_csv(run_sweep(tiny_spec(name="a<b & c>d")), buf)
        lines = buf.getvalue().splitlines()
        assert "# preset: a<b & c>d" in lines
        header = lines.index("axis1,E_mm,stable")
        assert all(line.startswith("# ") for line in lines[:header])

    def test_deterministic_bytes(self):
        spec = tiny_spec(axis1=SweepAxis("r", (0.0, 0.7)), axis2=SweepAxis("g", (1.0, 4.0)))
        first, second = io.StringIO(), io.StringIO()
        emit_csv(run_sweep(spec), first)
        emit_csv(run_sweep(spec), second)
        assert first.getvalue() == second.getvalue()


class TestEmitHeatmap:
    def small_grid(self):
        return run_sweep(figure_preset("fig2c", resolution=3))

    def test_rejects_one_axis_grid(self):
        grid = run_sweep(tiny_spec(axis1=SweepAxis("r", (0.0, 1.0))))
        with pytest.raises(ValueError, match="emit_lineplot"):
            emit_heatmap(grid, None, io.StringIO())

    def test_rejects_unknown_column(self):
        with pytest.raises(ValueError, match="not among the grid outputs"):
            emit_heatmap(self.small_grid(), "E_aa", io.StringIO())

    def test_well_formed_svg_with_expected_extremes(self):
        buf = io.StringIO()
        emit_heatmap(self.small_grid(), "E_mm", buf)
        svg = buf.getvalue()
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert color_for(1.0) in svg
        assert color_for(0.0) in svg
        assert NAN_FILL not in svg
        assert "fig2c" in svg

    def test_default_column_is_first_output(self):
        grid = self.small_grid()
        a, b = io.StringIO(), io.StringIO()
        emit_heatmap(grid, None, a)
        emit_heatmap(grid, "E_mm", b)
        assert a.getvalue() == b.getvalue()

    def test_constant_grid_uses_midpoint_color(self):
        spec = tiny_spec(
            base=BASELINE.replace(r=0.0),
            axis1=SweepAxis("delta_a1", (-0.1, 0.1)),
            axis2=SweepAxis("delta_m1", (-0.1, 0.1)),
        )
        buf = io.StringIO()
        emit_heatmap(run_sweep(spec), None, buf)
        cell_fills = re.findall(r'fill="(#\w{6})"', buf.getvalue())
        assert cell_fills.count(color_for(0.5)) >= 4

    @pytest.mark.parametrize("n1, n2", [(4, 5), (5, 4), (8, 7), (6, 6), (3, 3)])
    def test_middle_ticks_sit_at_their_cell_centres(self, n1, n2):
        a1, a2 = tuple(10.0 + i for i in range(n1)), tuple(100.0 + j for j in range(n2))
        spec = tiny_spec(axis1=SweepAxis("r", a1), axis2=SweepAxis("temperature", a2))
        columns = dict.fromkeys(OUTPUT_COLUMNS, 0.01 * np.arange(n1 * n2))
        buf = io.StringIO()
        emit_heatmap(SweepGrid(spec=spec, columns=columns, provenance=()), None, buf)
        root = ET.fromstring(buf.getvalue())
        rects = [el.attrib for el in root if el.tag.endswith("rect")][1 : 1 + n1 * n2]
        labels = {el.text: el.attrib for el in root if el.tag.endswith("text")}
        x_cell, y_cell = rects[(n1 // 2) * n2], rects[n2 // 2]  # cells (n1 // 2, 0) and (0, n2 // 2)
        x_centre = float(x_cell["x"]) + (float(x_cell["width"]) - 0.05) / 2
        y_centre = float(y_cell["y"]) + (float(y_cell["height"]) - 0.05) / 2
        assert abs(float(labels[f"{a1[n1 // 2]:g}"]["x"]) - x_centre) <= 0.05
        assert abs(float(labels[f"{a2[n2 // 2]:g}"]["y"]) - 4.0 - y_centre) <= 0.05

    def test_markup_in_the_name_is_escaped(self):
        spec = tiny_spec(axis2=SweepAxis("g", (1.0, 2.0)), name="a<b & c>d")
        buf = io.StringIO()
        emit_heatmap(run_sweep(spec), None, buf)
        assert "a&lt;b &amp; c&gt;d: E_mm" in buf.getvalue()
        titles = [el.text for el in ET.fromstring(buf.getvalue()) if el.tag.endswith("text")]
        assert titles[0] == "a<b & c>d: E_mm"

    def test_writes_to_path(self, tmp_path):
        target = tmp_path / "map.svg"
        emit_heatmap(self.small_grid(), None, str(target))
        assert target.read_text().startswith("<svg")


class TestEmitLineplot:
    def test_single_line(self):
        grid = run_sweep(figure_preset("fig4", resolution=5))
        buf = io.StringIO()
        emit_lineplot(grid, buf)
        svg = buf.getvalue()
        ET.fromstring(svg)
        assert svg.count("<polyline") == 1
        assert "fig4" in svg

    def test_one_polyline_per_second_axis_value(self):
        grid = run_sweep(figure_preset("fig3b", resolution=5))
        buf = io.StringIO()
        emit_lineplot(grid, buf, columns=("E_mm",))
        assert buf.getvalue().count("<polyline") == 3

    def test_column_selection_must_be_known(self):
        grid = run_sweep(figure_preset("fig4", resolution=3))
        with pytest.raises(ValueError):
            emit_lineplot(grid, io.StringIO(), columns=("E_mm",))
        with pytest.raises(ValueError, match="columns must be a sequence of column names"):
            emit_lineplot(grid, io.StringIO(), columns="E_aa")

    def test_non_finite_samples_break_the_line(self):
        buf = io.StringIO()
        ys = [0.1, 0.2, math.inf, 0.3, 0.4, math.nan, 0.5, -math.inf, None, 0.6, 0.7]
        render_lines(range(len(ys)), [("y", ys)], "gaps", "x", buf)
        root = ET.fromstring(buf.getvalue())
        runs = [el.attrib["points"].split() for el in root if el.tag.endswith("polyline")]
        assert [len(run) for run in runs] == [2, 2, 2]
        assert "inf" not in buf.getvalue()

    def test_writes_to_path(self, tmp_path):
        target = tmp_path / "line.svg"
        emit_lineplot(run_sweep(figure_preset("fig4", resolution=3)), str(target))
        assert target.read_text().startswith("<svg")


class TestColorFor:
    def test_endpoints_match_anchor_table(self):
        assert color_for(0.0) == "#{:02x}{:02x}{:02x}".format(*COLOR_ANCHORS[0])
        assert color_for(1.0) == "#{:02x}{:02x}{:02x}".format(*COLOR_ANCHORS[-1])

    def test_clamps_out_of_range(self):
        assert color_for(-5.0) == color_for(0.0)
        assert color_for(42.0) == color_for(1.0)

    def test_nan_maps_to_missing_fill(self):
        assert color_for(math.nan) == NAN_FILL

    def test_monotone_green_channel(self):
        greens = [int(color_for(f)[3:5], 16) for f in np.linspace(0.0, 1.0, 20)]
        assert greens == sorted(greens)

    def test_format(self):
        assert re.fullmatch(r"#[0-9a-f]{6}", color_for(0.37))

    def test_equals_the_per_cell_oracle(self):
        # Anchors (k / 16), exact .5 ties in a channel ((2k + 1) / 32), signed zeros,
        # out-of-range and non-finite values, and a dense random sweep.
        rng = np.random.default_rng(53)
        fractions = [k / 32 for k in range(33)] + [-0.0, -1e-300, 1.0 + 1e-16, math.inf, -math.inf, math.nan]
        for f in fractions + rng.uniform(-0.1, 1.1, 2000).tolist():
            assert color_for(f) == color_by_cell(f), f
