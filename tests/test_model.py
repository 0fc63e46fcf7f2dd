from __future__ import annotations

import collections.abc
import dataclasses
import itertools
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cavmag.cvgaussian import (
    SEPARABLE_SLACK,
    CovarianceMatrix,
    _closed_form,
    clamp_negativity,
    log_negativity,
    negativity_indicators,
    pair_moments,
    reduce,
    symplectic_eigenvalues,
)
from cavmag import linsys, model
from cavmag.errors import CavmagError, NearSingularError, NumericalFailureError, PairStructureError
from cavmag.linsys import solve_lyapunov, stability
from cavmag.model import (
    BASELINE,
    HBAR,
    KBOLTZ,
    MODE_LABELS,
    OUTPUT_COLUMNS,
    R_MAX,
    SystemParams,
    build_diffusion,
    build_drift,
    entanglement_report,
    noise_moments,
    steady_state_cm,
    thermal_occupation,
    thermal_pair_moments,
)
from cavmag.sweep import PRESET_NAMES, SweepAxis, SweepSpec, _grid_fields, apply_parameter, figure_preset, run_sweep

from conftest import outcome, pair_indicators, state_nu_min
from oracles import (
    ReducedParams,
    assembled_state,
    columns_of,
    diffusion_by_point,
    drift_by_point,
    fields_of,
    grid_points,
    staged_field_checks,
    thermal_members,
    tmsv_cm,
    vmm_analytic,
)

TWO_PI = 2.0 * math.pi

# Frozen reference values, independently evaluated with 40-digit
# arithmetic and rounded to double precision.
OCC_10GHZ_100MK = 0.008304373388861986  # Planck occupation, 10 GHz at 0.1 K
N_R04 = 0.1687174731524223  # sinh(0.4)^2
M_R04 = 0.4440529910938115  # sinh(0.4) cosh(0.4)
E_MM_BASELINE_R1_T0 = 1.254688190811554  # magnon log-negativity, matched rates
E_MM_R04_100MK = 0.6021600681695044  # same at r = 0.4, T = 0.1 K


def valid_params(**overrides) -> SystemParams:
    return BASELINE.replace(**overrides)


class TestSystemParams:
    def test_baseline_values(self):
        unit = TWO_PI * 5e6
        assert BASELINE.kappa_a == (unit, unit)
        assert BASELINE.kappa_m == (unit / 5.0, unit / 5.0)
        assert BASELINE.g == (5.0 * unit, 5.0 * unit)
        assert BASELINE.omega_a == (TWO_PI * 1e10, TWO_PI * 1e10)
        assert BASELINE.theta == 0.0
        assert BASELINE.delta_a == (0.0, 0.0)
        assert BASELINE.delta_m == (0.0, 0.0)

    def test_detunings_derive_from_frequencies(self):
        p = valid_params(omega_a=(TWO_PI * 1e10 + 3e6, TWO_PI * 1e10))
        assert p.delta_a[0] == pytest.approx(3e6)
        assert p.delta_a[1] == 0.0

    def test_replace_is_functional(self):
        p = valid_params(r=0.7)
        assert p.r == 0.7
        assert BASELINE.r != 0.7 or True
        assert p.kappa_a == BASELINE.kappa_a

    def test_pairs_are_float_tuples_and_replace_shares_them(self):
        p = valid_params(g=[np.float64(1.0), 2])
        assert p.g == (1.0, 2.0) and all(type(x) is float for x in p.g)
        assert p.replace(r=0.3).g is p.g

    @pytest.mark.parametrize(
        "field,value",
        [
            ("kappa_a", (0.0, TWO_PI * 5e6)),
            ("kappa_m", (-1.0, 1.0)),
            ("omega_a", (0.0, TWO_PI * 1e10)),
            ("g", (-1.0, 1.0)),
            ("r", -0.2),
            ("temperature", -0.1),
            ("r", math.nan),
            ("g", "55"),  # not (5.0, 5.0)
            ("kappa_m", b"55"),
            ("r", "0.5"),
            ("r", True),
            ("theta", None),
            ("temperature", np.True_),
            ("g", (True, 1.0)),
            ("g", 5.0),
            ("g", None),
            # Integers beyond the float range read as infinite, not as an OverflowError.
            pytest.param("r", 10**400, id="r-huge"),
            pytest.param("temperature", -(10**400), id="temperature-huge"),
            pytest.param("g", (10**400, 1.0), id="g-huge"),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            valid_params(**{field: value})

    def test_numbers_of_other_types_are_accepted_as_floats(self):
        p = valid_params(r=np.float32(0.5), theta=1, temperature=np.int64(2), g=np.array([1, 2.5]))
        assert (p.r, p.theta, p.temperature, p.g) == (0.5, 1.0, 2.0, (1.0, 2.5))
        assert all(type(x) is float for x in (p.r, p.theta, p.temperature, *p.g))

    def test_instances_have_no_dict_and_replace_shares_pairs(self):
        p = valid_params(r=0.3)
        assert not hasattr(p, "__dict__")
        with pytest.raises((AttributeError, TypeError)):
            p.extra = 1.0
        pairs = ("omega_a", "omega_m", "omega_drive", "kappa_a", "kappa_m", "g")
        assert all(getattr(p, name) is getattr(BASELINE, name) for name in pairs)

    def test_scalar_rate_is_rejected(self):
        with pytest.raises((ValueError, TypeError)):
            valid_params(kappa_a=1.0)


def _fields(params: SystemParams) -> dict:
    return {field.name: getattr(params, field.name) for field in dataclasses.fields(params)}


def _stored_or_error(construct):
    """Each stored field as (type, repr), so that -0.0, nan and numpy scalars stay apart; or the
    type and message of the error."""
    try:
        values = construct()
    except Exception as exc:  # noqa: BLE001 - the type is compared
        return type(exc), str(exc)
    return {name: (type(value), repr(value)) for name, value in values.items()}


# Inputs that a field may be handed: numbers of every kind at and beyond the edges of the rules,
# other types, and containers of the wrong length or kind.
HOSTILE = [
    True, False, np.True_, "1.0", "", b"1", None, 10**400, -(10**400), 1.5 * 10**300, math.nan,
    math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, -1.0, -1, 0, 2.5, 7, 1.7e308, -1.7e308,
    np.float32(0.5), np.float32(-0.5), np.float32(np.inf), np.int64(3), np.int64(-3), np.float64(-0.0),
    1 + 2j, complex(1.0, 0.0), np.complex128(1.0), np.array(1.5), np.array(-1.5), np.array([1.5]),
    np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]), np.array([-1.0, 2.0]), np.array([[1.0, 2.0]]),
    [], [1.0], [1.0, 2.0], [1.0, 2.0, 3.0], (1.0,), (1.0, 2.0), (2.0, 1.0, 0.5), {"a": 1.0, "b": 2.0},
    {1.0, 2.0}, frozenset({3.0}), {2.0: 1.0}.keys(),
]


def _hostile_values():
    """HOSTILE, and each entry in a pair with a valid number either way round, doubled, alone in a
    list, and in an array where numpy can hold it."""
    yield from HOSTILE
    for x in HOSTILE:
        yield from ((x, 1.0), (1.0, x), [x, x], [x])
        try:
            yield np.array([x, 1.0])
        except (OverflowError, ValueError, TypeError):  # no array holds it
            pass


class TestFieldRules:
    """The one walk over model._FIELD_RULES against the staged checks of oracles.staged_field_checks."""

    def test_the_rules_are_the_fields_in_order(self):
        assert list(model._FIELD_RULES) == [field.name for field in dataclasses.fields(SystemParams)]

    @pytest.mark.parametrize("name", [field.name for field in dataclasses.fields(SystemParams)])
    def test_each_input_meets_the_staged_checks(self, name):
        # The one intended difference: a pair field refuses an unordered container (a set or a mapping)
        # as such, where the staged checks read it in its iteration order.
        pair = model._FIELD_RULES[name][0]
        refused = 0
        for value in _hostile_values():
            changed = {**_fields(BASELINE), name: value}
            expected = _stored_or_error(lambda: staged_field_checks(changed))
            if pair and isinstance(value, (collections.abc.Set, collections.abc.Mapping)):
                expected = (ValueError, f"{name} must hold two numbers, not {type(value).__name__}")
            assert _stored_or_error(lambda: _fields(SystemParams(**changed))) == expected, (name, value)
            refused += isinstance(expected, tuple)
        assert 0 < refused < len(list(_hostile_values()))

    @pytest.mark.parametrize("value", [{3.0, 1.0}, frozenset({3.0, 1.0}), {3.0: 1.0, 1.0: 3.0}, {3.0: 1.0}.keys()])
    @pytest.mark.parametrize("name", ["omega_a", "kappa_m", "g"])
    def test_an_unordered_container_is_no_pair(self, name, value):
        message = f"{name} must hold two numbers, not {type(value).__name__}"
        for build in (BASELINE.replace, fields_of([BASELINE]).replace):
            with pytest.raises(ValueError) as error:
                build(**{name: value})
            assert str(error.value) == message
        assert BASELINE.replace(**{name: [3.0, 1.0]}) == BASELINE.replace(**{name: np.array([3.0, 1.0])})

    def test_several_faults_raise_the_first_faulty_field_in_field_order(self):
        def construct(changes, check=lambda values: _fields(SystemParams(**values))):
            return _stored_or_error(lambda: check({**_fields(BASELINE), **changes}))

        faults = [math.nan, "x", -1.0, (-1.0, 1.0), (1.0, math.inf), np.array([1.0, 2.0, 3.0])]
        alone = {(name, k): construct({name: fault}) for name in model._FIELD_RULES for k, fault in enumerate(faults)}
        refused = [key for key, result in alone.items() if isinstance(result, tuple)]  # in field order
        assert len(refused) > 40
        for (first, i), (second, j) in itertools.combinations(refused, 2):
            if first != second:
                both = {first: faults[i], second: faults[j]}
                assert construct(both) == alone[first, i], both
                assert construct(both, staged_field_checks)[0] is alone[first, i][0]

    def test_values_that_are_kept_as_they_are(self):
        p = SystemParams(**_fields(BASELINE))
        assert all(getattr(p, name) is getattr(BASELINE, name) for name in model._FIELD_RULES)
        negative_zero = valid_params(r=-0.0, g=(-0.0, 0.0), temperature=-0.0)
        assert math.copysign(1.0, negative_zero.r) == math.copysign(1.0, negative_zero.g[0]) == -1.0


class TestReplace:
    @pytest.mark.parametrize(
        "changes",
        [
            {},
            {"r": 0.3},
            {"temperature": 2, "theta": np.float32(0.25)},
            {"g": [1.0, np.int64(2)], "kappa_m": np.array([3.0, 4.0])},
            {name: getattr(BASELINE, name) for name in model._FIELD_RULES},
        ],
    )
    def test_equals_the_constructor_on_the_same_fields(self, changes):
        expected = SystemParams(**{**_fields(BASELINE), **changes})
        result = BASELINE.replace(**changes)
        assert result == expected and result is not BASELINE
        assert _stored_or_error(lambda: _fields(result)) == _stored_or_error(lambda: _fields(expected))
        assert result == dataclasses.replace(BASELINE, **changes)

    @pytest.mark.parametrize("changes", [{"kappa": 1.0}, {"r": 0.3, "delta_a": (0.0, 0.0)}])
    def test_a_name_that_is_not_a_field_is_a_type_error(self, changes):
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            BASELINE.replace(**changes)

    @pytest.mark.parametrize(
        "changes,message",
        [
            ({"kappa_m": (0.0, 1.0)}, "kappa_m must be strictly positive"),
            ({"g": (1.0, -2.0)}, "coupling rates must be nonnegative"),
            ({"omega_drive": "10"}, "omega_drive must hold two numbers, not str"),
            ({"r": -0.5}, "squeezing parameter r must be nonnegative"),
            ({"theta": math.inf}, "theta must be finite"),
            ({"temperature": True}, "temperature must be a real number, not bool"),
        ],
    )
    def test_a_bad_value_raises_its_field_message(self, changes, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BASELINE.replace(**changes)


class TestThermalOccupation:
    def test_zero_temperature_is_exactly_zero(self):
        assert thermal_occupation(TWO_PI * 1e10, 0.0) == 0.0

    def test_frozen_value_10ghz_100mk(self):
        occ = thermal_occupation(TWO_PI * 1e10, 0.1)
        assert occ == pytest.approx(OCC_10GHZ_100MK, rel=1e-12)

    def test_log2_fixed_point_is_one(self):
        omega = TWO_PI * 1e10
        temperature = HBAR * omega / (KBOLTZ * math.log(2.0))
        assert thermal_occupation(omega, temperature) == pytest.approx(1.0, rel=1e-12)

    def test_underflow_guard_returns_zero(self):
        assert thermal_occupation(TWO_PI * 1e10, 1e-9) == 0.0

    @pytest.mark.parametrize("omega,temperature", [(TWO_PI * 1e-300, 1e-300), (5e-324, 5e-324), (1e-310, 1e-300)])
    def test_underflowing_quantum_energy_divides_omega_by_the_temperature_first(self, omega, temperature):
        # HBAR * omega underflows to 0 for these omega; the ratio hbar omega / (k T) does not.
        assert HBAR * omega / KBOLTZ / temperature == 0.0
        expected = 1.0 / math.expm1((HBAR / KBOLTZ) * (omega / temperature))
        assert thermal_occupation(omega, temperature) == expected
        assert math.isfinite(expected) and expected > 1e8

    @pytest.mark.parametrize("omega,temperature", [(5e-324, 1e300), (5e-324, 1.0), (1e-320, 1e10)])
    def test_occupation_beyond_float_range_is_infinite_and_refused_by_the_model(self, omega, temperature):
        assert thermal_occupation(omega, temperature) == math.inf
        params = BASELINE.replace(omega_m=(omega, omega), temperature=temperature)
        assert noise_moments(params).magnon_occupation == (math.inf, math.inf)
        for compute in (lambda: entanglement_report(params), lambda: thermal_pair_moments(params, [(2, 3)])([1.0])):
            with pytest.raises(NumericalFailureError, match="overflows"):
                compute()

    @pytest.mark.parametrize("omega,temperature", [(0.0, 0.1), (-1.0, 0.1), (1e10, -0.1)])
    def test_invalid_arguments(self, omega, temperature):
        with pytest.raises(ValueError):
            thermal_occupation(omega, temperature)

    @pytest.mark.parametrize(
        "omega,temperature,message",
        [
            # An integer beyond the float range reads as infinite, not as an OverflowError.
            (10**400, 1.0, "omega must be positive and finite"),
            (1e10, 10**400, "temperature must be nonnegative and finite"),
            ("1e10", 1.0, "omega must be a real number, not str"),
            (1e10, "0.1", "temperature must be a real number, not str"),
            (True, 1.0, "omega must be a real number, not bool"),
            (1e10, np.True_, "temperature must be a real number, not bool"),
            (1e10, None, "temperature must be a real number, not NoneType"),
        ],
    )
    def test_only_real_numbers_other_than_bools(self, omega, temperature, message):
        with pytest.raises(ValueError, match=message):
            thermal_occupation(omega, temperature)

    def test_numbers_of_other_types_are_read_as_floats(self):
        expected = thermal_occupation(TWO_PI * 1e10, 0.1)
        assert thermal_occupation(np.float64(TWO_PI * 1e10), np.float32(0.1)) == pytest.approx(expected, rel=1e-7)
        assert thermal_occupation(10**10, 1) == thermal_occupation(1e10, 1.0)


class TestNoiseMoments:
    def test_vacuum_input(self):
        m = noise_moments(valid_params(r=0.0))
        assert m.mean_occupation == 0.0
        assert m.correlation == 0.0

    def test_frozen_values_at_r04(self):
        m = noise_moments(valid_params(r=0.4, temperature=0.1))
        assert m.mean_occupation == pytest.approx(N_R04, rel=1e-12)
        assert m.correlation.real == pytest.approx(M_R04, rel=1e-12)
        assert m.correlation.imag == 0.0
        assert m.magnon_occupation[0] == pytest.approx(OCC_10GHZ_100MK, rel=1e-12)
        assert m.magnon_occupation[1] == pytest.approx(OCC_10GHZ_100MK, rel=1e-12)

    def test_phase_enters_correlation_only(self):
        theta = 1.1
        m = noise_moments(valid_params(r=0.4, theta=theta))
        assert m.correlation == pytest.approx(M_R04 * complex(math.cos(theta), math.sin(theta)))
        assert m.mean_occupation == pytest.approx(N_R04, rel=1e-12)

    @pytest.mark.parametrize("r", [360.0, 711.0])
    def test_overflowing_drive_raises_typed_error(self, r):
        with pytest.raises(NumericalFailureError, match="overflow"):
            noise_moments(valid_params(r=r))

    @given(r=st.floats(0.0, 3.0), theta=st.floats(-math.pi, math.pi))
    @settings(max_examples=60)
    def test_hyperbolic_identity(self, r, theta):
        m = noise_moments(valid_params(r=r, theta=theta))
        n = m.mean_occupation
        assert abs(m.correlation) ** 2 == pytest.approx(n * (n + 1.0), rel=1e-12, abs=1e-12)


def baseline_drift_fixture() -> np.ndarray:
    # Hand-transcribed linearized dynamics at the baseline rates,
    # normalized by the first cavity decay: unit cavity decay, magnon
    # decay 1/5, coupling 5, all detunings zero.
    k, g = 0.2, 5.0
    return np.array(
        [
            [-1.0, 0.0, 0.0, 0.0, 0.0, g, 0.0, 0.0],
            [0.0, -1.0, 0.0, 0.0, -g, 0.0, 0.0, 0.0],
            [0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0, g],
            [0.0, 0.0, 0.0, -1.0, 0.0, 0.0, -g, 0.0],
            [0.0, g, 0.0, 0.0, -k, 0.0, 0.0, 0.0],
            [-g, 0.0, 0.0, 0.0, 0.0, -k, 0.0, 0.0],
            [0.0, 0.0, 0.0, g, 0.0, 0.0, -k, 0.0],
            [0.0, 0.0, -g, 0.0, 0.0, 0.0, 0.0, -k],
        ]
    )


class TestBuildDrift:
    def test_baseline_matches_fixture_entry_for_entry(self):
        assert np.array_equal(build_drift(BASELINE), baseline_drift_fixture())

    def test_decoupled_zero_detuning_is_block_diagonal_decay(self):
        p = valid_params(g=(0.0, 0.0))
        a = build_drift(p)
        assert np.array_equal(a, np.diag([-1.0] * 4 + [-0.2] * 4))

    def test_detuning_entries(self):
        unit = BASELINE.kappa_a[0]
        p = valid_params(
            omega_a=(TWO_PI * 1e10 + 0.3 * unit, TWO_PI * 1e10),
            omega_m=(TWO_PI * 1e10, TWO_PI * 1e10 - 0.7 * unit),
        )
        a = build_drift(p)
        assert a[0, 1] == pytest.approx(0.3, rel=1e-12)
        assert a[1, 0] == pytest.approx(-0.3, rel=1e-12)
        assert a[6, 7] == pytest.approx(-0.7, rel=1e-12)
        assert a[7, 6] == pytest.approx(0.7, rel=1e-12)

    def test_transpose_asymmetry_of_coupling(self):
        a = build_drift(BASELINE)
        assert a[0, 5] == 5.0
        assert a[1, 4] == -5.0
        assert a[4, 1] == 5.0
        assert a[5, 0] == -5.0

    def test_structural_nonzero_count(self):
        unit = BASELINE.kappa_a[0]
        p = valid_params(
            omega_a=(TWO_PI * 1e10 + 0.2 * unit, TWO_PI * 1e10 + 0.4 * unit),
            omega_m=(TWO_PI * 1e10 + 0.6 * unit, TWO_PI * 1e10 + 0.8 * unit),
        )
        assert np.count_nonzero(build_drift(p)) == 24

    @given(
        kappa_m=st.floats(0.01, 2.0),
        g=st.floats(0.0, 10.0),
        da=st.floats(-2.0, 2.0),
        dm=st.floats(-2.0, 2.0),
    )
    @settings(max_examples=80)
    def test_always_stable_for_positive_decay(self, kappa_m, g, da, dm):
        unit = BASELINE.kappa_a[0]
        p = valid_params(
            kappa_m=(kappa_m * unit, kappa_m * unit),
            g=(g * unit, g * unit),
            omega_a=(TWO_PI * 1e10 + da * unit, TWO_PI * 1e10),
            omega_m=(TWO_PI * 1e10 + dm * unit, TWO_PI * 1e10),
        )
        assert stability(build_drift(p)) < 0.0

    @given(
        kappa_a2=st.floats(0.1, 10.0),
        kappa_m=st.tuples(st.floats(1e-9, 10.0), st.floats(1e-9, 10.0)),
        g=st.tuples(st.floats(0.0, 20.0), st.floats(0.0, 20.0)),
        detunings=st.tuples(*[st.floats(-50.0, 50.0)] * 4),
    )
    @settings(max_examples=80)
    def test_symmetric_part_is_the_decay(self, kappa_a2, kappa_m, g, detunings):
        # A + A^T = -2 diag(kappa) / kappa_a1 for every valid parameter
        # set, so max Re lambda <= -min(kappa) / kappa_a1 < 0: the model
        # cannot produce an unstable drift, and reports carry no
        # stability check.
        unit = BASELINE.kappa_a[0]
        omega = TWO_PI * 1e10
        da1, da2, dm1, dm2 = (d * unit for d in detunings)
        p = valid_params(
            kappa_a=(unit, kappa_a2 * unit),
            kappa_m=(kappa_m[0] * unit, kappa_m[1] * unit),
            g=(g[0] * unit, g[1] * unit),
            omega_a=(omega + da1, omega + da2),
            omega_m=(omega + dm1, omega + dm2),
        )
        a = build_drift(p)
        kappa = np.repeat(np.array(p.kappa_a + p.kappa_m) / unit, 2)
        assert np.array_equal(a + a.T, -2.0 * np.diag(kappa))


class TestBuildDiffusion:
    def test_vacuum_noise_floor(self):
        d = build_diffusion(valid_params(r=0.0, temperature=0.0))
        assert np.array_equal(d, np.diag([1.0] * 4 + [0.2] * 4))

    def test_squeezed_drive_entries_at_r1(self):
        d = build_diffusion(valid_params(r=1.0, temperature=0.0))
        sinh2 = math.sinh(2.0)
        cosh2 = math.cosh(2.0)
        assert d[0, 0] == pytest.approx(cosh2, rel=1e-12)
        assert d[2, 2] == pytest.approx(cosh2, rel=1e-12)
        assert d[0, 2] == pytest.approx(sinh2, rel=1e-12)
        assert d[2, 0] == pytest.approx(sinh2, rel=1e-12)
        assert d[1, 3] == pytest.approx(-sinh2, rel=1e-12)
        assert d[0, 3] == 0.0
        assert d[1, 2] == 0.0
        assert np.allclose(d[4:, 4:], 0.2 * np.eye(4), atol=1e-15)

    def test_phase_moves_weight_to_cross_quadrature(self):
        d = build_diffusion(valid_params(r=1.0, theta=math.pi / 2.0))
        sinh2 = math.sinh(2.0)
        assert d[0, 2] == pytest.approx(0.0, abs=1e-12)
        assert d[0, 3] == pytest.approx(sinh2, rel=1e-12)
        assert d[1, 2] == pytest.approx(sinh2, rel=1e-12)

    def test_thermal_magnon_floor(self):
        d = build_diffusion(valid_params(r=0.0, temperature=0.1))
        expected = 0.2 * (2.0 * OCC_10GHZ_100MK + 1.0)
        assert d[4, 4] == pytest.approx(expected, rel=1e-12)
        assert d[7, 7] == pytest.approx(expected, rel=1e-12)

    @given(r=st.floats(0.0, 2.5), theta=st.floats(-math.pi, math.pi), t=st.floats(0.0, 2.0))
    @settings(max_examples=60)
    def test_always_symmetric_psd(self, r, theta, t):
        d = build_diffusion(valid_params(r=r, theta=theta, temperature=t))
        assert np.array_equal(d, d.T)
        assert float(np.min(np.linalg.eigvalsh(d))) >= -1e-9


class TestSteadyStateCm:
    def test_mode_labels(self):
        assert steady_state_cm(BASELINE).mode_labels == MODE_LABELS

    def test_vacuum_input_gives_vacuum_state(self):
        cm = steady_state_cm(valid_params(r=0.0, temperature=0.0))
        assert np.allclose(cm.entries, 0.5 * np.eye(8), atol=1e-12)

    def test_decoupled_cavities_host_the_input_state(self):
        cm = steady_state_cm(valid_params(r=0.8, g=(0.0, 0.0), temperature=0.0))
        cavities = reduce(cm, (0, 1))
        magnons = reduce(cm, (2, 3))
        assert np.allclose(cavities.entries, tmsv_cm(0.8).entries, atol=1e-10)
        assert np.allclose(magnons.entries, 0.5 * np.eye(4), atol=1e-12)

    def test_magnon_block_matches_closed_form(self):
        cm = steady_state_cm(valid_params(r=1.0, temperature=0.0))
        block = reduce(cm, (2, 3))
        ref = vmm_analytic(ReducedParams(kappa_ratio=0.2, coupling_ratio=5.0, r=1.0))
        assert np.linalg.norm(block.entries - ref.entries) < 1e-10

    def test_result_is_physical(self):
        cm = steady_state_cm(valid_params(r=1.5, temperature=0.5))
        assert symplectic_eigenvalues(cm)[0] >= 0.5 - 1e-9

    @pytest.mark.parametrize(
        "overrides",
        [
            {"temperature": 1.7e308},  # occupation ~ T overflows 2 N + 1
            {"kappa_a": (1e-301, 1e-301)},  # g / kappa_a1 overflows
        ],
        ids=["hot-bath", "tiny-cavity-linewidth"],
    )
    def test_non_finite_model_matrices_raise_typed_error(self, overrides):
        params = valid_params(**overrides)
        with pytest.raises(NumericalFailureError, match="overflows"):
            steady_state_cm(params)
        with pytest.raises(NumericalFailureError, match="overflows"):
            entanglement_report(params)


def box_params(kappa_a2, kappa_m_exp, g, exceptional, detunings, drive_ghz, r, theta, temperature):
    """A valid point; with ``exceptional`` each g_j sits on |kappa_aj - kappa_mj| / 2."""
    unit = BASELINE.kappa_a[0]
    kappa_a = (1.0, kappa_a2)
    kappa_m = tuple(10.0**e for e in kappa_m_exp)
    if exceptional:
        g = tuple(abs(ka - km) / 2.0 for ka, km in zip(kappa_a, kappa_m))
    drive = tuple(TWO_PI * 1e9 * f for f in drive_ghz)
    da1, da2, dm1, dm2 = (d * unit for d in detunings)
    return SystemParams(
        omega_a=(drive[0] + da1, drive[1] + da2),
        omega_m=(drive[0] + dm1, drive[1] + dm2),
        omega_drive=drive,
        kappa_a=tuple(k * unit for k in kappa_a),
        kappa_m=tuple(k * unit for k in kappa_m),
        g=tuple(x * unit for x in g),
        r=r,
        theta=theta,
        temperature=temperature,
    )


def relative_residual(params: SystemParams, v) -> float:
    """||A V + V A^T + D||_F / ||D||_F, with V and D scaled to unit largest |D| entry."""
    a, d = build_drift(params), build_diffusion(params)
    exponent = math.frexp(float(np.max(np.abs(d))))[1]
    v, d = np.ldexp(v, -exponent), np.ldexp(d, -exponent)
    return float(np.linalg.norm(a @ v + v @ a.T + d) / np.linalg.norm(d))


def assert_stacks_match_the_per_point_builds(points, fields=None):
    """model._stacks of ``fields`` (by default the record of ``points``), its drifts broadcast to the cells, and of
    each point alone, equals the per-point builds of ``points`` byte for byte, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a, d, _ = model._stacks(fields_of(points) if fields is None else fields)
        alone = [model._stacks(model._Fields.point(p))[:2] for p in points]
    a, d = np.broadcast_to(a, d.shape).reshape(-1, 8, 8), d.reshape(-1, 8, 8)  # each cell's drift
    assert a.shape == d.shape == (len(points), 8, 8)
    assert [x.tobytes() for x in a] == [drift_by_point(p).tobytes() for p in points]
    assert [x.tobytes() for x in d] == [diffusion_by_point(p).tobytes() for p in points]
    assert [(x.tobytes(), y.tobytes()) for x, y in alone] == [(x.tobytes(), y.tobytes()) for x, y in zip(a, d)]


# The wide box, out to r = R_MAX, T = 1e300 K and a cavity linewidth of 2 pi 1e-305 Hz,
# with signed zeros: 0.0 and -0.0 share a dict key but not every matrix byte.
WIDE_POINT = st.builds(
    lambda hz, **box: box_params(**box) if hz is None else apply_parameter(box_params(**box), "kappa_a_hz", hz),
    hz=st.one_of(st.none(), st.floats(1e-305, 1e-280)),
    kappa_a2=st.floats(0.1, 10.0),
    kappa_m_exp=st.tuples(st.floats(-12.0, 2.0), st.floats(-12.0, 2.0)),
    g=st.tuples(st.floats(0.0, 50.0), st.floats(0.0, 50.0)),
    exceptional=st.booleans(),
    detunings=st.tuples(*[st.floats(-50.0, 50.0)] * 4),
    drive_ghz=st.tuples(st.floats(1.0, 20.0), st.floats(1.0, 20.0)),
    r=st.one_of(st.sampled_from((0.0, -0.0, 1.0)), st.floats(0.0, R_MAX)),
    theta=st.one_of(st.sampled_from((0.0, -0.0, math.pi)), st.floats(-math.pi, math.pi)),
    temperature=st.one_of(st.sampled_from((0.0, -0.0, 0.1)), st.floats(0.0, 1e300)),
)


class TestStackedBuild:
    """The one stacked builder against the per-point builds of ``tests/oracles.py``."""

    @given(batch=st.lists(WIDE_POINT, min_size=1, max_size=5))
    @settings(max_examples=200)
    def test_equals_the_per_point_build_bitwise(self, batch):
        # Each added point repeats one point's (omega_m, T) and another's (r, theta).
        batch += [p.replace(r=q.r, theta=q.theta) for p, q in zip(batch, batch[::-1])]
        assert_stacks_match_the_per_point_builds(batch)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_every_preset_grid_is_bitwise_the_per_point_build(self, name):
        spec = figure_preset(name, resolution=5)
        assert_stacks_match_the_per_point_builds(grid_points(spec), _grid_fields(spec))

    # Distinct drift values of each preset at resolution 7: r, theta and T change only the diffusion.
    DRIFTS = {**dict.fromkeys(PRESET_NAMES, 49), "fig2c": 1, "fig4": 1, "fig3a": 7, "fig3b": 3}

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_each_preset_builds_and_factorises_one_drift_per_value(self, name, calls):
        spec = figure_preset(name, resolution=7)
        fields = _grid_fields(spec)
        a, d, _ = model._stacks(fields)
        assert a[..., 0, 0].size == self.DRIFTS[name] and d.shape == (*fields.shape, 8, 8)
        run_sweep(spec)
        assert calls["_real_schur"] == self.DRIFTS[name]
        # A drift that serves 7 cells solves its 6 members; one that serves one cell solves that cell's D.
        assert calls["_triangular_solve"] == (6 * self.DRIFTS[name] if self.DRIFTS[name] < 49 else 49)

    def test_an_overflowing_member_raises_the_typed_error_without_a_warning(self):
        tiny = apply_parameter(BASELINE, "kappa_a_hz", 1e-302)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailureError, match="drift or diffusion matrix overflows"):
                columns_of([BASELINE, tiny, valid_params(r=0.3)])

    def test_the_first_squeezing_above_r_max_raises_the_one_point_message(self):
        tiny = apply_parameter(BASELINE, "kappa_a_hz", 1e-302)
        points = [tiny, BASELINE, valid_params(r=2.0 * R_MAX), valid_params(r=R_MAX), valid_params(r=3.0 * R_MAX)]
        with pytest.raises(NumericalFailureError) as one_point:
            noise_moments(points[2])
        for build in (lambda points: model._stacks(fields_of(points)), columns_of):
            with pytest.raises(NumericalFailureError) as batch:
                build(points)
            assert str(batch.value) == str(one_point.value)


# The box of the thermal route's tests: T out to 1e300 K, kappa_m down to 1e-9 kappa_a.
THERMAL_BOX = dict(
    kappa_a2=st.floats(0.3, 3.0),
    kappa_m_exp=st.tuples(st.floats(-9.0, 1.0), st.floats(-9.0, 1.0)),
    g=st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0)),
    exceptional=st.booleans(),
    detunings=st.tuples(*[st.floats(-3.0, 3.0)] * 4),
    drive_ghz=st.tuples(st.floats(5.0, 15.0), st.floats(5.0, 15.0)),
    r=st.floats(0.0, 3.0),
    theta=st.floats(-math.pi, math.pi),
    temperature=st.one_of(st.just(0.0), st.floats(0.0, 2.0), st.floats(0.0, 1e300)),
)


# Shared-drift grids: an r x T lattice on a point with theta != 0, omega_m1 != omega_m2 and kappa_a2 != kappa_a1,
# r <= 4 and T up to 1e6 K, of 1 to 28 cells, so on both sides of the switch to the members at 7 cells per drift.
SHARED_DRIFT_BOX = dict(
    kappa_a2=st.floats(0.3, 3.0).filter(lambda x: x != 1.0),
    kappa_m_exp=st.tuples(st.floats(-9.0, 1.0), st.floats(-9.0, 1.0)),
    g=st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0)),
    exceptional=st.booleans(),
    detunings=st.tuples(*[st.floats(-3.0, 3.0)] * 4),
    drive_ghz=st.tuples(st.floats(5.0, 15.0), st.floats(5.0, 15.0)),
    theta=st.floats(-math.pi, math.pi).filter(bool),
    rs=st.lists(st.floats(0.0, 4.0), min_size=1, max_size=7, unique=True).map(sorted),
    temperatures=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e6)), min_size=1, max_size=4, unique=True).map(sorted),
)


MATCHED_PAIR = dict(
    kappa_a2=1.5,
    kappa_m_exp=(-0.5, -1.0),
    g=(5.0, 4.0),
    exceptional=False,
    detunings=(0.1, -0.2, 0.3, 0.4),
    drive_ghz=(10.0, 10.0),
    theta=0.5,
)


def member_moments(fields):
    """Each cell's pair moments on the member route of a shared-drift grid (``model._columns``), (*shape, 10, pairs):
    its weights on its drift's members, through ``model._superposed``, gated against its own D's largest |entry|."""
    a, d, superposition = model._stacks(fields)
    members, weights = superposition()
    return model._superposed(a[..., None, :, :], members, model._PAIRS)(weights, np.abs(d).max(axis=(-2, -1)))


# Grids whose drift is one, one per row (axis 1 is a coupling) or one per column (axis 2 is), and its batch shape.
DRIFT_LAYOUTS = {
    "one-drift": (lambda rs, ts, gs: (SweepAxis("r", rs), SweepAxis("temperature", ts)), lambda rs, ts, gs: ()),
    "drift-per-row": (lambda rs, ts, gs: (SweepAxis("g1", gs), SweepAxis("r", rs)), lambda rs, ts, gs: (len(gs), 1)),
    "drift-per-column": (lambda rs, ts, gs: (SweepAxis("r", rs), SweepAxis("g1", gs)), lambda rs, ts, gs: (len(gs),)),
}


class TestNoiseMembers:
    """The member route of a shared-drift grid, read as pair moments, against each cell's direct solve on the same
    stacks, and its forms gate against each cell's assembled state."""

    @given(**SHARED_DRIFT_BOX)
    @settings(max_examples=150)
    # Eight cells on one drift, which take the members, and six, the most that do not.
    @example(**MATCHED_PAIR, rs=[0.0, 1.0, 2.0, 3.0], temperatures=[0.0, 0.1])
    @example(**MATCHED_PAIR, rs=[0.0, 1.0, 2.0], temperatures=[0.0, 0.1])
    def test_superposed_grid_equals_the_direct_solve(self, rs, temperatures, **box):
        base = box_params(**box, r=0.0, temperature=0.0)
        assume(base.omega_m[0] != base.omega_m[1])
        fields = _grid_fields(SweepSpec(base, SweepAxis("r", rs), SweepAxis("temperature", temperatures), ("E_mm",)))
        a, d, superposition = model._stacks(fields)
        members, rows = superposition()
        # Each member is PSD, so the members' solve keeps its PSD check, and the cells' weights give back each D.
        assert np.all(np.linalg.eigvalsh(members)[:, 0] >= -1e-14 * np.abs(members).max(axis=(1, 2)))
        # (to the rounding of a sum of six products, 6 eps of its absolute terms)
        rounding = 6.0 * np.finfo(float).eps * np.einsum("...b,bij->...ij", np.abs(rows), np.abs(members))
        assert np.all(np.abs(np.einsum("...b,bij->...ij", rows, members) - d) <= rounding)
        superposed = outcome(lambda: member_moments(fields).reshape(-1, 10, len(model._PAIRS)))
        direct = outcome(lambda: solve_lyapunov(a, d).reshape(-1, 8, 8))
        if isinstance(superposed, np.ndarray) and isinstance(direct, np.ndarray):
            # Either route errs by about cond * eps of ||V||, cond the solver's condition estimate; each moment is
            # half a sum of two entries of V, so it errs by no more than V does.
            cond = np.abs(a).sum(0).max() / (2.0 * abs(np.linalg.eigvals(a).real.max()))
            bound = (1e-12 + 10.0 * cond * np.finfo(float).eps) * np.abs(direct).max(axis=(1, 2))
            assert np.all(np.abs(superposed - pair_moments(direct, model._PAIRS)).max(axis=(1, 2)) <= bound)
        elif isinstance(superposed, np.ndarray) or isinstance(direct, np.ndarray):
            # The checks are the same on both routes: only a residual can tell them apart.
            failed = direct if isinstance(superposed, np.ndarray) else superposed
            assert isinstance(failed, NumericalFailureError) and "residual" in str(failed)
        else:
            assert type(superposed) is type(direct)

    @pytest.mark.parametrize(
        "axis1,axis2",
        [
            (SweepAxis("g", tuple(np.linspace(0.5, 8.0, 8))), SweepAxis("r", tuple(np.linspace(0.0, 2.0, 8)))),
            (SweepAxis("r", tuple(np.linspace(0.0, 2.0, 8))), SweepAxis("g", tuple(np.linspace(0.5, 8.0, 8)))),
            (SweepAxis("kappa_m2", (0.1, 0.5, 1.0)), SweepAxis("theta", tuple(np.linspace(-3.0, 3.0, 9)))),
        ],
        ids=["drift-per-row", "drift-per-column", "3-drifts-x-9-phases"],
    )
    def test_a_drift_per_axis_value_superposes_along_either_axis(self, axis1, axis2):
        fields = _grid_fields(SweepSpec(BASELINE.replace(temperature=0.05), axis1, axis2, ("E_mm",)))
        a, d, _ = model._stacks(fields)
        assert a.shape[:-2] in ((len(axis1.values), 1), (len(axis2.values),))  # a drift per value of one axis
        assert d.size > len(model._MEMBERS) * a.size  # more cells than members per drift: the grid takes them
        direct = pair_moments(solve_lyapunov(a, d), model._PAIRS)
        superposed = member_moments(fields)
        assert np.abs(superposed - direct).max() <= 1e-14 * np.abs(direct).max()
        # ... and they are the moments that the grid's columns are read from.
        indicators = _closed_form(superposed.reshape(-1, 10, len(model._PAIRS)))
        columns = model._columns(fields)
        assert np.array_equal(columns["N_am"], indicators[:, 2])
        assert np.array_equal(columns["E_mm"], clamp_negativity(indicators[:, 1]))

    @given(
        **SHARED_DRIFT_BOX,
        layout=st.sampled_from(sorted(DRIFT_LAYOUTS)),
        couplings=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=3, unique=True).map(sorted),
    )
    @settings(max_examples=150)
    @example(**MATCHED_PAIR, rs=[0.0, 1.0, 2.0], temperatures=[0.0, 0.1], layout="drift-per-row", couplings=[1.0, 5.0])
    @example(**MATCHED_PAIR, rs=[0.0, 1.0, 2.0], temperatures=[0.1], layout="drift-per-column", couplings=[1.0, 5.0])
    def test_forms_gate_each_cell_as_its_assembled_state(self, rs, temperatures, layout, couplings, **box):
        # The gate's residual of a cell is two quadratic forms in its weights; it must equal what the cell's assembled
        # 8x8 V(c) gives against its drift and its own D, on drift stacks of shape (), (m, 1) and (m,).
        base = box_params(**box, r=0.0, temperature=temperatures[-1])
        assume(base.omega_m[0] != base.omega_m[1])
        axes, shape = (f(rs, temperatures, couplings) for f in DRIFT_LAYOUTS[layout])
        a, d, superposition = model._stacks(_grid_fields(SweepSpec(base, *axes, ("E_mm",))))
        assert a.shape[:-2] == shape
        members, weights = superposition()
        v = outcome(lambda: solve_lyapunov(a[..., None, :, :], members, gate=False))
        assume(isinstance(v, np.ndarray))  # an unsolvable drift stops both routes alike
        peak, forms, raise_first = np.abs(d).max(axis=(-2, -1)), [], linsys.raise_first

        def record(failed, error, message, *values):
            if message != linsys._RESIDUAL:
                raise_first(failed, error, message, *values)
            forms.append(values[0])

        with mock.patch.object(linsys, "raise_first", record):
            linsys.superposition_gate(a[..., None, :, :], v, members)(weights, peak)
        exponent = np.frexp(peak)[1][..., None, None]
        v, d = np.ldexp(np.einsum("...b,...bij->...ij", weights, v), -exponent), np.ldexp(d, -exponent)
        residual = np.linalg.norm(a @ v + v @ a.swapaxes(-1, -2) + d, axis=(-2, -1))
        # The rounding of V(c)'s sum and of either residual, eps * (2 ||A|| ||V|| + ||D||).
        norm = lambda x: np.linalg.norm(x, axis=(-2, -1))  # noqa: E731
        rounding = np.finfo(float).eps * (2.0 * norm(a) * norm(v) + norm(d))
        assert forms[0].shape == residual.shape == d.shape[:-2]
        assert np.all(np.abs(forms[0] - residual) <= 2.0 * rounding)

    def test_each_cell_keeps_the_checks_of_a_direct_solve(self, monkeypatch):
        # fig2c at resolution 7: 49 cells on one drift, so the members route.
        fields, stacks, solve = _grid_fields(figure_preset("fig2c", 7)), model._stacks, model.solve_lyapunov
        # Each cell is gated against its own A and D: member responses off by a millionth put every cell's
        # residual at a millionth of its ||D||.
        monkeypatch.setattr(model, "solve_lyapunov", lambda a, d, gate: solve(a, d, gate) * (1.0 + 1e-6))
        with pytest.raises(NumericalFailureError, match="Lyapunov residual .* exceeds 1.0e-09"):
            model._columns(fields)
        monkeypatch.undo()

        def asymmetric(fields):  # cell (3, 3)'s D with one cross term of the wrong sign
            a, d, superposition = stacks(fields)
            d[3, 3, 2, 0] *= -1.0
            return a, d, superposition

        # Each D is checked as the direct solve checks it, before the members are solved.
        monkeypatch.setattr(model, "_stacks", asymmetric)
        monkeypatch.setattr(model, "solve_lyapunov", lambda *args, **kwargs: pytest.fail("members solved"))
        with pytest.raises(ValueError, match="diffusion matrix must be symmetric"):
            model._columns(fields)


class TestThermalSteadyState:
    """The steady state as a function of temperature, read as pair moments (``thermal_pair_moments``)."""

    @given(**THERMAL_BOX)
    @settings(max_examples=150)
    # A nearly decoupled, detuned second magnon with kappa_m2 = 1e-7: W2
    # alone misses the residual gate by 4x, V(0) passes it like the direct solve.
    @example(
        kappa_a2=1.0,
        kappa_m_exp=(0.0, -7.0),
        g=(1e-172, 0.0),
        exceptional=False,
        detunings=(0.0, 0.0, 1.0, 1.0),
        drive_ghz=(5.0, 5.0),
        r=0.0,
        theta=0.0,
        temperature=0.0,
    )
    def test_superposition_matches_the_direct_solve(self, temperature, **box):
        params = box_params(**box, temperature=temperature)
        direct = outcome(lambda: steady_state_cm(params).entries)
        superposed = outcome(lambda: thermal_pair_moments(params, model._PAIRS)([temperature])[0])
        if isinstance(direct, np.ndarray) and isinstance(superposed, np.ndarray):
            expected = pair_moments(direct[None], model._PAIRS)[0]
            assert np.max(np.abs(superposed - expected)) <= 1e-12 * np.max(np.abs(direct))
        elif isinstance(direct, CavmagError) and isinstance(superposed, CavmagError):
            assert type(superposed) is type(direct)
        else:
            # Two routes may fall on either side of the residual gate only
            # where the one that passes is within a factor 10 of it.
            if isinstance(direct, np.ndarray):
                passed, failed = direct, superposed
            else:
                passed, failed = assembled_state(params, thermal_members(params)[2], temperature), direct
            assert isinstance(failed, NumericalFailureError) and "residual" in str(failed)
            assert relative_residual(params, passed) > 1e-10

    @given(**THERMAL_BOX)
    @settings(max_examples=150)
    def test_forms_and_moments_equal_the_assembled_state(self, temperature, **box):
        # The gate's residual is its two quadratic forms; the moments are c . q. Both must
        # equal what the assembled 8x8 V(T) and D(T) give, gate passed or not.
        params = box_params(**box, temperature=temperature)
        forms, raise_first = [], linsys.raise_first

        def record(failed, error, message, *values):
            if message != linsys._RESIDUAL:
                raise_first(failed, error, message, *values)
            forms.append(values[0])

        with mock.patch.object(linsys, "raise_first", record):
            moments = outcome(lambda: thermal_pair_moments(params, model._PAIRS)([temperature])[0])
        if isinstance(moments, CavmagError):
            # Only a drift or bath that overflows, or an unsolvable drift, stops the route.
            with pytest.raises(type(moments)):
                steady_state_cm(params)
            return
        a, _, members = thermal_members(params)
        v, d = assembled_state(params, members, temperature), build_diffusion(params)
        exponent = math.frexp(float(np.max(np.abs(d))))[1]
        v, d = np.ldexp(v, -exponent), np.ldexp(d, -exponent)
        residual = np.linalg.norm(a @ v + v @ a.T + d)
        # The rounding of V(T)'s sum and of either residual, eps * (2 ||A|| ||V|| + ||D||)
        # (at most 0.36 of it over 7000 random points, kappa_m at its extremes included).
        rounding = np.finfo(float).eps * (2.0 * np.linalg.norm(a) * np.linalg.norm(v) + np.linalg.norm(d))
        assert abs(forms[0][0] - residual) <= 2.0 * rounding
        expected = pair_moments(np.ldexp(v, exponent)[None], model._PAIRS)[0]
        assert np.max(np.abs(moments - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_zero_temperature_is_the_direct_solve_exactly(self):
        params = valid_params(r=0.7, g=(4.0 * BASELINE.kappa_a[0], 6.0 * BASELINE.kappa_a[0]))
        moments = thermal_pair_moments(params, model._PAIRS)([0.0])
        assert np.array_equal(moments, pair_moments(steady_state_cm(params).entries[None], model._PAIRS))

    @pytest.mark.parametrize("temperatures", [[], (), np.empty(0)])
    def test_no_temperatures_give_an_empty_stack(self, temperatures):
        moments = thermal_pair_moments(valid_params(r=0.7), model._PAIRS)(temperatures)
        assert moments.shape == (0, 10, len(model._PAIRS)) and moments.dtype == float

    def test_a_stack_is_its_temperatures_one_by_one(self):
        moments = thermal_pair_moments(valid_params(r=0.7), model._PAIRS)
        temperatures = [0.0, 0.05, 0.3, 2.0, 1e300]
        assert np.array_equal(moments(temperatures), np.concatenate([moments([t]) for t in temperatures]))

    def test_each_temperature_is_gated_against_its_own_diffusion(self, monkeypatch):
        gated, superposition_gate = [], model.superposition_gate

        def record(a, v, d):
            gate = superposition_gate(a, v, d)
            return lambda c, peak: gated.append((a, d, c, peak)) or gate(c, peak)

        monkeypatch.setattr(model, "superposition_gate", record)
        moments = thermal_pair_moments(BASELINE, model._PAIRS)
        for temperature in (0.0, 0.3, 1e300):
            moments([temperature])
            a, members, (c,), (peak,) = gated[-1]
            params = BASELINE.replace(temperature=temperature)
            d = build_diffusion(params)
            assert np.array_equal(a, build_drift(params))
            assert list(c) == [1.0, *(thermal_occupation(omega, temperature) for omega in params.omega_m)]
            assert peak == np.max(np.abs(d))
            # D(T) = D0 + n1 D1 + n2 D2, to the rounding of the sum.
            assert np.allclose(np.tensordot(c, members, 1), d, rtol=4e-16, atol=0.0)
        assert len(gated) == 3

    def test_overflowing_bath_raises_the_steady_state_error(self):
        moments = thermal_pair_moments(BASELINE, model._PAIRS)
        with pytest.raises(NumericalFailureError) as excinfo:
            moments([1.7e308])
        assert str(excinfo.value) == "drift or diffusion matrix overflows at these parameters"

    def test_overflowing_drift_raises_before_any_temperature(self):
        with pytest.raises(NumericalFailureError, match="overflows"):
            thermal_pair_moments(valid_params(kappa_a=(1e-301, 1e-301)), model._PAIRS)


class TestEntanglementReport:
    def test_baseline_magnon_entanglement_frozen(self):
        rep = entanglement_report(valid_params(r=1.0, temperature=0.0))
        assert rep.E_mm == pytest.approx(E_MM_BASELINE_R1_T0, abs=1e-9)

    def test_headline_value_at_100mk(self):
        rep = entanglement_report(valid_params(r=0.4, temperature=0.1))
        assert rep.E_mm == pytest.approx(E_MM_R04_100MK, abs=1e-9)

    def test_cavity_magnon_pairs_unentangled(self):
        for r in (0.2, 1.0, 2.0):
            rep = entanglement_report(valid_params(r=r, temperature=0.1))
            assert rep.E_a1m1 == 0.0
            assert rep.E_a2m2 == 0.0

    def test_extreme_temperature_is_finite_and_separable(self):
        # ||D||_F overflows at 1e300 K; the solve's residual gate must
        # still hold, and the hot magnon baths leave no entanglement.
        params = valid_params(temperature=1e300)
        rep = entanglement_report(params)
        assert (rep.E_aa, rep.E_mm, rep.E_a1m1, rep.E_a2m2) == (0.0, 0.0, 0.0, 0.0)
        assert math.isfinite(state_nu_min([params])[0])

    def test_extreme_temperature_raises_no_warning(self):
        # Magnon entries near 1e300: the pair products overflow unless rescaled.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = entanglement_report(valid_params(temperature=1e300))
        assert rep.N_am < 0.0 and math.isfinite(rep.N_am)

    def test_decoupled_limit(self):
        rep = entanglement_report(valid_params(r=0.4, g=(0.0, 0.0), temperature=0.0))
        assert rep.E_aa == pytest.approx(0.8, abs=1e-9)
        assert rep.E_mm == 0.0

    def test_subsystem_swap_symmetry(self):
        unit = BASELINE.kappa_a[0]
        p = valid_params(
            kappa_a=(unit, 1.3 * unit),
            kappa_m=(0.2 * unit, 0.35 * unit),
            g=(5.0 * unit, 3.0 * unit),
            omega_a=(TWO_PI * 1e10 + 0.2 * unit, TWO_PI * 1e10 - 0.1 * unit),
            r=0.9,
            temperature=0.05,
        )
        swapped = p.replace(
            kappa_a=p.kappa_a[::-1],
            kappa_m=p.kappa_m[::-1],
            g=p.g[::-1],
            omega_a=p.omega_a[::-1],
            omega_m=p.omega_m[::-1],
            omega_drive=p.omega_drive[::-1],
        )
        rep = entanglement_report(p)
        rep_swapped = entanglement_report(swapped)
        assert rep_swapped.E_mm == pytest.approx(rep.E_mm, abs=1e-10)
        assert rep_swapped.E_aa == pytest.approx(rep.E_aa, abs=1e-10)


def scalar_report_fields(params: SystemParams) -> tuple[float, ...]:
    """The report's fields composed from the one-matrix functions, by the eigen-solve route."""
    cm = steady_state_cm(params)
    n_aa, n_mm, n_am1, n_am2 = (
        float(negativity_indicators(reduce(cm, pair).entries))
        for pair in ((0, 1), (2, 3), (0, 2), (1, 3))
    )
    e_aa, e_mm = clamp_negativity(n_aa), clamp_negativity(n_mm)
    ratio = e_mm / e_aa if e_aa > 0.0 else math.nan
    e_am = clamp_negativity(n_am1), clamp_negativity(n_am2)
    return (e_aa, e_mm, *e_am, ratio, n_am1)


def same_floats(a, b) -> bool:
    """Exact equality, with NaN equal to NaN."""
    return np.array_equal(np.array(a), np.array(b), equal_nan=True)


class TestEntanglementReports:
    def grid_points(self) -> list[SystemParams]:
        unit = BASELINE.kappa_a[0]
        drive = BASELINE.omega_drive
        detuned = BASELINE.replace(
            omega_a=(drive[0] + 0.3 * unit, drive[1]),
            omega_m=(drive[0], drive[1] - 0.2 * unit),
            temperature=0.05,
        )
        points = [
            detuned.replace(kappa_m=(km * unit, km * unit), g=(g * unit, g * unit))
            for km in (0.05, 0.2, 1.0)
            for g in (0.0, 0.4, 2.5, 7.0)
        ]
        return points + [p.replace(r=0.0) for p in points[:4]]

    def test_fields_equal_the_scalar_composition(self):
        # The closed-form pair negativities against the eigen-solve route.
        points = self.grid_points()
        columns = columns_of(points)
        assert tuple(columns) == OUTPUT_COLUMNS
        rows = np.stack(list(columns.values()), axis=1)
        assert rows.shape == (len(points), len(OUTPUT_COLUMNS))
        for params, row in zip(points, rows):
            expected = scalar_report_fields(params)
            assert np.allclose(row, expected, rtol=0.0, atol=1e-12, equal_nan=True)
        assert np.all(columns["E_aa"][-4:] == 0.0)
        assert np.all(np.isnan(columns["E_mm_over_E_aa"][-4:]))

    def test_single_report_is_a_batch_of_one(self):
        points = self.grid_points()
        rows = zip(*columns_of(points).values())
        for params, row in zip(points, rows):
            single = dataclasses.astuple(entanglement_report(params))
            assert same_floats(single, row)

    def test_one_batch_costs_one_pair_call_and_no_spectrum_call(self, calls):
        stages = ("solve_lyapunov", "_closed_form", "symplectic_spectra", "negativity_indicators")
        columns_of(self.grid_points())
        assert [calls[name] for name in stages] == [1, 1, 0, 0]
        entanglement_report(BASELINE)
        assert [calls[name] for name in stages] == [2, 2, 0, 0]

    def test_one_solve_call_factorises_each_point_once_and_is_bitwise_per_point(self, monkeypatch):
        # Two drifts, nine points each: r and T change only the diffusion. A list of points
        # has one drift per point, so each point is factorised once, equal drifts or not.
        points = [
            p.replace(r=r, temperature=t)
            for p in self.grid_points()[5:7]
            for r in (0.0, 0.4, 1.3)
            for t in (0.0, 0.05, 2.0)
        ]
        per_point = np.stack([steady_state_cm(p).entries for p in points])
        solves, drifts, real_schur = [], [], linsys._real_schur

        def counted(a):
            drifts.append(a.copy())
            return real_schur(a)

        monkeypatch.setattr(linsys, "_real_schur", counted)
        monkeypatch.setattr(model, "solve_lyapunov", lambda *args: solves.append(args) or solve_lyapunov(*args))
        assert np.array_equal(model._steady_states(fields_of(points)), per_point)
        assert len(solves) == 1
        assert [a.tobytes() for a in drifts] == [build_drift(p).tobytes() for p in points]


class TestClosedFormPairs:
    """The model's pair negativities in closed form against the eigen-solve route."""

    @given(
        kappa_a2=st.floats(0.3, 3.0),
        kappa_m_exp=st.tuples(st.floats(-9.0, 1.0), st.floats(-9.0, 1.0)),
        g=st.tuples(st.floats(0.0, 20.0), st.floats(0.0, 20.0)),
        exceptional=st.booleans(),
        detunings=st.tuples(*[st.floats(-50.0, 50.0)] * 4),
        drive_ghz=st.tuples(st.floats(5.0, 15.0), st.floats(5.0, 15.0)),
        r=st.floats(0.0, 4.0),
        theta=st.floats(-math.pi, math.pi),
        temperature=st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
    )
    @settings(max_examples=300)
    # Decoupled cavities at r = 4: the routes differ by 2.9e-10, within the
    # round-off bound 2e-9 of either.
    @example(
        kappa_a2=1.0,
        kappa_m_exp=(-0.7, -0.7),
        g=(0.0, 0.0),
        exceptional=False,
        detunings=(0.0,) * 4,
        drive_ghz=(10.0, 10.0),
        r=4.0,
        theta=0.0,
        temperature=0.0,
    )
    # No drive, a near-singular second subsystem: round-off leaves V 9e-13
    # below the vacuum, which read as E_mm = E_a2m2 = 1.8e-12 before the
    # pair indicators were measured from the pair state's own floor.
    @example(
        kappa_a2=1.875,
        kappa_m_exp=(1.0, -4.25),
        g=(0.0, 0.0),
        exceptional=True,
        detunings=(0.0, 2.0, 1.0, 25.0),
        drive_ghz=(5.0, 5.0),
        r=0.0,
        theta=0.0,
        temperature=0.0,
    )
    def test_equal_the_eigen_route_wherever_both_resolve(self, **box):
        params = box_params(**box)
        try:
            v = model._steady_states(fields_of([params]))
        except CavmagError:
            return
        closed = outcome(lambda: pair_indicators(v, model._PAIRS)[0])
        assert not isinstance(closed, PairStructureError)
        if isinstance(closed, CavmagError):
            return
        for k, pair in enumerate(model._PAIRS):
            block = reduce(CovarianceMatrix(v[0]), pair)
            eigen = outcome(lambda: float(negativity_indicators(block.entries)))
            if isinstance(eigen, float):
                # Either route loses eps * ||V||_2 / nu_min to round-off, the
                # precision guard's measure; 1e-12 holds where that is small.
                nu_min = 0.5 * math.exp(-eigen)
                bound = 1e-12 + np.finfo(float).eps * np.linalg.eigvalsh(block.entries)[-1] / nu_min
                floor = min(0.0, math.log(2.0 * symplectic_eigenvalues(block)[0]))
                assert abs(closed[k] - (eigen + floor)) <= bound
        # A cavity and its own magnon stay separable.
        assert closed[2] <= SEPARABLE_SLACK and closed[3] <= SEPARABLE_SLACK
        rep = entanglement_report(params)
        assert rep.E_a1m1 == rep.E_a2m2 == 0.0 and rep.N_am == closed[2]

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_preset_columns_are_the_closed_form_of_the_direct_moments(self, name):
        fields = _grid_fields(figure_preset(name, 7))
        columns, expected = model._columns(fields), pair_indicators(model._steady_states(fields), model._PAIRS)
        a, d, _ = model._stacks(fields)
        if d.size <= len(model._MEMBERS) * a.size:  # each cell solved directly: the same bytes
            assert columns["N_am"].tobytes() == expected[:, 2].tobytes()
        # On the member route, within the round-off of either route.
        assert np.allclose(columns["N_am"], expected[:, 2], rtol=1e-12, atol=1e-14)
        assert np.allclose(columns["E_mm"], clamp_negativity(expected[:, 1]), rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("dim,pairs", [(8, ((2, 3),)), (8, model._PAIRS), (4, ((0, 1),)), (8, ()), (4, [])])
    def test_an_empty_stack_gives_empty_moments_and_indicators(self, dim, pairs):
        for k in (0, 3):  # no states, or three vacuum states
            v = np.tile(np.eye(dim) / 2, (k, 1, 1))
            assert pair_moments(v, pairs).shape == (k, 10, len(pairs))
            assert pair_indicators(v, pairs).shape == (k, len(pairs))

    def test_round_off_below_the_vacuum_is_no_entanglement(self):
        params = box_params(1.875, (1.0, -4.25), (0.0, 0.0), True, (0.0, 2.0, 1.0, 25.0), (5.0, 5.0), 0.0, 0.0, 0.0)
        rep = entanglement_report(params)
        assert state_nu_min([params])[0] < 0.5 - 1e-13
        assert (rep.E_aa, rep.E_mm, rep.E_a1m1, rep.E_a2m2) == (0.0, 0.0, 0.0, 0.0)


class TestBatchErrors:
    """A failing batch raises the error of its first failing stage: an
    overflowing drift or diffusion, then the Lyapunov solve (drifts in
    the order of their first point), then the precision guard, then
    physicality."""

    OK = BASELINE.replace(r=0.5)
    HOT = BASELINE.replace(temperature=1.7e308)  # diffusion overflows
    # g = 0 leaves the magnons decaying at kappa_m alone: near singular.
    SINGULAR = tuple(
        BASELINE.replace(g=(0.0, 0.0), kappa_m=(k * BASELINE.kappa_a[0],) * 2) for k in (1e-13, 1e-14)
    )
    BLURRED = BASELINE.replace(r=4.6, g=(0.0, 0.0))  # below the eigen-solve's resolution

    def test_overflow_comes_before_any_solve(self):
        with pytest.raises(NumericalFailureError, match="overflows"):
            columns_of([self.OK, self.SINGULAR[0], self.HOT])

    def test_solve_comes_before_the_precision_guard(self):
        with pytest.raises(NearSingularError):
            columns_of([self.BLURRED, self.OK, self.SINGULAR[0]])

    def test_drifts_fail_in_the_order_of_their_first_point(self):
        ok, (first, second) = self.OK, self.SINGULAR
        with pytest.raises(NearSingularError, match="5.000e\\+13"):
            columns_of([ok, second, ok.replace(r=1.0), first, second])
        with pytest.raises(NearSingularError, match="5.000e\\+12"):
            columns_of([ok, first, second, ok.replace(r=1.0)])

    def test_precision_guard_alone(self):
        with pytest.raises(NumericalFailureError, match="resolution"):
            columns_of([self.OK, self.BLURRED])
