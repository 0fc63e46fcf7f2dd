from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from cavmag.cvgaussian import (
    SEPARABLE_SLACK,
    CovarianceMatrix,
    _omega,
    clamp_negativity,
    log_negativity,
    negativity_indicators,
    partial_transpose,
    reduce,
    symplectic_eigenvalues,
    symplectic_spectra,
    two_mode_symplectic_eigenvalues,
)
from cavmag.errors import NumericalFailureError, PairStructureError, UnphysicalStateError
from cavmag.model import BASELINE, steady_state_cm

from conftest import local_rotation, pair_indicators, random_physical_cm, random_separable_cm, two_mode_squeezer
from oracles import symplectic_eigenvalues_by_invariants, symplectic_spectra_by_eigvals, tmsv_cm

# Frozen reference values, independently evaluated with 40-digit
# arithmetic and rounded to double precision.
COSH_08 = 1.337434946304844  # cosh(0.8)
SINH_08 = 0.888105982187623  # sinh(0.8)
COSH_2_HALF = 1.881097845541816  # cosh(2)/2
SINH_2_HALF = 1.813430203923509  # sinh(2)/2
EXP_M08_HALF = 0.2246644820586108  # exp(-0.8)/2
EXP_P08_HALF = 1.112770464246234  # exp(+0.8)/2


class TestSymplecticForm:
    def test_single_mode(self):
        assert np.array_equal(_omega(1), [[0.0, 1.0], [-1.0, 0.0]])

    def test_two_modes_block_structure(self):
        omega = _omega(2)
        expected = np.zeros((4, 4))
        expected[0, 1] = expected[2, 3] = 1.0
        expected[1, 0] = expected[3, 2] = -1.0
        assert np.array_equal(omega, expected)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_antisymmetric_and_orthogonal(self, n):
        omega = _omega(n)
        assert np.array_equal(omega, -omega.T)
        assert np.allclose(omega @ omega, -np.eye(2 * n))
        assert np.allclose(omega.T @ omega, np.eye(2 * n))

    def test_returned_copy_is_private(self):
        # The cached form is shared by every call, so it is read-only.
        with pytest.raises(ValueError):
            _omega(2)[0, 1] = 99.0
        assert _omega(2)[0, 1] == 1.0


class TestCovarianceMatrix:
    def test_entries_copied_and_read_only(self):
        src = np.eye(2)
        cm = CovarianceMatrix(src)
        src[0, 0] = 5.0
        assert cm.entries[0, 0] == 1.0
        with pytest.raises(ValueError):
            cm.entries[0, 0] = 2.0

    def test_default_labels(self):
        cm = CovarianceMatrix(np.eye(4))
        assert cm.mode_labels == ("mode0", "mode1")
        assert cm.n_modes == 2

    def test_custom_labels(self):
        cm = CovarianceMatrix(np.eye(4), ("alpha", "beta"))
        assert cm.mode_labels == ("alpha", "beta")

    def test_label_count_must_match(self):
        with pytest.raises(ValueError):
            CovarianceMatrix(np.eye(4), ("only-one",))

    @pytest.mark.parametrize(
        "bad",
        [
            np.eye(3),
            np.ones((2, 4)),
            np.array([[1.0, 0.5], [0.4, 1.0]]),
            np.array([[np.nan, 0.0], [0.0, 1.0]]),
            np.array([[np.inf, 0.0], [0.0, 1.0]]),
            np.zeros((0, 0)),
        ],
    )
    def test_invalid_entries_rejected(self, bad):
        with pytest.raises(ValueError):
            CovarianceMatrix(bad)

    @pytest.mark.parametrize("entries", [10**400, [[10**400, 0], [0, 1]]], ids=["int", "int-entry"])
    def test_an_integer_beyond_the_float_range_is_not_finite(self, entries):
        with pytest.raises(ValueError, match="^covariance matrix entries must be finite$"):
            CovarianceMatrix(entries)

    def test_symmetry_tolerance_is_relative(self):
        m = 1e6 * np.eye(2)
        m[0, 1] = 1e-7
        m[1, 0] = 0.0
        CovarianceMatrix(m)


class TestReduce:
    def test_extracts_requested_block(self):
        full = np.arange(64, dtype=float).reshape(8, 8)
        full = 0.5 * (full + full.T)
        cm = CovarianceMatrix(full, ("a", "b", "c", "d"))
        sub = reduce(cm, (2, 3))
        assert np.array_equal(sub.entries, full[4:8, 4:8])
        assert sub.mode_labels == ("c", "d")

    def test_keeps_requested_order(self):
        full = np.diag([1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0])
        cm = CovarianceMatrix(full)
        swapped = reduce(cm, (3, 0))
        assert np.array_equal(np.diag(swapped.entries), [4.0, 4.0, 1.0, 1.0])

    def test_all_modes_is_identity(self):
        cm = random_physical_cm(np.random.default_rng(7))
        same = reduce(cm, (0, 1))
        assert np.array_equal(same.entries, cm.entries)

    def test_single_mode_of_tmsv_is_thermal(self):
        r = 0.4
        one = reduce(tmsv_cm(r), (0,))
        assert np.allclose(one.entries, 0.5 * COSH_08 * np.eye(2), atol=1e-15)

    @pytest.mark.parametrize("modes", [(), (0, 0), (2,), (-1,), (0.7,), (1.0,), (True,), "01", b"\x00\x01", True, 1, None])
    def test_bad_mode_lists_rejected(self, modes):
        with pytest.raises(ValueError):
            reduce(tmsv_cm(0.3), modes)

    def test_reduction_of_physical_state_is_physical(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            cm = random_physical_cm(rng)
            assert symplectic_eigenvalues(reduce(cm, (1,)))[0] >= 0.5 - 1e-9


class TestPartialTranspose:
    def test_involution_exact(self):
        rng = np.random.default_rng(3)
        for mode in (0, 1):
            cm = random_physical_cm(rng)
            back = partial_transpose(partial_transpose(cm, mode), mode)
            assert np.array_equal(back.entries, cm.entries)

    def test_sign_pattern_on_tmsv(self):
        v = tmsv_cm(0.4).entries
        vt = partial_transpose(tmsv_cm(0.4), 0).entries
        flip = np.diag([1.0, -1.0, 1.0, 1.0])
        assert np.array_equal(vt, flip @ v @ flip)
        assert np.array_equal(np.diag(vt), np.diag(v))
        assert vt[0, 2] == v[0, 2]
        assert vt[1, 3] == -v[1, 3]

    def test_mode_choice_gives_same_spectrum(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            cm = random_physical_cm(rng)
            nu0 = symplectic_eigenvalues(partial_transpose(cm, 0))
            nu1 = symplectic_eigenvalues(partial_transpose(cm, 1))
            assert np.allclose(nu0, nu1, atol=1e-10)

    def test_product_state_unchanged(self):
        cm = CovarianceMatrix(np.diag([0.6, 0.6, 1.3, 1.3]))
        assert np.array_equal(partial_transpose(cm, 1).entries, cm.entries)

    def test_requires_two_modes(self):
        with pytest.raises(ValueError):
            partial_transpose(CovarianceMatrix(0.5 * np.eye(2)), 0)
        with pytest.raises(ValueError):
            partial_transpose(tmsv_cm(0.1), 2)

    @pytest.mark.parametrize("mode", [0.0, 1.0, True, -1, "0", None])
    def test_transposed_mode_must_be_an_integer_0_or_1(self, mode):
        with pytest.raises(ValueError):
            partial_transpose(tmsv_cm(0.1), mode)


class TestSymplecticEigenvalues:
    def test_vacuum_any_size(self):
        for n in (1, 2, 4):
            cm = CovarianceMatrix(0.5 * np.eye(2 * n))
            assert np.allclose(symplectic_eigenvalues(cm), 0.5, atol=1e-12)

    def test_tmsv_is_pure(self):
        for r in (0.0, 0.4, 1.0, 2.5):
            nus = symplectic_eigenvalues(tmsv_cm(r))
            assert np.allclose(nus, [0.5, 0.5], atol=1e-9)

    def test_pure_state_resolves_up_to_r_4(self):
        # The spectrum's relative error bound, eps times V's condition number e^(4r), is 2e-9 here.
        assert np.allclose(symplectic_eigenvalues(tmsv_cm(4.0)), [0.5, 0.5], atol=1e-9)

    @pytest.mark.parametrize("r", [5.0, 10.0, 20.0])
    def test_unresolved_pure_state_raises(self, r):
        # The bound passes 1e-8 near r = 4.42. Unguarded, tmsv_cm(10) read [0, 5.0e-9]
        # and tmsv_cm(20) [0, 2.23]; the truth is [0.5, 0.5].
        with pytest.raises(NumericalFailureError, match="resolution"):
            symplectic_eigenvalues(tmsv_cm(r))
        with pytest.raises(NumericalFailureError, match="resolution"):
            symplectic_spectra(np.stack([tmsv_cm(0.4).entries, tmsv_cm(r).entries]))

    def test_pt_tmsv_frozen_values(self):
        nus = symplectic_eigenvalues(partial_transpose(tmsv_cm(0.4), 0))
        assert nus[0] == pytest.approx(EXP_M08_HALF, abs=1e-12)
        assert nus[1] == pytest.approx(EXP_P08_HALF, abs=1e-12)

    def test_thermal_product_state(self):
        cm = CovarianceMatrix(np.diag([0.9, 0.9, 2.4, 2.4]))
        assert np.allclose(symplectic_eigenvalues(cm), [0.9, 2.4], atol=1e-12)

    def test_ascending_order(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            nus = symplectic_eigenvalues(random_physical_cm(rng))
            assert nus[0] <= nus[1]

    @staticmethod
    def assert_oracles_agree(cm):
        nus = symplectic_eigenvalues(cm)
        assert np.array_equal(two_mode_symplectic_eigenvalues(cm), nus)
        assert np.max(np.abs(nus - symplectic_spectra_by_eigvals(cm.entries))) < 1e-9
        assert np.max(np.abs(nus - symplectic_eigenvalues_by_invariants(cm))) < 1e-9

    def test_routes_agree_on_random_states(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            self.assert_oracles_agree(random_physical_cm(rng))

    def test_routes_agree_at_exact_degeneracy(self):
        # Symmetric squeezed thermal states have a doubly degenerate
        # symplectic spectrum; the discriminant of the closed form
        # vanishes identically there.
        rng = np.random.default_rng(29)
        for _ in range(200):
            occ = rng.uniform(0.5, 3.0)
            corr = rng.uniform(0.0, 0.999) * np.sqrt(occ * occ - 0.25)
            v = np.diag([occ] * 4)
            v[0, 2] = v[2, 0] = corr
            v[1, 3] = v[3, 1] = -corr
            self.assert_oracles_agree(CovarianceMatrix(v))

    @given(n=st.integers(1, 4), squeezing=st.floats(0.0, 1.5), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100)
    def test_spectra_known_by_construction(self, n, squeezing, seed):
        # V = S D S^T with S = exp(Omega H) symplectic, ||H||_2 = squeezing,
        # has the spectrum D. The error, building V included, read at most
        # 10.8 eps * ||V||_2 over 40000 such states (n <= 4); c = 32.
        rng = np.random.default_rng(seed)
        h = rng.normal(size=(2 * n, 2 * n))
        h += h.T
        s = expm(_omega(n) @ (squeezing / np.linalg.norm(h, 2) * h))
        nus = np.sort(rng.uniform(0.5, 3.0, n))
        v = s @ np.diag(np.repeat(nus, 2)) @ s.T
        v = 0.5 * (v + v.T)
        bound = 32 * np.finfo(float).eps * np.linalg.eigvalsh(v)[-1]
        assert np.max(np.abs(symplectic_spectra(v) - nus)) <= bound

    def test_definiteness_check_is_scale_relative(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            cm = random_physical_cm(rng)
            scaled = symplectic_eigenvalues(CovarianceMatrix(1e9 * cm.entries))
            assert np.allclose(scaled, 1e9 * symplectic_eigenvalues(cm), rtol=1e-9)
        # Round-off leaves the zero eigenvalue of a singular V near -eps * ||V||_2,
        # which the definiteness check passes at any scale; the condition check then
        # refuses an unresolved spectrum, not an unphysical state. -1e-9 of the largest
        # fails the definiteness check at any scale.
        for scale in (1e-9, 1.0, 1e9):
            for _ in range(5):
                g = rng.normal(size=(4, 3))
                with pytest.raises(NumericalFailureError, match="resolution"):
                    symplectic_spectra(scale * (g @ g.T))
            with pytest.raises(UnphysicalStateError):
                symplectic_spectra(scale * np.diag([1.0, -1e-9]))

    def test_closed_form_requires_two_modes(self):
        with pytest.raises(ValueError):
            two_mode_symplectic_eigenvalues(CovarianceMatrix(0.5 * np.eye(2)))

    def test_indefinite_state_raises_unphysical_state(self):
        cm = CovarianceMatrix(np.diag([1.0, -1.0]))
        with pytest.raises(UnphysicalStateError, match="not positive semidefinite"):
            symplectic_eigenvalues(cm)


class TestIsPhysical:
    def test_vacuum_is_physical(self):
        assert symplectic_eigenvalues(CovarianceMatrix(0.5 * np.eye(4)))[0] >= 0.5 - 1e-9

    def test_pure_squeezed_mode_is_boundary_physical(self):
        cm = CovarianceMatrix(np.diag([0.5 * np.exp(-1.2), 0.5 * np.exp(1.2)]))
        assert symplectic_eigenvalues(cm)[0] >= 0.5 - 1e-9

    def test_too_small_variances_are_unphysical(self):
        assert symplectic_eigenvalues(CovarianceMatrix(np.eye(4) / 6.0))[0] < 0.5 - 1e-9


class TestLogNegativity:
    def test_tmsv_anchor(self):
        assert log_negativity(tmsv_cm(0.4, 0.0)) == pytest.approx(0.8, abs=1e-9)

    def test_tmsv_r1(self):
        assert log_negativity(tmsv_cm(1.0, 0.0)) == pytest.approx(2.0, abs=1e-9)

    def test_vacuum_product_exactly_zero(self):
        assert log_negativity(CovarianceMatrix(0.5 * np.eye(4))) == 0.0

    def test_separable_states_exactly_zero(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            assert log_negativity(random_separable_cm(rng)) == 0.0

    def test_separability_threshold_both_directions(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            cm = random_physical_cm(rng)
            nu_min = symplectic_eigenvalues(partial_transpose(cm, 0))[0]
            e = log_negativity(cm)
            if 2.0 * nu_min >= 1.0:
                assert e == 0.0
            if e == 0.0:
                assert 2.0 * nu_min >= 1.0 - 1e-11
            else:
                assert 2.0 * nu_min < 1.0

    @given(
        phi1=st.floats(0.0, 2.0 * np.pi),
        phi2=st.floats(0.0, 2.0 * np.pi),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60)
    def test_local_rotation_invariance(self, phi1, phi2, seed):
        cm = random_physical_cm(np.random.default_rng(seed))
        s = local_rotation(phi1, phi2)
        rotated = CovarianceMatrix(s @ cm.entries @ s.T)
        assert log_negativity(rotated) == pytest.approx(log_negativity(cm), abs=1e-9)

    def test_unphysical_input_rejected(self):
        with pytest.raises(UnphysicalStateError):
            log_negativity(CovarianceMatrix(np.eye(4) / 4.0))
        with pytest.raises(UnphysicalStateError, match="not positive semidefinite"):
            log_negativity(CovarianceMatrix(np.diag([1.0, -1.0, 1.0, 1.0])))

    def test_indicator_is_unclamped(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            cm = random_separable_cm(rng)
            nu_min = symplectic_eigenvalues(partial_transpose(cm, 0))[0]
            indicator = float(negativity_indicators(cm.entries))
            assert indicator == pytest.approx(-np.log(2.0 * nu_min), abs=1e-12)
            assert log_negativity(cm) == 0.0
        tmsv = tmsv_cm(0.4)
        assert float(negativity_indicators(tmsv.entries)) == log_negativity(tmsv)

    def test_precision_guard_is_scale_relative(self):
        # eps * ||V|| / nu_min = eps * exp(4r) passes 1e-8 near r = 4.4.
        assert log_negativity(tmsv_cm(4.0)) == pytest.approx(8.0, abs=1e-8)
        with pytest.raises(NumericalFailureError, match="resolution"):
            log_negativity(tmsv_cm(5.0))
        # At r = 20 round-off swamps the state's own spectrum too; the
        # guard runs first, so it answers, not the physicality check.
        with pytest.raises(NumericalFailureError, match="resolution"):
            log_negativity(tmsv_cm(20.0))

    def test_nearly_degenerate_thermal_block(self):
        # A magnon block with a 9.26e9 diagonal and 0.04 couplings, on which
        # the non-symmetric eigen-solve of Omega V does not converge.
        params = BASELINE.replace(r=0.05, temperature=25653355008.114853)
        v = steady_state_cm(params).entries
        magnons = reduce(CovarianceMatrix(v), (2, 3))
        indicator = float(negativity_indicators(magnons.entries))
        assert math.isfinite(indicator)
        nu_min = 0.5 * math.exp(-indicator)
        bound = 1e-12 + np.finfo(float).eps * np.linalg.eigvalsh(magnons.entries)[-1] / nu_min
        assert abs(indicator - pair_indicators(v[None], ((2, 3),))[0, 0]) <= bound
        assert log_negativity(magnons) == 0.0

    def test_requires_two_modes(self):
        with pytest.raises(ValueError):
            log_negativity(CovarianceMatrix(0.5 * np.eye(6)))

    @pytest.mark.parametrize("s", [6.0, 7.0, 8.0])
    def test_locally_squeezed_product_state_is_refused_not_misread(self, s):
        # A rotated single-mode squeezed state times the vacuum is pure and separable. Its
        # spectrum is known to eps times V's condition number, eps * exp(4 s): unguarded, it
        # read E up to 1.25e-6 at s = 6 and an unphysical state at s = 7 and 8.
        for phi in np.linspace(0.0, np.pi, 25):
            rot = local_rotation(phi, 0.0)
            v = rot @ np.diag([0.5 * np.exp(2 * s), 0.5 * np.exp(-2 * s), 0.5, 0.5]) @ rot.T
            with pytest.raises(NumericalFailureError, match="resolution"):
                log_negativity(CovarianceMatrix(0.5 * (v + v.T)))

    def test_locally_squeezed_product_state_resolves_at_s_4(self):
        rot = local_rotation(0.3, 0.0)
        v = rot @ np.diag([0.5 * np.exp(8.0), 0.5 * np.exp(-8.0), 0.5, 0.5]) @ rot.T
        assert log_negativity(CovarianceMatrix(0.5 * (v + v.T))) == 0.0


def clamp_by_value(x: float) -> float:
    """The separability clamp one value at a time: the value where it exceeds the slack, else 0.0."""
    return x if x > SEPARABLE_SLACK else 0.0


EDGE_INDICATORS = (math.nan, math.inf, -math.inf, SEPARABLE_SLACK, np.nextafter(SEPARABLE_SLACK, 1.0),
                   np.nextafter(SEPARABLE_SLACK, 0.0), -0.0, 0.0, 5e-324, 0.3, -0.3)


class TestClampNegativity:
    @given(st.lists(st.floats() | st.sampled_from(EDGE_INDICATORS), max_size=12))
    @example(list(EDGE_INDICATORS))
    def test_array_equals_the_value_rule_elementwise(self, values):
        # Bit for bit: NaN and -0.0 both give +0.0, as the value rule does.
        expected = np.array([clamp_by_value(x) for x in values], dtype=float)
        assert clamp_negativity(np.array(values, dtype=float)).tobytes() == expected.tobytes()
        stacked = clamp_negativity(np.array(values + values, dtype=float).reshape(2, -1))
        assert stacked.shape == (2, len(values)) and stacked.tobytes() == np.tile(expected, 2).tobytes()

    @pytest.mark.parametrize("x", EDGE_INDICATORS)
    def test_zero_dimensional_input_gives_a_float(self, x):
        for value in (x, np.float64(x), np.array(x)):
            clamped = clamp_negativity(value)
            assert isinstance(clamped, float)
            assert np.array(clamped).tobytes() == np.array(clamp_by_value(x)).tobytes()

    def test_log_negativity_returns_a_python_float(self):
        assert type(log_negativity(tmsv_cm(0.4))) is float
        assert type(log_negativity(CovarianceMatrix(0.5 * np.eye(4)))) is float


class TestStackedEvaluation:
    """The array functions are the one route; one matrix is a stack of one."""

    def test_stack_equals_per_matrix_calls(self):
        rng = np.random.default_rng(43)
        cms = [random_physical_cm(rng) for _ in range(60)] + [
            random_separable_cm(rng) for _ in range(20)
        ]
        stack = np.stack([cm.entries for cm in cms]).reshape(8, 10, 4, 4)
        indicators = negativity_indicators(stack).ravel()
        spectra = symplectic_spectra(stack).reshape(80, 2)
        for k, cm in enumerate(cms):
            assert indicators[k] == negativity_indicators(cm.entries)
            assert np.array_equal(spectra[k], symplectic_eigenvalues(cm))

    def test_one_unphysical_member_fails_the_stack(self):
        rng = np.random.default_rng(47)
        stack = np.stack([random_physical_cm(rng).entries for _ in range(5)])
        stack[3] = np.eye(4) / 4.0
        with pytest.raises(UnphysicalStateError):
            negativity_indicators(stack)

    def test_one_unresolvable_member_fails_the_stack(self):
        stack = np.stack([tmsv_cm(0.4).entries, tmsv_cm(5.0).entries])
        with pytest.raises(NumericalFailureError, match="resolution"):
            negativity_indicators(stack)

    def test_stack_requires_two_mode_blocks(self):
        with pytest.raises(ValueError):
            negativity_indicators(np.stack([0.5 * np.eye(6)] * 2))


class TestTmsvCm:
    def test_vacuum_at_zero_squeezing(self):
        assert np.array_equal(tmsv_cm(0.0).entries, 0.5 * np.eye(4))

    def test_frozen_entries_at_r1(self):
        v = tmsv_cm(1.0).entries
        assert v[0, 0] == pytest.approx(COSH_2_HALF, abs=1e-14)
        assert v[0, 2] == pytest.approx(SINH_2_HALF, abs=1e-14)
        assert v[1, 3] == pytest.approx(-SINH_2_HALF, abs=1e-14)
        assert v[0, 3] == 0.0

    def test_phase_rotates_correlation_block(self):
        theta = 0.77
        v = tmsv_cm(0.6, theta).entries
        sh = 0.5 * np.sinh(1.2)
        assert v[0, 2] == pytest.approx(sh * np.cos(theta), abs=1e-14)
        assert v[0, 3] == pytest.approx(sh * np.sin(theta), abs=1e-14)
        assert v[1, 2] == pytest.approx(sh * np.sin(theta), abs=1e-14)
        assert v[1, 3] == pytest.approx(-sh * np.cos(theta), abs=1e-14)

    @given(r=st.floats(0.0, 3.0), theta=st.floats(-np.pi, np.pi))
    @settings(max_examples=80)
    def test_pure_for_any_parameters(self, r, theta):
        cm = tmsv_cm(r, theta)
        assert np.linalg.det(cm.entries) == pytest.approx(1.0 / 16.0, rel=1e-9)
        assert np.allclose(symplectic_eigenvalues(cm), [0.5, 0.5], atol=1e-9)

    @pytest.mark.parametrize("bad_r", [-0.1, np.nan, np.inf])
    def test_invalid_squeezing_rejected(self, bad_r):
        with pytest.raises(ValueError):
            tmsv_cm(bad_r)


def structured_state(r, mixing=(0.6, 1.1), occupations=(0.0, 0.3, 0.1, 0.7)) -> np.ndarray:
    """A four-mode state of the model's form: thermal modes, a two-mode squeezer on
    modes (0, 1), then beamsplitters of angles ``mixing`` on (0, 2) and (1, 3). Pairs
    (0, 1), (2, 3), (0, 3) and (1, 2) carry anomalous correlations, (0, 2) and (1, 3)
    normal ones."""
    s = np.eye(8)
    s[:4, :4] = two_mode_squeezer(r)
    for (i, j), angle in zip(((0, 2), (1, 3)), mixing):
        quad = [2 * i, 2 * i + 1, 2 * j, 2 * j + 1]
        mix = np.eye(8)
        mix[np.ix_(quad, quad)] = np.kron([[np.cos(angle), np.sin(angle)], [-np.sin(angle), np.cos(angle)]], np.eye(2))
        s = mix @ s
    v = s @ np.diag(np.repeat(np.add(occupations, 0.5), 2)) @ s.T
    return 0.5 * (v + v.T)


ALL_PAIRS = ((0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2))


def single_mode_squeezed(v, mode, s, angle=0.0) -> np.ndarray:
    """``v`` after squeezing ``mode`` by ``s`` along the quadrature at ``angle``."""
    rot = local_rotation(angle, 0.0)[:2, :2]
    sq = np.eye(8)
    sq[2 * mode : 2 * mode + 2, 2 * mode : 2 * mode + 2] = rot.T @ np.diag([np.exp(-s), np.exp(s)]) @ rot
    return sq @ v @ sq.T


class TestPairIndicators:
    """The closed form for pair blocks [[a I, C], [C^T, b I]] against the eigen-solve route."""

    def test_equals_the_eigen_route_on_every_pair(self):
        rng = np.random.default_rng(53)
        for _ in range(60):
            v = structured_state(rng.uniform(0.0, 2.0), rng.uniform(0.0, np.pi, 2), rng.uniform(0.0, 3.0, 4))
            closed = pair_indicators(v[None], ALL_PAIRS)[0]
            for k, pair in enumerate(ALL_PAIRS):
                expected = float(negativity_indicators(reduce(CovarianceMatrix(v), pair).entries))
                assert closed[k] == pytest.approx(expected, abs=1e-12)

    def test_normal_pairs_are_separable(self):
        rng = np.random.default_rng(59)
        stack = np.stack([structured_state(rng.uniform(0.0, 2.0), rng.uniform(0.0, np.pi, 2)) for _ in range(40)])
        assert np.all(pair_indicators(stack, ((0, 2), (1, 3))) <= 1e-12)

    def test_stack_equals_the_one_state_calls(self):
        rng = np.random.default_rng(61)
        stack = np.stack([structured_state(rng.uniform(0.0, 2.0), rng.uniform(0.0, np.pi, 2)) for _ in range(30)])
        batch = pair_indicators(stack, ALL_PAIRS)
        for k in range(len(stack)):
            assert np.array_equal(batch[k], pair_indicators(stack[k : k + 1], ALL_PAIRS)[0])

    def test_scale_is_taken_out_exactly_and_without_warnings(self):
        # 2^600 V: every product of two entries overflows unless the
        # pairs are rescaled first; the indicators shift by 600 ln 2.
        v = structured_state(1.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = pair_indicators(np.ldexp(v, 600)[None], ALL_PAIRS)[0]
        assert np.allclose(scaled, pair_indicators(v[None], ALL_PAIRS)[0] - 600.0 * math.log(2.0), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("angle", [0.0, np.pi / 4.0], ids=["x-squeezed", "diagonal-squeezed"])
    def test_single_mode_squeezing_leaves_the_form(self, angle):
        v = single_mode_squeezed(structured_state(0.8), 0, 1e-2, angle)
        with pytest.raises(PairStructureError, match="leaves the form"):
            pair_indicators(v[None], ALL_PAIRS[:1])

    def test_normal_part_on_an_anomalous_pair_leaves_the_form(self):
        v = structured_state(0.8)
        v[0:2, 2:4] += 1e-2 * np.eye(2)
        v[2:4, 0:2] += 1e-2 * np.eye(2)
        with pytest.raises(PairStructureError, match="leaves the form"):
            pair_indicators(v[None], ALL_PAIRS[:1])
        # The eigen-solve route still takes it.
        assert np.isfinite(negativity_indicators(reduce(CovarianceMatrix(v), (0, 1)).entries))

    def test_round_off_residues_pass(self):
        # A solved V leaves residues near cond * eps; the projection onto
        # the form changes nu_min at second order in them.
        v = structured_state(0.8)
        v[0, 0] *= 1.0 + 1e-7
        closed = pair_indicators(v[None], ALL_PAIRS)[0]
        assert closed[0] == pytest.approx(float(negativity_indicators(reduce(CovarianceMatrix(v), (0, 1)).entries)), abs=1e-12)

    def test_precision_guard_is_scale_relative(self):
        # The decoupled cavity pair: nu_min = exp(-2r) / 2 at ||V||_2 = exp(2r) / 2.
        assert pair_indicators(structured_state(4.0, (0.0, 0.0), (0.0,) * 4)[None], ALL_PAIRS[:1])[0, 0] == (
            pytest.approx(8.0, abs=1e-8)
        )
        with pytest.raises(NumericalFailureError, match="resolution"):
            pair_indicators(structured_state(5.0, (0.0, 0.0), (0.0,) * 4)[None], ALL_PAIRS[:1])

    def test_a_pair_state_without_a_real_spectrum_still_meets_the_precision_guard(self):
        # |mu| one ulp above a = b, as the round-off of a pair squeezed far past r = 4.4 leaves it: ab - |mu|^2 < 0
        # puts a NaN in the pair state's denominator, and the partial transpose's still measures ||V||_2.
        a = 4.864940204138144e16
        v = a * np.eye(4)
        v[0, 2] = v[2, 0] = np.nextafter(a, np.inf)
        v[1, 3] = v[3, 1] = -v[0, 2]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailureError, match="below the resolution"):
                pair_indicators(v[None], ((0, 1),))

    def test_unphysical_blocks_are_typed_errors(self):
        with pytest.raises(UnphysicalStateError):
            pair_indicators((np.eye(8) / 4.0)[None], ALL_PAIRS)
        # ab < |mu|^2: V is not even positive semidefinite.
        v = np.eye(8) / 2.0
        v[0, 2] = v[2, 0] = 0.8
        v[1, 3] = v[3, 1] = -0.8
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises((NumericalFailureError, UnphysicalStateError)):
                pair_indicators(v[None], ALL_PAIRS)

    def test_checks_run_in_order_over_the_whole_stack(self):
        bent = single_mode_squeezed(structured_state(0.8), 0, 1e-2)
        blurred = structured_state(5.0, (0.0, 0.0), (0.0,) * 4)
        unphysical = np.eye(8) / 4.0
        with pytest.raises(PairStructureError):
            pair_indicators(np.stack([blurred, unphysical, bent]), ALL_PAIRS[:1])
        with pytest.raises(NumericalFailureError, match="resolution"):
            pair_indicators(np.stack([unphysical, blurred]), ALL_PAIRS[:1])
