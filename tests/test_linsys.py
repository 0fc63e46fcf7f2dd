from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import solve_continuous_lyapunov

from cavmag import linsys
from cavmag.errors import NearSingularError, NumericalFailureError, UnstableSystemError
from cavmag.linsys import StabilityReport, check_residual, solve_lyapunov, stability

from conftest import random_stable_system
from oracles import integrate_lyapunov_oracle


def frobenius(m):
    return float(np.linalg.norm(m, "fro"))


class TestStability:
    def test_negative_identity(self):
        report = stability(-np.eye(4))
        assert report.stable
        assert report.max_real_part == pytest.approx(-1.0, abs=1e-12)

    def test_positive_eigenvalue_flags_unstable(self):
        report = stability(np.diag([-1.0, 0.3]))
        assert not report.stable
        assert report.max_real_part == pytest.approx(0.3, abs=1e-12)

    def test_lossless_rotation_is_marginal(self):
        # Pure oscillation: eigenvalues +-i, zero real part, not stable.
        report = stability(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert not report.stable
        assert report.max_real_part == pytest.approx(0.0, abs=1e-12)

    def test_full_spectrum_reported(self):
        report = stability(np.diag([-2.0, -1.0, -3.0]))
        reals = sorted(ev.real for ev in report.eigenvalues)
        assert reals == pytest.approx([-3.0, -2.0, -1.0])
        assert len(report.eigenvalues) == 3

    def test_spectral_radius(self):
        report = stability(np.diag([-4.0, -1.0]))
        assert report.spectral_radius == pytest.approx(4.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            stability(np.array([[np.nan, 0.0], [0.0, -1.0]]))


class TestSolveLyapunov:
    def test_isotropic_balance(self):
        v = solve_lyapunov(-np.eye(8), 2.0 * np.eye(8))
        assert np.allclose(v, np.eye(8), atol=1e-12)

    def test_decoupled_rates(self):
        a = np.diag([-1.0, -2.0, -4.0])
        v = solve_lyapunov(a, np.eye(3))
        assert np.allclose(np.diag(v), [0.5, 0.25, 0.125], atol=1e-12)
        assert np.allclose(v, np.diag(np.diag(v)), atol=1e-12)

    def test_nonnormal_hand_solution(self):
        # For A = [[-1, 1], [0, -1]], D = I the balance equations give
        # V = [[3/4, 1/4], [1/4, 1/2]].
        a = np.array([[-1.0, 1.0], [0.0, -1.0]])
        v = solve_lyapunov(a, np.eye(2))
        assert np.allclose(v, [[0.75, 0.25], [0.25, 0.5]], atol=1e-12)

    def test_output_exactly_symmetric(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            a, d = random_stable_system(rng, dim=6)
            v = solve_lyapunov(a, d)
            assert np.array_equal(v, v.T)

    def test_residual_bound_on_random_systems(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            a, d = random_stable_system(rng)
            v = solve_lyapunov(a, d)
            assert frobenius(a @ v + v @ a.T + d) <= 1e-9 * frobenius(d)

    def test_scaling_covariance(self):
        # Scaling both A and D by s > 0 leaves V unchanged, so the rate
        # normalization used by the physical model is observationally
        # neutral; the stability and conditioning tests are scale-free.
        rng = np.random.default_rng(47)
        a, d = random_stable_system(rng)
        v1 = solve_lyapunov(a, d)
        for scale in (1e6, 1e-14):
            v2 = solve_lyapunov(scale * a, scale * d)
            assert np.allclose(v1, v2, rtol=1e-9, atol=1e-12)

    def test_unstable_drift_rejected_with_report(self):
        a = np.diag([0.1, -1.0])
        with pytest.raises(UnstableSystemError) as err:
            solve_lyapunov(a, np.eye(2))
        assert isinstance(err.value.report, StabilityReport)
        assert err.value.report.max_real_part == pytest.approx(0.1)

    def test_marginal_drift_rejected(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(UnstableSystemError):
            solve_lyapunov(a, np.eye(2))

    def test_near_singular_detected(self):
        # Stable, but eigenvalue-pair sums span 15 orders of magnitude,
        # so the vectorized system is numerically near-singular.
        a = np.diag([-1e3, -1.1e-12])
        with pytest.raises(NearSingularError, match="condition estimate 4.5"):
            solve_lyapunov(a, np.eye(2))

    def test_asymmetric_diffusion_rejected(self):
        d = np.array([[1.0, 0.2], [0.0, 1.0]])
        with pytest.raises(ValueError):
            solve_lyapunov(-np.eye(2), d)

    def test_indefinite_diffusion_rejected(self):
        with pytest.raises(ValueError):
            solve_lyapunov(-np.eye(2), np.diag([1.0, -0.5]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            solve_lyapunov(-np.eye(3), np.eye(2))

    def test_power_of_two_scale_is_exact_where_the_norm_overflows(self):
        # ||D||_F of D * 2^1000 overflows; the solve still runs on D at
        # unit scale, so V scales by exactly the same power of two.
        rng = np.random.default_rng(61)
        a, d = random_stable_system(rng)
        v = solve_lyapunov(a, d)
        assert np.array_equal(solve_lyapunov(a, np.ldexp(d, 1000)), np.ldexp(v, 1000))

    def test_non_finite_residual_fails_the_gate(self, monkeypatch):
        def unconverged(a, q):
            return np.full_like(q, np.nan)

        monkeypatch.setattr(linsys, "solve_continuous_lyapunov", unconverged)
        with pytest.raises(NumericalFailureError, match="residual"):
            solve_lyapunov(-np.eye(2), np.eye(2))


    def test_ungated_solve_leaves_the_residual_to_the_caller(self, monkeypatch):
        rng = np.random.default_rng(64)
        a, d = random_stable_system(rng)
        assert np.array_equal(solve_lyapunov(a, d, gate=False), solve_lyapunov(a, d))

        def off_by_a_millionth(a, q):
            return solve_continuous_lyapunov(a, q) * (1.0 + 1e-6)

        monkeypatch.setattr(linsys, "solve_continuous_lyapunov", off_by_a_millionth)
        v = solve_lyapunov(a, d, gate=False)
        with pytest.raises(NumericalFailureError, match="residual"):
            check_residual(a, v, d)
        with pytest.raises(NumericalFailureError, match="residual"):
            solve_lyapunov(a, d)


class TestCheckResidual:
    def test_passes_a_solution_at_any_power_of_two_scale(self):
        # At 2^1000 the unscaled A V + V A^T and ||D||_F overflow.
        rng = np.random.default_rng(62)
        a, d = random_stable_system(rng)
        v = solve_lyapunov(a, d)
        for exponent in (-1000, 0, 1000):
            check_residual(a, np.ldexp(v, exponent), np.ldexp(d, exponent))

    def test_rejects_a_perturbed_solution_at_any_power_of_two_scale(self):
        rng = np.random.default_rng(63)
        a, d = random_stable_system(rng)
        v = solve_lyapunov(a, d) * (1.0 + 1e-6)
        for exponent in (-1000, 0, 1000):
            with pytest.raises(NumericalFailureError, match="residual"):
                check_residual(a, np.ldexp(v, exponent), np.ldexp(d, exponent))


class TestIntegrationOracle:
    def test_isotropic_decay(self):
        v = integrate_lyapunov_oracle(-np.eye(2), 2.0 * np.eye(2), horizon=20.0, step=0.005)
        assert np.allclose(v, np.eye(2), atol=1e-8)

    def test_agrees_with_direct_solver(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            a, d = random_stable_system(rng)
            direct = solve_lyapunov(a, d)
            report = stability(a)
            horizon = 10.0 / abs(report.max_real_part)
            step = 0.01 / report.spectral_radius
            quad = integrate_lyapunov_oracle(a, d, horizon=horizon, step=step)
            gap = frobenius(direct - quad) / frobenius(direct)
            assert gap < 1e-6

    def test_truncation_error_follows_documented_bound(self):
        # Isotropic decay rate 1/2: the discarded tail integral equals
        # e^{2*max_real*T} / (2*|max_real|) per diagonal entry, so the
        # horizon-20 error is pinned analytically. The horizon-40 run
        # only checks improvement; its truncation term is far below the
        # quadrature floor of the fixed step.
        a = -0.5 * np.eye(2)
        d = np.eye(2)
        exact = solve_lyapunov(a, d)
        short = integrate_lyapunov_oracle(a, d, horizon=20.0, step=0.005)
        long = integrate_lyapunov_oracle(a, d, horizon=40.0, step=0.005)
        err_short = frobenius(exact - short)
        err_long = frobenius(exact - long)
        predicted = np.sqrt(2.0) * np.exp(-20.0)
        assert predicted / 3.0 < err_short < predicted * 3.0
        assert err_long < err_short / 10.0

    def test_horizon_precondition(self):
        with pytest.raises(ValueError):
            integrate_lyapunov_oracle(-np.eye(2), np.eye(2), horizon=5.0, step=0.005)

    def test_step_precondition(self):
        with pytest.raises(ValueError):
            integrate_lyapunov_oracle(-np.eye(2), np.eye(2), horizon=20.0, step=0.5)

    def test_unstable_rejected(self):
        with pytest.raises(UnstableSystemError):
            integrate_lyapunov_oracle(np.eye(2), np.eye(2), horizon=20.0, step=0.005)
