from __future__ import annotations

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import schur, solve_continuous_lyapunov

from cavmag import linsys
from cavmag.errors import NearSingularError, NumericalFailureError, UnstableSystemError
from cavmag.linsys import solve_lyapunov, stability, superposition_gate

from conftest import random_stable_system
from oracles import integrate_lyapunov_oracle, lyapunov_by_cell


def frobenius(m):
    return float(np.linalg.norm(m, "fro"))


class TestStability:
    def test_negative_identity(self):
        assert stability(-np.eye(4)) == pytest.approx(-1.0, abs=1e-12)

    def test_positive_eigenvalue_flags_unstable(self):
        assert stability(np.diag([-1.0, 0.3])) == pytest.approx(0.3, abs=1e-12)

    def test_lossless_rotation_is_marginal(self):
        # Pure oscillation: eigenvalues +-i, zero real part, not stable.
        max_real = stability(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert type(max_real) is float and not max_real < 0.0
        assert max_real == pytest.approx(0.0, abs=1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            stability(np.array([[np.nan, 0.0], [0.0, -1.0]]))

    @pytest.mark.parametrize(
        "a", [-np.eye(2)[None], np.stack([-np.eye(2)] * 2), -np.ones(2)], ids=["stack-of-one", "stack", "1-d"]
    )
    def test_rejects_anything_but_one_matrix(self, a):
        with pytest.raises(ValueError, match="drift matrix must be a nonempty square matrix"):
            stability(a)


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

    def test_unstable_drift_rejected_with_its_max_real_part(self):
        a = np.diag([0.1, -1.0])
        with pytest.raises(UnstableSystemError, match=r"not strictly stable \(max eigenvalue real part 0\.1\)"):
            solve_lyapunov(a, np.eye(2))

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

    def test_overflowing_condition_estimate_is_near_singular(self):
        # ||A||_1 / (2 |max Re lambda|) overflows to inf, which is no RuntimeWarning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NearSingularError, match="condition estimate inf"):
                solve_lyapunov(np.diag([-1e10, -1e-300]), np.eye(2))

    def test_asymmetric_diffusion_rejected(self):
        d = np.array([[1.0, 0.2], [0.0, 1.0]])
        with pytest.raises(ValueError):
            solve_lyapunov(-np.eye(2), d)

    def test_indefinite_diffusion_rejected(self):
        with pytest.raises(ValueError):
            solve_lyapunov(-np.eye(2), np.diag([1.0, -0.5]))

    @pytest.mark.parametrize(
        "a,d,message",
        [(10**400, [[1.0]], "drift matrix"), ([[-1.0]], [[10**400]], "diffusion matrix")],
        ids=["drift", "diffusion"],
    )
    def test_an_integer_beyond_the_float_range_is_not_finite(self, a, d, message):
        with pytest.raises(ValueError, match=f"^{message} must have finite entries$"):
            solve_lyapunov(a, d)

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
        def unconverged(r, q):
            return np.full_like(q, np.nan)

        monkeypatch.setattr(linsys, "_triangular_solve", unconverged)
        with pytest.raises(NumericalFailureError, match="residual"):
            solve_lyapunov(-np.eye(2), np.eye(2))

    def test_ungated_solve_leaves_the_residual_to_the_caller(self, monkeypatch):
        rng = np.random.default_rng(64)
        a, d = random_stable_system(rng)
        assert np.array_equal(solve_lyapunov(a, d, gate=False), solve_lyapunov(a, d))
        triangular_solve = linsys._triangular_solve

        def off_by_a_millionth(r, q):
            return triangular_solve(r, q) * (1.0 + 1e-6)

        monkeypatch.setattr(linsys, "_triangular_solve", off_by_a_millionth)
        v = solve_lyapunov(a, d, gate=False)
        with pytest.raises(NumericalFailureError, match="residual"):
            superposition_gate(a, v[None], d[None])(np.ones((1, 1)), [np.max(np.abs(d))])
        with pytest.raises(NumericalFailureError, match="residual"):
            solve_lyapunov(a, d)

    def test_failed_back_substitution_is_a_typed_error(self, monkeypatch):
        def perturbed(r, b, c, tranb):
            return c, 1.0, 1  # LAPACK's "eigenvalue pair sums near zero"

        monkeypatch.setattr(linsys, "dtrsyl", perturbed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailureError, match="trsyl info 1"):
                solve_lyapunov(-np.eye(2), np.eye(2), gate=False)

    def test_trsyl_scale_multiplies_the_solution(self, monkeypatch):
        # As scipy's solve_continuous_lyapunov does, the solve multiplies trsyl's X by the scale it
        # returns (1.0 but where X would overflow), here an exact power of two.
        rng = np.random.default_rng(83)
        a, d = random_stable_system(rng)
        v, trsyl = solve_lyapunov(a, d, gate=False), linsys.dtrsyl
        monkeypatch.setattr(linsys, "dtrsyl", lambda *args, **kwargs: (*trsyl(*args, **kwargs)[:1], 0.25, 0))
        assert np.array_equal(solve_lyapunov(a, d, gate=False), 0.25 * v)

    def test_equals_scipy_bartels_stewart_bitwise(self):
        # The back-substitution repeats solve_continuous_lyapunov's
        # operations on the power-of-two-scaled D, then symmetrizes.
        rng = np.random.default_rng(65)
        for dim in (2, 5, 8):
            for _ in range(20):
                a, d = random_stable_system(rng, dim=dim)
                exponent = math.frexp(float(np.max(np.abs(d))))[1]
                v = solve_continuous_lyapunov(a, -np.ldexp(d, -exponent))
                expected = np.ldexp(0.5 * (v + v.T), exponent)
                assert np.array_equal(solve_lyapunov(a, d), expected)


class TestStackedSolve:
    def stack(self, rng, a):
        """Diffusions of random scale, including 2^1000 and 2^-1000 multiples."""
        ds = [random_stable_system(rng)[1] * rng.uniform(0.1, 10.0) for _ in range(4)]
        return np.stack(ds + [np.ldexp(ds[0], 1000), np.ldexp(ds[1], -1000), np.zeros_like(a)])

    @pytest.mark.parametrize("gate", [True, False])
    def test_stack_equals_the_single_solves_bitwise(self, gate):
        rng = np.random.default_rng(66)
        for _ in range(10):
            a = random_stable_system(rng)[0]
            ds = self.stack(rng, a)
            stacked = solve_lyapunov(a, ds, gate=gate)
            assert stacked.shape == ds.shape
            for d, v in zip(ds, stacked):
                assert np.array_equal(v, solve_lyapunov(a, d, gate=gate))

    def test_a_stack_of_one_is_a_stack(self):
        a, d = random_stable_system(np.random.default_rng(67))
        assert np.array_equal(solve_lyapunov(a, d[None]), solve_lyapunov(a, d)[None])

    def test_one_bad_member_rejects_the_stack(self, monkeypatch):
        a, d = random_stable_system(np.random.default_rng(68))
        with pytest.raises(ValueError, match="positive semidefinite"):
            solve_lyapunov(a, np.stack([d, -d]))
        triangular_solve, calls = linsys._triangular_solve, []

        def second_off_by_a_millionth(r, q):
            calls.append(q)
            return triangular_solve(r, q) * (1.0 + 1e-6 * (len(calls) == 2))

        monkeypatch.setattr(linsys, "_triangular_solve", second_off_by_a_millionth)
        with pytest.raises(NumericalFailureError, match="residual"):
            solve_lyapunov(a, np.stack([d, d, d]))

    @pytest.mark.parametrize(
        "d", [np.zeros((0, 2, 2)), np.ones((2, 2, 3)), np.ones((2, 3, 3))], ids=["empty", "non-square", "size"]
    )
    def test_malformed_stacks_rejected(self, d):
        with pytest.raises(ValueError):
            solve_lyapunov(-np.eye(2), d)

    def test_a_stack_with_two_batch_axes_is_the_single_solves(self):
        single = solve_lyapunov(-np.eye(2), np.eye(2))
        assert np.array_equal(solve_lyapunov(-np.eye(2), np.eye(2)[None, None]), single[None, None])
        rng = np.random.default_rng(84)
        a = random_stable_system(rng)[0]
        ds = np.stack([random_stable_system(rng)[1] for _ in range(6)]).reshape(2, 3, 8, 8)
        stacked = solve_lyapunov(a, ds)
        assert stacked.shape == ds.shape
        for i, j in np.ndindex(2, 3):
            assert np.array_equal(stacked[i, j], solve_lyapunov(a, ds[i, j]))

    def test_schur_diagonal_reads_the_largest_real_part(self):
        # Every 2x2 block of LAPACK's real Schur form has both diagonal
        # entries equal to its eigenvalue pair's real part.
        rng = np.random.default_rng(69)
        for dim in (2, 3, 8):
            for _ in range(100):
                a = random_stable_system(rng, dim=dim, margin=rng.uniform(1e-3, 2.0))[0]
                r, _ = schur(a, output="real")
                assert stability(a) == float(np.max(np.diag(r)))
                gap = abs(stability(a) - float(np.max(np.linalg.eigvals(a).real)))
                assert gap <= 8 * np.finfo(float).eps * np.linalg.norm(a, 2)


class TestPairedDriftStack:
    ORDER = (0, 1, 0, 2, 1, 0, 2)  # three drifts, the first repeated out of order

    def mixed(self, rng):
        """One drift per D, with members at 2^1000 and 2^-1000 and a zero D."""
        drifts = [random_stable_system(rng)[0] for _ in range(3)]
        ds = [random_stable_system(rng)[1] for _ in self.ORDER]
        ds[2], ds[4], ds[6] = np.ldexp(ds[2], 1000), np.ldexp(ds[4], -1000), np.zeros_like(ds[6])
        return np.stack([drifts[k] for k in self.ORDER]), np.stack(ds)

    @pytest.mark.parametrize("gate", [True, False])
    def test_paired_stack_equals_the_single_solves_bitwise(self, gate):
        rng = np.random.default_rng(70)
        for _ in range(10):
            a, ds = self.mixed(rng)
            stacked = solve_lyapunov(a, ds, gate=gate)
            assert stacked.shape == ds.shape
            for ak, dk, vk in zip(a, ds, stacked):
                assert np.array_equal(vk, solve_lyapunov(ak, dk, gate=gate))

    def test_each_drift_is_factorised_once_in_its_order(self, monkeypatch):
        # A paired stack has one drift per D, equal or not: one Schur form each, in a's order.
        a, ds = self.mixed(np.random.default_rng(71))
        factorised, real_schur = [], linsys._real_schur
        monkeypatch.setattr(linsys, "_real_schur", lambda x: factorised.append(x.copy()) or real_schur(x))
        solve_lyapunov(a, ds)
        assert [x.tobytes() for x in factorised] == [x.tobytes() for x in a]
        # Drifts of shape (3, 1) broadcast over Ds of shape (3, 2): three Schur forms, in row-major order.
        factorised.clear()
        solve_lyapunov(a[:3, None], ds[:6].reshape(3, 2, 8, 8))
        assert [x.tobytes() for x in factorised] == [x.tobytes() for x in a[:3]]

    @pytest.mark.parametrize(
        "a, d",
        [
            (np.stack([-np.eye(2)] * 2), np.eye(2)),  # a drift stack needs a D stack
            (np.stack([-np.eye(2)] * 2), np.stack([np.eye(2)] * 3)),  # one D per drift
            (np.stack([-np.eye(2)] * 2), np.stack([np.eye(3)] * 2)),
            (np.zeros((0, 2, 2)), np.zeros((0, 2, 2))),
            (-np.ones((2, 2, 3)), np.ones((2, 2, 3))),
            (-np.eye(2)[None, None], np.eye(2)[None]),  # a drift batch of more axes than the Ds'
            (np.stack([-np.eye(2)] * 2)[:, None], np.stack([np.eye(2)] * 2)[None]),  # (2, 1) on (1, 2)
        ],
        ids=["single-d", "count", "size", "empty", "non-square", "4-d", "not-onto"],
    )
    def test_malformed_pairings_rejected(self, a, d):
        with pytest.raises(ValueError):
            solve_lyapunov(a, d)

    def test_a_failing_batch_raises_stage_by_stage(self, monkeypatch):
        rng = np.random.default_rng(72)
        (a, c), (b, d), e = random_stable_system(rng), random_stable_system(rng), random_stable_system(rng)[1]
        singular = np.diag([-1e3] + [-1.1e-12] * 7)  # condition estimate 4.5e14
        unstable = np.diag([0.5] + [-1.0] * 7)
        # D and E (not C) come back off by a millionth and two, as the triangular solve sees them
        # in their drift's Schur basis: recorded from their single solves.
        triangular_solve, seen = linsys._triangular_solve, []
        monkeypatch.setattr(linsys, "_triangular_solve", lambda r, q: seen.append(q.tobytes()) or triangular_solve(r, q))
        for drift, x in ((b, d), (a, e)):
            solve_lyapunov(drift, x)
        off = dict(zip(seen, (1e-6, 2e-6)))

        def off_by_millionths(r, q):
            return triangular_solve(r, q) * (1.0 + off.get(q.tobytes(), 0.0))

        monkeypatch.setattr(linsys, "_triangular_solve", off_by_millionths)
        # Every drift's stability, then every condition estimate, before any residual.
        with pytest.raises(UnstableSystemError):
            solve_lyapunov(np.stack([singular, a, unstable]), np.stack([c, d, e]))
        with pytest.raises(NearSingularError):
            solve_lyapunov(np.stack([a, b, singular]), np.stack([c, d, e]))
        # The first failing D in batch order names the residual: D, though drift a,
        # and with it E, is factorised first.
        messages = []
        for drift, x in ((b, d), (a, e)):
            with pytest.raises(NumericalFailureError, match="residual") as err:
                solve_lyapunov(drift, x)
            messages.append(str(err.value))
        assert messages[0] != messages[1]
        with pytest.raises(NumericalFailureError) as err:
            solve_lyapunov(np.stack([a, b, a]), np.stack([c, d, e]))
        assert str(err.value) == messages[0]

    def test_direct_schur_equals_scipy_bitwise(self):
        rng = np.random.default_rng(73)
        for dim in (1, 2, 3, 8):
            for k in range(100):
                a = random_stable_system(rng, dim=dim)[0] if k % 2 else rng.normal(size=(dim, dim))
                r, u = linsys._real_schur(a)
                expected_r, expected_u = schur(a, output="real")
                assert np.array_equal(r, expected_r) and np.array_equal(u, expected_u)

    def test_failed_schur_is_a_typed_error(self, monkeypatch):
        dgees = linsys.dgees

        def unconverged(select, a, lwork):
            return (*dgees(select, a, lwork=lwork)[:-1], 0 if lwork == -1 else 3)

        monkeypatch.setattr(linsys, "dgees", unconverged)
        with pytest.raises(NumericalFailureError, match="gees info 3"):
            solve_lyapunov(-np.eye(2), np.eye(2))


class TestStackedTransforms:
    """The similarity transforms of a whole batch run as stacked products around one trsyl per D."""

    SINGULAR = np.diag([-1e3] + [-1.1e-12] * 7)  # condition estimate 4.5e14
    UNSTABLE = np.diag([0.5] + [-1.0] * 7)

    @staticmethod
    def drifts(rng, dim, count, rotating):
        """Strictly stable drifts. A rotating one is -I/2 plus an antisymmetric part: its eigenvalues
        come in pairs -1/2 +- i w (and one -1/2 at odd dim), so its real Schur form has 2x2 blocks."""
        if not rotating:
            return [random_stable_system(rng, dim=dim)[0] for _ in range(count)]
        g = rng.normal(size=(count, dim, dim))
        return list(g - g.swapaxes(1, 2) - 0.5 * np.eye(dim))

    @given(
        dim=st.integers(1, 8),
        owner=st.lists(st.integers(0, 3), min_size=1, max_size=9),
        width=st.none() | st.integers(1, 3),
        exponents=st.lists(st.none() | st.integers(-1000, 1000), min_size=9, max_size=9),
        rotating=st.booleans(),
        gate=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(dim=8, owner=[0] * 9, width=None, exponents=[0] * 9, rotating=False, gate=True, seed=76)  # one drift
    @example(dim=8, owner=[0, 1, 2, 3], width=None, exponents=[0] * 9, rotating=False, gate=True, seed=77)  # distinct
    @example(dim=8, owner=[0, 1, 0, 2, 1, 0, 2], width=None, exponents=[0, 1000, -1000, None, 3, -3, 0, 0, 0],
             rotating=True, gate=True, seed=78)  # repeated drifts, 2x2 blocks, extreme and zero Ds
    @example(dim=8, owner=[2], width=None, exponents=[0] * 9, rotating=True, gate=True, seed=79)  # k = 1
    @example(dim=5, owner=[0, 1, 1, 0], width=None, exponents=[0] * 9, rotating=True, gate=False, seed=80)  # ungated
    @example(dim=8, owner=[0, 1, 2], width=3, exponents=[0, 1000, -1000, None, 3, -3, 0, 0, 0],
             rotating=True, gate=True, seed=85)  # (3, 1) drifts over (3, 3) Ds
    @settings(max_examples=150)
    def test_equals_the_per_cell_oracle_bitwise(self, dim, owner, width, exponents, rotating, gate, seed):
        rng = np.random.default_rng(seed)
        drifts = self.drifts(rng, dim, max(owner) + 1, rotating)
        if rotating and dim > 1:
            assert all(np.any(np.diag(schur(x, output="real")[0], -1)) for x in drifts)
        a = np.stack([drifts[k] for k in owner])
        if width is not None:  # a drift batch of shape (m, 1) broadcast over Ds of shape (m, width)
            a = a[:, None].repeat(width, 1)
        b = rng.normal(size=a.shape)
        d = b @ b.swapaxes(-1, -2)
        cells = d.reshape(-1, dim, dim)  # a view of d
        for k, exponent in enumerate(exponents[: len(cells)]):
            cells[k] = np.zeros_like(cells[k]) if exponent is None else np.ldexp(cells[k], exponent)
        expected = lyapunov_by_cell(a.reshape(cells.shape), cells).reshape(d.shape)
        assert np.array_equal(solve_lyapunov(a if width is None else a[:, :1], d, gate=gate), expected)
        if len(set(owner)) == 1:  # the same batch with its drift given once
            assert np.array_equal(solve_lyapunov(drifts[owner[0]], d, gate=gate), expected)

    @pytest.fixture
    def counted(self, monkeypatch):
        """Calls of the Schur factorisation and of LAPACK's trsyl within the solver."""
        counts = {"_real_schur": 0, "dtrsyl": 0}
        for name in counts:

            def wrapper(*args, _original=getattr(linsys, name), _name=name, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(linsys, name, wrapper)
        return counts

    @pytest.mark.parametrize("k", [1, 2, 64])
    def test_a_shared_drift_costs_one_schur_form_and_one_trsyl_per_cell(self, counted, k):
        rng = np.random.default_rng(81)
        a = random_stable_system(rng)[0]
        ds = np.stack([random_stable_system(rng)[1] for _ in range(k)])
        for drift in (a, a[None]):  # given as (n, n) and as (1, n, n): both broadcast to every D
            counted.update(_real_schur=0, dtrsyl=0)
            solve_lyapunov(drift, ds)
            assert counted == {"_real_schur": 1, "dtrsyl": k}
        counted.update(_real_schur=0, dtrsyl=0)
        solve_lyapunov(np.stack([a] * k), ds)  # paired with each D, equal or not
        assert counted == {"_real_schur": k, "dtrsyl": k}

    @pytest.mark.parametrize("where", [0, 3, 6])
    @pytest.mark.parametrize("bad, error", [(UNSTABLE, UnstableSystemError), (SINGULAR, NearSingularError)])
    def test_a_bad_drift_anywhere_raises_before_any_trsyl(self, counted, where, bad, error):
        rng = np.random.default_rng(82)
        drifts = [random_stable_system(rng)[0] for _ in range(3)]
        a = np.stack([drifts[k % 3] for k in range(7)])
        a[where] = bad
        ds = np.stack([random_stable_system(rng)[1] for _ in range(7)])
        with pytest.raises(error):
            solve_lyapunov(a, ds)
        with pytest.raises(error):
            solve_lyapunov(bad, ds)
        assert counted["dtrsyl"] == 0


class TestDiffusionChecksAreScaleRelative:
    SCALES = pytest.mark.parametrize(
        "scale", [1e-14, 2.0**-1000, 1.0, 2.0**1000], ids=["1e-14", "2^-1000", "1", "2^1000"]
    )

    @SCALES
    def test_indefinite_rejected_at_every_scale(self, scale):
        with pytest.raises(ValueError, match="positive semidefinite"):
            solve_lyapunov(-np.eye(2), scale * np.diag([1.0, -0.5]))

    @SCALES
    def test_asymmetric_rejected_at_every_scale(self, scale):
        with pytest.raises(ValueError, match="symmetric"):
            solve_lyapunov(-np.eye(2), scale * np.array([[1.0, 0.3], [0.0, 1.0]]))

    @SCALES
    def test_psd_accepted_at_every_scale(self, scale):
        v = solve_lyapunov(-np.eye(2), scale * np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.array_equal(v, scale * np.array([[1.0, 0.5], [0.5, 1.0]]))


class TestCheckResidual:
    """The residual gate of a superposition (``superposition_gate``), at any power-of-two scale."""

    @staticmethod
    def gate(a, v, d, scales, perturbed=0.0):
        """Gate the rows c = 2^e (1, perturbed), one per scale e, of the members (V, D) and (1e-6 V, 0)."""
        gate = superposition_gate(a, np.stack((v, 1e-6 * v)), np.stack((d, np.zeros_like(d))))
        scales, c = np.array(scales), np.ones((len(scales), 2))
        c[:, 1] = perturbed
        return gate(np.ldexp(c, scales[:, None]), np.ldexp(np.max(np.abs(d)), scales))

    def test_passes_a_solution_at_any_power_of_two_scale(self):
        # At 2^1000 the unscaled A V + V A^T and ||D||_F overflow.
        rng = np.random.default_rng(62)
        a, d = random_stable_system(rng)
        v = solve_lyapunov(a, d)
        for exponent in (-1000, 0, 1000):
            self.gate(a, v, d, [exponent])
            v_scaled, d_scaled = np.ldexp(v, exponent), np.ldexp(d, exponent)
            superposition_gate(a, v_scaled[None], d_scaled[None])(np.ones((1, 1)), [np.max(np.abs(d_scaled))])

    def test_rejects_a_perturbed_solution_at_any_power_of_two_scale(self):
        rng = np.random.default_rng(63)
        a, d = random_stable_system(rng)
        v = solve_lyapunov(a, d)
        for exponent in (-1000, 0, 1000):
            with pytest.raises(NumericalFailureError, match="residual"):
                self.gate(a, v, d, [exponent], perturbed=1.0)

    def test_checks_each_member_of_a_stack_at_its_own_scale(self):
        rng = np.random.default_rng(65)
        a, d = random_stable_system(rng)
        v = solve_lyapunov(a, d)
        scales = [-1000, 0, 1000]
        residuals = self.gate(a, v, d, scales)
        assert residuals[0] == residuals[1] == residuals[2]  # scaled by powers of two, exactly
        for k in range(3):
            with pytest.raises(NumericalFailureError, match="residual"):
                self.gate(a, v, d, scales, perturbed=np.eye(3)[k])


    def test_the_forms_are_the_residual_of_the_assembled_sum(self):
        # Members that solve nothing, so each row's residual is of the order of its D and the
        # forms must match the assembled 8x8 residual to rounding, cross terms and scaling included.
        rng = np.random.default_rng(66)
        a, _ = random_stable_system(rng)
        v = rng.normal(size=(3, 8, 8))
        v = v + v.swapaxes(1, 2)
        d = np.stack([random_stable_system(rng)[1] for _ in range(3)]) * [[[1.0]], [[1e-9]], [[1e9]]]
        c = np.ldexp(rng.uniform(0.1, 1.0, (6, 3)), rng.integers(-900, 900, (6, 1)))
        peaks = np.max(np.abs(np.tensordot(c, d, 1)), axis=(1, 2))
        recorded = []
        with mock.patch.object(linsys, "raise_first", lambda failed, error, message, residual: recorded.append(residual)):
            superposition_gate(a, v, d)(c, peaks)
        for k, row in enumerate(c):
            scale = -math.frexp(peaks[k])[1]
            v_sum, d_sum = np.ldexp(np.tensordot(row, v, 1), scale), np.ldexp(np.tensordot(row, d, 1), scale)
            assert recorded[0][k] == pytest.approx(frobenius(a @ v_sum + v_sum @ a.T + d_sum), rel=1e-12)

    def test_a_sum_passes_where_its_members_do_not(self):
        # (V + E, D) and (-E, 0): each member misses the gate by far, their sum is the solution.
        rng = np.random.default_rng(67)
        a, d = random_stable_system(rng)
        v = solve_lyapunov(a, d)
        gate = superposition_gate(a, np.stack((v * (1.0 + 1e-6), -1e-6 * v)), np.stack((d, np.zeros_like(d))))
        gate(np.ones((1, 2)), [np.max(np.abs(d))])
        for c in ([[1.0, 0.0]], [[1.0, 0.5]]):
            with pytest.raises(NumericalFailureError, match="residual"):
                gate(np.array(c), [np.max(np.abs(d))])


class TestIntegrationOracle:
    def test_isotropic_decay(self):
        v = integrate_lyapunov_oracle(-np.eye(2), 2.0 * np.eye(2), horizon=20.0, step=0.005)
        assert np.allclose(v, np.eye(2), atol=1e-8)

    def test_agrees_with_direct_solver(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            a, d = random_stable_system(rng)
            direct = solve_lyapunov(a, d)
            evals = np.linalg.eigvals(a)
            horizon = 10.0 / abs(evals.real.max())
            step = 0.01 / np.abs(evals).max()
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
