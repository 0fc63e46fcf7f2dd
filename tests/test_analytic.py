from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavmag.cvgaussian import log_negativity, symplectic_eigenvalues

from oracles import (
    ReducedParams,
    cavity_magnon_N,
    eaa_analytic,
    tmsv_cm,
    vaa_analytic,
    vam_analytic,
    vmm_analytic,
)

# Frozen reference values at kappa_ratio 0.2, coupling_ratio 5, r = 1,
# independently evaluated with 40-digit arithmetic.
VMM_DIAG = 1.6417806262746492
VMM_CORR = 1.4991982505981394
VAM_CAV = 1.6527417202868859
VAM_CORR = 0.04567122505098597
CAV_MAG_N = -1.1885427964332825
E_MM_FROZEN = 1.2546881908115545

MATCHED = ReducedParams(kappa_ratio=0.2, coupling_ratio=5.0, r=1.0)

ratio_strategy = st.builds(
    ReducedParams,
    kappa_ratio=st.floats(0.01, 5.0),
    coupling_ratio=st.floats(0.0, 10.0),
    r=st.floats(0.0, 2.0),
)


class TestReducedParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kappa_ratio": 0.0, "coupling_ratio": 1.0, "r": 1.0},
            {"kappa_ratio": -0.2, "coupling_ratio": 1.0, "r": 1.0},
            {"kappa_ratio": 0.2, "coupling_ratio": -1.0, "r": 1.0},
            {"kappa_ratio": 0.2, "coupling_ratio": 1.0, "r": -0.1},
            {"kappa_ratio": math.inf, "coupling_ratio": 1.0, "r": 1.0},
            {"kappa_ratio": 0.2, "coupling_ratio": math.nan, "r": 1.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ReducedParams(**kwargs)

    def test_coerces_to_float(self):
        p = ReducedParams(kappa_ratio=1, coupling_ratio=2, r=0)
        assert isinstance(p.kappa_ratio, float)


class TestCavityPair:
    def test_matches_two_mode_squeezed_state(self):
        for r in (0.0, 0.4, 1.0, 2.3):
            assert np.allclose(
                vaa_analytic(r).entries, tmsv_cm(r).entries, rtol=1e-14, atol=0.0
            )

    def test_log_negativity_is_twice_r(self):
        assert eaa_analytic(0.4) == pytest.approx(0.8, abs=1e-12)
        assert eaa_analytic(1.0) == pytest.approx(2.0, abs=1e-12)
        assert eaa_analytic(0.0) == 0.0

    def test_closed_form_agrees_with_generic_measure(self):
        for r in np.linspace(0.0, 3.0, 100):
            expected = log_negativity(vaa_analytic(float(r)))
            assert eaa_analytic(float(r)) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("bad", [-0.1, math.nan, math.inf])
    def test_invalid_r_rejected(self, bad):
        with pytest.raises(ValueError):
            vaa_analytic(bad)
        with pytest.raises(ValueError):
            eaa_analytic(bad)


class TestMagnonPair:
    def test_frozen_entries(self):
        v = vmm_analytic(MATCHED).entries
        assert v[0, 0] == pytest.approx(VMM_DIAG, rel=1e-12)
        assert v[3, 3] == pytest.approx(VMM_DIAG, rel=1e-12)
        assert v[0, 2] == pytest.approx(-VMM_CORR, rel=1e-12)
        assert v[2, 0] == pytest.approx(-VMM_CORR, rel=1e-12)
        assert v[1, 3] == pytest.approx(VMM_CORR, rel=1e-12)
        assert v[0, 1] == 0.0
        assert v[0, 3] == 0.0

    def test_frozen_log_negativity(self):
        assert log_negativity(vmm_analytic(MATCHED)) == pytest.approx(
            E_MM_FROZEN, abs=1e-9
        )

    def test_no_drive_means_vacuum(self):
        for a, b in ((0.2, 5.0), (1.0, 0.5), (3.0, 8.0)):
            p = ReducedParams(kappa_ratio=a, coupling_ratio=b, r=0.0)
            assert np.allclose(vmm_analytic(p).entries, 0.5 * np.eye(4), atol=1e-15)
            assert np.allclose(vam_analytic(p).entries, 0.5 * np.eye(4), atol=1e-15)

    def test_full_transfer_limit(self):
        # Vanishing magnon linewidth and overwhelming coupling hand the
        # drive state to the magnon pair, with inverted correlation signs.
        p = ReducedParams(kappa_ratio=1e-6, coupling_ratio=1e4, r=0.7)
        v = vmm_analytic(p).entries
        assert v[0, 0] == pytest.approx(0.5 * math.cosh(1.4), rel=1e-6)
        assert v[0, 2] == pytest.approx(-0.5 * math.sinh(1.4), rel=1e-6)
        assert v[1, 3] == pytest.approx(0.5 * math.sinh(1.4), rel=1e-6)

    @given(p=ratio_strategy)
    @settings(max_examples=80)
    def test_always_physical(self, p):
        assert symplectic_eigenvalues(vmm_analytic(p))[0] >= 0.5 - 1e-9

    def test_entanglement_grows_with_coupling(self):
        a = 0.05
        values = [
            log_negativity(vmm_analytic(ReducedParams(kappa_ratio=a, coupling_ratio=b, r=1.0)))
            for b in np.linspace(0.0, 10.0, 40)
        ]
        assert all(y2 >= y1 - 1e-10 for y1, y2 in zip(values, values[1:]))

    def test_transfer_deficit_shrinks_with_coupling(self):
        # The gap between the drive entanglement and the magnon-pair
        # entanglement narrows monotonically as the coupling grows.
        a = 0.05
        target = eaa_analytic(1.0)
        gaps = [
            target
            - log_negativity(vmm_analytic(ReducedParams(kappa_ratio=a, coupling_ratio=b, r=1.0)))
            for b in np.linspace(0.5, 10.0, 40)
        ]
        assert all(g >= -1e-10 for g in gaps)
        assert all(g2 <= g1 + 1e-10 for g1, g2 in zip(gaps, gaps[1:]))


class TestCavityMagnonPair:
    def test_frozen_entries(self):
        v = vam_analytic(MATCHED).entries
        assert v[0, 0] == pytest.approx(VAM_CAV, rel=1e-12)
        assert v[1, 1] == pytest.approx(VAM_CAV, rel=1e-12)
        assert v[2, 2] == pytest.approx(VMM_DIAG, rel=1e-12)
        assert v[3, 3] == pytest.approx(VMM_DIAG, rel=1e-12)
        assert v[0, 3] == pytest.approx(-VAM_CORR, rel=1e-12)
        assert v[3, 0] == pytest.approx(-VAM_CORR, rel=1e-12)
        assert v[1, 2] == pytest.approx(VAM_CORR, rel=1e-12)
        assert v[0, 2] == 0.0
        assert v[1, 3] == 0.0

    def test_frozen_negativity_indicator(self):
        assert cavity_magnon_N(MATCHED) == pytest.approx(CAV_MAG_N, abs=1e-12)

    @given(p=ratio_strategy)
    @settings(max_examples=80)
    def test_always_physical(self, p):
        assert symplectic_eigenvalues(vam_analytic(p))[0] >= 0.5 - 1e-9

    def test_never_entangled_across_parameter_grid(self):
        for a in np.linspace(0.02, 1.0, 15):
            for b in np.linspace(0.0, 10.0, 15):
                p = ReducedParams(kappa_ratio=float(a), coupling_ratio=float(b), r=1.0)
                assert cavity_magnon_N(p) <= 1e-9

    @given(p=ratio_strategy)
    @settings(max_examples=80)
    def test_indicator_matches_generic_measure(self, p):
        # The unclamped indicator and the clamped measure must agree on
        # the entangled/separable verdict.
        n = cavity_magnon_N(p)
        e = log_negativity(vam_analytic(p))
        if n <= 0.0:
            assert e == 0.0
        else:
            assert e == pytest.approx(n, abs=1e-9)
