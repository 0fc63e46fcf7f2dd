"""End-to-end acceptance checks.

Each test covers one numbered claim about the finished package and
prints a single PASS line with the measured values when it holds. Run
with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

from __future__ import annotations

import io
import time

import numpy as np
import pytest
from conftest import random_stable_system, state_nu_min

from cavmag.cvgaussian import log_negativity, reduce
from cavmag.linsys import solve_lyapunov
from cavmag.model import BASELINE, entanglement_report, steady_state_cm
from cavmag.sweep import (
    PRESET_NAMES,
    emit_csv,
    figure_preset,
    find_temperature_threshold,
    run_sweep,
)
from oracles import (
    ReducedParams,
    grid_points,
    integrate_lyapunov_oracle,
    tmsv_cm,
    vam_analytic,
    vmm_analytic,
)

UNIT = BASELINE.kappa_a[0]


@pytest.fixture(scope="module")
def preset_grids():
    grids = {}
    for name in PRESET_NAMES:
        grids[name] = run_sweep(figure_preset(name))
    return grids


def test_criterion_1_drive_anchor():
    start = time.perf_counter()
    anchor = log_negativity(tmsv_cm(0.4, 0.0))
    assert anchor == pytest.approx(0.8, abs=1e-9)
    worst = 0.0
    for r in np.linspace(0.0, 3.0, 50):
        worst = max(worst, abs(log_negativity(tmsv_cm(float(r))) - 2.0 * float(r)))
    assert worst <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(
        f"\nPASS criterion 1: drive log-negativity anchor = {anchor:.12f} "
        f"(target 0.8 +/- 1e-9), max |E - 2r| over 50 points = {worst:.3e}, "
        f"runtime {elapsed:.3f} s"
    )


def test_criterion_2_magnon_entanglement_headline():
    start = time.perf_counter()
    rep = entanglement_report(BASELINE.replace(r=0.4, temperature=0.1))
    elapsed = time.perf_counter() - start
    assert rep.E_mm == pytest.approx(0.6, abs=0.05)
    assert elapsed < 1.0
    print(
        f"\nPASS criterion 2: magnon-pair log-negativity at r=0.4, T=0.1 K "
        f"= {rep.E_mm:.6f} (target 0.6 +/- 0.05), runtime {elapsed:.3f} s"
    )


def test_criterion_3_survival_temperature():
    start = time.perf_counter()
    threshold = find_temperature_threshold(BASELINE.replace(r=0.4))
    elapsed = time.perf_counter() - start
    assert threshold is not None
    assert 0.6 <= threshold <= 1.0
    assert elapsed < 5.0
    print(
        f"\nPASS criterion 3: entanglement survival temperature at r=0.4 "
        f"= {threshold:.4f} K (target window [0.6, 1.0]), runtime {elapsed:.3f} s"
    )


def test_criterion_4_transfer_efficiency(preset_grids):
    grid = preset_grids["fig3b"]
    r_values = np.asarray(grid.spec.axis1.values)
    g_values = grid.spec.axis2.values
    assert g_values == (0.5, 1.0, 2.0)
    ratios = grid.value_array("E_mm_over_E_aa")
    at_r1 = int(np.argmin(np.abs(r_values - 1.0)))
    assert r_values[at_r1] == pytest.approx(1.0, abs=1e-12)
    ratio = float(ratios[at_r1, 2])
    assert ratio == pytest.approx(0.90, abs=0.05)
    positive = r_values > 0.0
    ordered = np.all(
        (ratios[positive, 0] < ratios[positive, 1])
        & (ratios[positive, 1] < ratios[positive, 2])
    )
    assert ordered
    print(
        f"\nPASS criterion 4: transfer efficiency E_mm/E_aa at r=1, g=2 kappa_a "
        f"= {ratio:.6f} (target 0.90 +/- 0.05); curves ordered "
        f"g=0.5 < 1 < 2 kappa_a at all {int(positive.sum())} sampled r > 0"
    )


def test_criterion_5_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(20260816)
    worst_mm = 0.0
    worst_am = 0.0
    for _ in range(200):
        a = float(rng.uniform(0.01, 1.0))
        b = float(rng.uniform(0.0, 10.0))
        r = float(rng.uniform(0.0, 1.5))
        params = BASELINE.replace(
            kappa_m=(a * UNIT, a * UNIT), g=(b * UNIT, b * UNIT), r=r, temperature=0.0
        )
        cm = steady_state_cm(params)
        reduced = ReducedParams(kappa_ratio=a, coupling_ratio=b, r=r)
        gap_mm = float(
            np.linalg.norm(reduce(cm, (2, 3)).entries - vmm_analytic(reduced).entries)
        )
        gap_am = float(
            np.linalg.norm(reduce(cm, (0, 2)).entries - vam_analytic(reduced).entries)
        )
        worst_mm = max(worst_mm, gap_mm)
        worst_am = max(worst_am, gap_am)
    elapsed = time.perf_counter() - start
    assert worst_mm <= 1e-8
    assert worst_am <= 1e-8
    assert elapsed < 30.0
    print(
        f"\nPASS criterion 5: 200 random matched-regime points; worst Frobenius gap "
        f"numerical vs closed form: magnon pair {worst_mm:.3e}, cavity-magnon "
        f"{worst_am:.3e} (budget 1e-8), runtime {elapsed:.2f} s"
    )


def test_criterion_6_lyapunov_solver_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(6021)
    worst_residual = 0.0
    worst_oracle = 0.0
    for _ in range(100):
        a, d = random_stable_system(rng, dim=8)
        v = solve_lyapunov(a, d)
        residual = float(np.linalg.norm(a @ v + v @ a.T + d) / np.linalg.norm(d))
        worst_residual = max(worst_residual, residual)
        eig = np.linalg.eigvals(a)
        horizon = 10.0 / abs(float(np.max(eig.real)))
        step = 0.009 / max(float(np.max(np.abs(eig))), 1.0)
        oracle = integrate_lyapunov_oracle(a, d, horizon=horizon, step=step)
        gap = float(np.linalg.norm(v - oracle) / np.linalg.norm(v))
        worst_oracle = max(worst_oracle, gap)
    elapsed = time.perf_counter() - start
    assert worst_residual <= 1e-9
    assert worst_oracle <= 1e-6
    assert elapsed < 30.0
    print(
        f"\nPASS criterion 6: 100 random stable systems; worst scaled residual "
        f"{worst_residual:.3e} (budget 1e-9), worst gap to integration oracle "
        f"{worst_oracle:.3e} (budget 1e-6), runtime {elapsed:.2f} s"
    )


def test_criterion_7_cavity_magnon_separability(preset_grids):
    grid = preset_grids["fig6"]
    indicator = grid.value_array("N_am")
    e_a1m1 = grid.value_array("E_a1m1")
    e_a2m2 = grid.value_array("E_a2m2")
    assert np.all(np.isfinite(indicator))
    peak = float(np.max(indicator))
    assert peak <= 1e-9
    assert np.all(e_a1m1 == 0.0)
    assert np.all(e_a2m2 == 0.0)
    print(
        f"\nPASS criterion 7: cavity-magnon pairs separable over the full "
        f"{indicator.shape[0]}x{indicator.shape[1]} linewidth-coupling grid; "
        f"max indicator {peak:.3e} (budget 1e-9), both log-negativities 0 everywhere"
    )


def test_criterion_8_resonance_optimality(preset_grids):
    grid = preset_grids["fig2a"]
    values = grid.value_array("E_mm")
    i, j = np.unravel_index(int(np.nanargmax(values)), values.shape)
    center_i = len(grid.spec.axis1.values) // 2
    center_j = len(grid.spec.axis2.values) // 2
    assert abs(int(i) - center_i) <= 1
    assert abs(int(j) - center_j) <= 1
    print(
        f"\nPASS criterion 8: detuning-grid maximum of E_mm at cell ({i}, {j}), "
        f"within one cell of the double-resonance center ({center_i}, {center_j})"
    )


def test_criterion_9_monotonicity_suite():
    r_line = [
        entanglement_report(BASELINE.replace(r=float(r), temperature=0.1)).E_mm
        for r in np.linspace(0.0, 1.5, 50)
    ]
    rising = all(b >= a - 1e-10 for a, b in zip(r_line, r_line[1:]))
    assert rising
    t_line = [
        entanglement_report(BASELINE.replace(r=1.0, temperature=float(t))).E_mm
        for t in np.linspace(0.0, 1.0, 50)
    ]
    falling = all(b <= a + 1e-10 for a, b in zip(t_line, t_line[1:]))
    assert falling
    print(
        "\nPASS criterion 9: E_mm non-decreasing along 50 points r in [0, 1.5] "
        f"(0.1 K) from {r_line[0]:.4f} to {r_line[-1]:.4f}; non-increasing along "
        f"50 points T in [0, 1] K (r=1) from {t_line[0]:.4f} to {t_line[-1]:.4f}"
    )


def test_criterion_10_physicality_and_determinism(preset_grids):
    worst = np.inf
    total_cells = 0
    for name in PRESET_NAMES:
        grid = preset_grids[name]
        for column in ("E_aa", "E_mm", "E_a1m1", "E_a2m2", "N_am"):
            assert np.all(np.isfinite(grid.value_array(column)))
        worst = min(worst, float(state_nu_min(grid_points(grid.spec)).min()))
        total_cells += grid.value_array("E_aa").size
        first, second = io.StringIO(), io.StringIO()
        emit_csv(grid, first)
        emit_csv(grid, second)
        assert first.getvalue() == second.getvalue()
        again = run_sweep(figure_preset(name, resolution=3))
        reference = run_sweep(figure_preset(name, resolution=3))
        buf_a, buf_b = io.StringIO(), io.StringIO()
        emit_csv(again, buf_a)
        emit_csv(reference, buf_b)
        assert buf_a.getvalue() == buf_b.getvalue()
    assert worst >= 0.5 - 1e-9
    print(
        f"\nPASS criterion 10: all {total_cells} cells across {len(PRESET_NAMES)} "
        f"presets finite and physical; min symplectic eigenvalue {worst:.12f} "
        f">= 0.5 - 1e-9; CSV regeneration byte-identical for every preset"
    )
