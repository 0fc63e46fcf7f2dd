"""Independent reference for the benchmark's correctness checks.

Nothing here calls a cavmag matrix-construction or solve function, so a
refactor of the program cannot make the reference agree with itself.
The model is rebuilt from the ``SystemParams`` fields alone, starting
from the complex-mode Langevin equations

    d(alpha)/dt = -(K + iH) alpha + sqrt(2K) alpha_in,

with alpha = (a1, a2, m1, m2), H the detuning/beamsplitter Hamiltonian
and K the linewidths, then mapped to quadratures X = (a + a^dag)/sqrt2,
Y = i(a^dag - a)/sqrt2. The steady state comes from
``scipy.linalg.solve_continuous_lyapunov`` (Bartels-Stewart), and the
log-negativity from the closed-form two-mode invariants evaluated in
exact rational arithmetic, so no cancellation near a degenerate
spectrum can reach the 1e-8 comparison tolerance.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import numpy as np
from scipy.linalg import solve_continuous_lyapunov

HBAR = 1.054571817e-34  # J s, CODATA 2018
KBOLTZ = 1.380649e-23  # J / K, exact SI value

# The largest |Delta E| between program and reference that still counts
# as agreement.
E_ATOL = 1e-8

# Mode pairs of the entanglement outputs, in (cavity1, cavity2, magnon1,
# magnon2) mode order.
PAIRS = {"E_aa": (0, 1), "E_mm": (2, 3), "E_a1m1": (0, 2), "E_a2m2": (1, 3)}


def occupation(omega: float, temperature: float) -> float:
    if temperature == 0.0:
        return 0.0
    x = HBAR * omega / (KBOLTZ * temperature)
    return 0.0 if x > 700.0 else 1.0 / math.expm1(x)


def _quadrature_form(z: np.ndarray) -> np.ndarray:
    """Real 2n x 2n matrix acting on (X1, Y1, ...) like complex ``z`` on modes."""
    n = z.shape[0]
    out = np.empty((2 * n, 2 * n))
    out[0::2, 0::2] = z.real
    out[0::2, 1::2] = -z.imag
    out[1::2, 0::2] = z.imag
    out[1::2, 1::2] = z.real
    return out


def drift(p) -> np.ndarray:
    """Quadrature drift in units of the first cavity linewidth."""
    unit = p.kappa_a[0]
    omega = (*p.omega_a, *p.omega_m)
    drive = (*p.omega_drive, *p.omega_drive)
    h = np.diag([(w - d) / unit for w, d in zip(omega, drive)]).astype(complex)
    for j in range(2):
        h[j, 2 + j] = h[2 + j, j] = p.g[j] / unit
    k = np.diag([x / unit for x in (*p.kappa_a, *p.kappa_m)])
    return _quadrature_form(-(k + 1j * h))


def diffusion(p) -> np.ndarray:
    """Quadrature diffusion 2 sqrt(K) S sqrt(K), in kappa_a1 units.

    S is the symmetrized quadrature covariance of the input noise,
    built from the normal-ordered moments <a_j^dag a_k> and <a_j a_k>:
    two-mode squeezed vacuum on the cavity ports, thermal baths on the
    magnons.
    """
    sh, ch = math.sinh(p.r), math.cosh(p.r)
    n_drive = sh * sh
    m_drive = complex(math.cos(p.theta), math.sin(p.theta)) * sh * ch
    normal = np.diag(
        [n_drive, n_drive] + [occupation(w, p.temperature) for w in p.omega_m]
    ).astype(complex)
    anomalous = np.zeros((4, 4), dtype=complex)
    anomalous[0, 1] = anomalous[1, 0] = m_drive
    s = np.empty((8, 8))
    s[0::2, 0::2] = (anomalous + normal).real
    s[1::2, 1::2] = (normal - anomalous).real
    s[0::2, 1::2] = (normal + anomalous).imag
    s[1::2, 0::2] = s[0::2, 1::2].T
    s += 0.5 * np.eye(8)
    unit = p.kappa_a[0]
    root = np.repeat([math.sqrt(x / unit) for x in (*p.kappa_a, *p.kappa_m)], 2)
    return 2.0 * root[:, None] * s * root[None, :]


def covariance(p) -> np.ndarray:
    v = solve_continuous_lyapunov(drift(p), -diffusion(p))
    return 0.5 * (v + v.T)


def _det2(a, b, c, d):
    return a * d - b * c


def pt_min_symplectic(v4: np.ndarray) -> float:
    """Smallest symplectic eigenvalue of the partial transpose of a 4x4 CM.

    With V = [[A, C], [C^T, B]]: Delta~ = det A + det B - 2 det C and
    nu~_-^2 = (Delta~ - sqrt(Delta~^2 - 4 det V)) / 2, evaluated as
    2 det V / (Delta~ + sqrt(...)). The invariants and the discriminant
    are exact rationals of the stored doubles.
    """
    m = [[Fraction(float(x)) for x in row] for row in v4]
    det_a = _det2(m[0][0], m[0][1], m[1][0], m[1][1])
    det_b = _det2(m[2][2], m[2][3], m[3][2], m[3][3])
    det_c = _det2(m[0][2], m[0][3], m[1][2], m[1][3])
    # Laplace expansion of det V along its first two rows
    cols = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    det_v = Fraction(0)
    for i, j in cols:
        rest = tuple(k for k in range(4) if k not in (i, j))
        sign = 1 if (i + j) % 2 else -1
        top = _det2(m[0][i], m[0][j], m[1][i], m[1][j])
        bottom = _det2(m[2][rest[0]], m[2][rest[1]], m[3][rest[0]], m[3][rest[1]])
        det_v += sign * top * bottom
    delta = det_a + det_b - 2 * det_c
    disc = delta * delta - 4 * det_v
    root = math.sqrt(max(float(disc), 0.0))
    return math.sqrt(max(2.0 * float(det_v) / (float(delta) + root), 0.0))


def pair_cm(v: np.ndarray, pair: tuple[int, int]) -> np.ndarray:
    idx = [q for k in pair for q in (2 * k, 2 * k + 1)]
    return v[np.ix_(idx, idx)]


def negativity_indicator(v: np.ndarray, pair: tuple[int, int]) -> float:
    """Unclamped -ln(2 nu~_-) of a mode pair; negative when separable."""
    return -math.log(2.0 * pt_min_symplectic(pair_cm(v, pair)))


def log_negativity(v: np.ndarray, pair: tuple[int, int]) -> float:
    return max(0.0, negativity_indicator(v, pair))


def outputs(p, names) -> dict[str, float]:
    """Reference values of the named outputs (``PAIRS`` keys and ``N_am``)."""
    v = covariance(p)
    out = {}
    for name in names:
        if name == "N_am":
            out[name] = negativity_indicator(v, (0, 2))
        else:
            out[name] = log_negativity(v, PAIRS[name])
    return out


def disagreements(program: dict[str, float], ref: dict[str, float], rtol: float = 0.0) -> list[str]:
    """Names whose program value is non-finite or off the reference value.

    The allowed gap is ``E_ATOL + rtol * |reference|``; ``rtol`` covers
    values that passed through a fixed-digit text format.
    """
    return [
        name
        for name, value in program.items()
        if not (math.isfinite(value) and abs(value - ref[name]) <= E_ATOL + rtol * abs(ref[name]))
    ]


def threshold_brackets(p, t_c: float, tol: float) -> bool:
    """True when E_mm > 0 at T_c - 2 tol and E_mm = 0 at T_c + 2 tol."""
    return e_mm(p, max(t_c - 2 * tol, 0.0)) > 0.0 and e_mm(p, t_c + 2 * tol) == 0.0


def e_mm(p, temperature: float) -> float:
    return log_negativity(covariance(dataclasses.replace(p, temperature=temperature)), PAIRS["E_mm"])
