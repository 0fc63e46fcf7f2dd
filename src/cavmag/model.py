"""Two microwave cavities, each coupled to one magnon mode, driven by a
two-mode squeezed vacuum microwave field.

Each cavity mode couples to its own magnon mode at a beamsplitter rate
g_j (linearized magnetic-dipole coupling), while the squeezed drive
entering the two cavity ports carries cross-port correlations set by the
squeezing strength r and phase theta. In frames rotating at the
respective drive frequencies the linearized fluctuation dynamics close on
the quadrature vector

    u = (X1, Y1, X2, Y2, x1, y1, x2, y2),

cavity quadratures first, magnon quadratures second, with du = A u dt +
noise. Drift and diffusion matrices are returned dimensionless,
normalized by the first cavity linewidth; the steady-state covariance is
invariant under that common rescaling.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields, replace

import numpy as np
from numpy.typing import NDArray

from .cvgaussian import SEPARABLE_SLACK, CovarianceMatrix, pair_indicators
from .errors import NumericalFailureError
from .linsys import check_residual, solve_lyapunov

HBAR = 1.054571817e-34  # J s, CODATA 2018
KBOLTZ = 1.380649e-23  # J / K, exact SI value
# Squeezing above which 2N + 1 = cosh 2r or 2|M| = sinh 2r exceeds a quarter
# of the largest double, leaving no headroom for sums of D and V entries.
R_MAX = 0.5 * math.acosh(0.25 * sys.float_info.max)

MODE_LABELS = ("cavity1", "cavity2", "magnon1", "magnon2")


@dataclass(frozen=True)
class SystemParams:
    """Physical parameters of the driven two-cavity, two-magnon system.

    All frequencies and rates are angular (rad/s). Index 0 refers to the
    first cavity/magnon pair, index 1 to the second.

    Attributes
    ----------
    omega_a, omega_m, omega_drive:
        Cavity, magnon and drive angular frequencies per subsystem.
        Detunings are derived: delta_a = omega_a - omega_drive and
        delta_m = omega_m - omega_drive.
    kappa_a, kappa_m:
        Cavity and magnon amplitude decay rates, strictly positive.
    g:
        Cavity-magnon beamsplitter coupling rates, nonnegative.
    r, theta:
        Squeezing strength (dimensionless, >= 0) and phase (rad) of the
        two-mode squeezed drive.
    temperature:
        Bath temperature in kelvin, >= 0. Sets the magnon thermal
        occupation; the drive field is taken at its squeezed-vacuum
        moments.
    """

    omega_a: tuple[float, float]
    omega_m: tuple[float, float]
    omega_drive: tuple[float, float]
    kappa_a: tuple[float, float]
    kappa_m: tuple[float, float]
    g: tuple[float, float]
    r: float
    theta: float
    temperature: float

    def __post_init__(self):
        for name in ("omega_a", "omega_m", "omega_drive", "kappa_a", "kappa_m", "g"):
            value = getattr(self, name)
            # A pair of floats, as replace() passes on, is kept rather than copied.
            floats = type(value) is tuple and len(value) == 2 and type(value[0]) is type(value[1]) is float
            if not floats and isinstance(value, (str, bytes)):
                raise ValueError(f"{name} must hold two numbers, not a string")
            pair = value if floats else tuple(float(x) for x in value)
            if len(pair) != 2:
                raise ValueError(f"{name} must hold exactly two values")
            if not all(math.isfinite(x) for x in pair):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, pair)
        for name in ("omega_a", "omega_m"):
            if any(x <= 0 for x in getattr(self, name)):
                raise ValueError(f"{name} must be strictly positive")
        for name in ("kappa_a", "kappa_m"):
            if any(x <= 0 for x in getattr(self, name)):
                raise ValueError(f"{name} must be strictly positive")
        if any(x < 0 for x in self.g):
            raise ValueError("coupling rates must be nonnegative")
        for name in ("r", "theta", "temperature"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, value)
        if self.r < 0:
            raise ValueError("squeezing parameter r must be nonnegative")
        if self.temperature < 0:
            raise ValueError("temperature must be nonnegative")

    @property
    def delta_a(self) -> tuple[float, float]:
        return tuple(w - w_drive for w, w_drive in zip(self.omega_a, self.omega_drive))

    @property
    def delta_m(self) -> tuple[float, float]:
        return tuple(w - w_drive for w, w_drive in zip(self.omega_m, self.omega_drive))

    def replace(self, **changes) -> "SystemParams":
        return replace(self, **changes)


def _resonant_baseline() -> SystemParams:
    omega = 2.0 * math.pi * 10e9
    kappa_a = 2.0 * math.pi * 5e6
    return SystemParams(
        omega_a=(omega, omega),
        omega_m=(omega, omega),
        omega_drive=(omega, omega),
        kappa_a=(kappa_a, kappa_a),
        kappa_m=(kappa_a / 5.0, kappa_a / 5.0),
        g=(5.0 * kappa_a, 5.0 * kappa_a),
        r=1.0,
        theta=0.0,
        temperature=0.0,
    )


# Matched resonant operating point: 10 GHz modes driven on resonance,
# cavity linewidth 2*pi*5 MHz, magnon linewidth a fifth of that, both
# couplings at five cavity linewidths, unit squeezing, zero temperature.
BASELINE = _resonant_baseline()


@dataclass(frozen=True)
class NoiseMoments:
    """Second moments of the input noise operators.

    ``mean_occupation`` (N) and ``correlation`` (M, complex) describe the
    two-mode squeezed drive hitting the cavity ports;
    ``magnon_occupation`` holds the thermal occupation of each magnon
    bath.
    """

    mean_occupation: float
    correlation: complex
    magnon_occupation: tuple[float, float]


def thermal_occupation(omega: float, temperature: float) -> float:
    """Bose-Einstein occupation of a mode at angular frequency ``omega``.

    Returns 0.0 at zero temperature. ``omega`` must be positive.
    """
    omega, temperature = float(omega), float(temperature)
    if not (math.isfinite(omega) and omega > 0):
        raise ValueError("omega must be positive and finite")
    if not math.isfinite(temperature) or temperature < 0:
        raise ValueError("temperature must be nonnegative and finite")
    if temperature == 0.0:
        return 0.0
    # divide by temperature last: KBOLTZ * temperature underflows to zero
    # for subnormal temperatures
    x = (HBAR * omega / KBOLTZ) / temperature
    if x > 700.0:
        # exp would overflow; the occupation is far below double precision
        return 0.0
    return 1.0 / math.expm1(x)


def noise_moments(params: SystemParams) -> NoiseMoments:
    """Input-noise moments implied by the drive squeezing and temperature.

    N = sinh(r)^2, M = e^{i theta} sinh(r) cosh(r), which saturate
    |M|^2 = N (N + 1) for the pure squeezed drive. Magnon occupations are
    evaluated at each magnon frequency. Raises NumericalFailureError for
    r above :data:`R_MAX`.
    """
    if params.r > R_MAX:
        raise NumericalFailureError(f"drive moments overflow at squeezing r = {params.r:.6g}")
    sh = math.sinh(params.r)
    ch = math.cosh(params.r)
    n_drive = sh * sh
    m_drive = complex(math.cos(params.theta), math.sin(params.theta)) * sh * ch
    n_magnon = tuple(
        thermal_occupation(params.omega_m[j], params.temperature) for j in range(2)
    )
    return NoiseMoments(
        mean_occupation=n_drive,
        correlation=m_drive,
        magnon_occupation=n_magnon,
    )


def build_drift(params: SystemParams) -> NDArray[np.float64]:
    """Drift matrix of the linearized dynamics, normalized by kappa_a1.

    Each 2x2 diagonal block is -kappa + detuning rotation; the
    cavity-magnon coupling enters as the transpose-asymmetric pattern
    (+g on the X-row/y-column, -g on the Y-row/x-column and back),
    reflecting the beamsplitter form of the interaction.
    """
    unit = params.kappa_a[0]
    ka = [k / unit for k in params.kappa_a]
    km = [k / unit for k in params.kappa_m]
    da = [d / unit for d in params.delta_a]
    dm = [d / unit for d in params.delta_m]
    g = [x / unit for x in params.g]
    a = np.zeros((8, 8))
    for j in range(2):
        ca = 2 * j  # cavity block offset
        mg = 4 + 2 * j  # magnon block offset
        a[ca, ca] = a[ca + 1, ca + 1] = -ka[j]
        a[ca, ca + 1], a[ca + 1, ca] = da[j], -da[j]
        a[mg, mg] = a[mg + 1, mg + 1] = -km[j]
        a[mg, mg + 1], a[mg + 1, mg] = dm[j], -dm[j]
        a[ca, mg + 1] = a[mg, ca + 1] = g[j]
        a[ca + 1, mg] = a[mg + 1, ca] = -g[j]
    return a


def build_diffusion(params: SystemParams) -> NDArray[np.float64]:
    """Diffusion matrix of the input noise, normalized by kappa_a1.

    The cavity block carries the squeezed-drive moments: diagonal entries
    kappa_aj (2N + 1) and cross-port correlations
    sqrt(kappa_a1 kappa_a2) * (2 Re M, 2 Im M) arranged so that at
    theta = 0 the X-X correlation is +sinh(2r) and Y-Y is -sinh(2r) (in
    kappa units). Magnon blocks are thermal: kappa_mj (2 N_mj + 1) * I.
    The normalization leaves the vacuum fixed point at V = I/2.
    """
    unit = params.kappa_a[0]
    moments = noise_moments(params)
    n, m = moments.mean_occupation, moments.correlation
    ka = [k / unit for k in params.kappa_a]
    cross = math.sqrt(ka[0] * ka[1])
    # 2 Re M = M + M*, 2 Im M = i (M* - M) as real numbers
    c_xx = cross * 2.0 * m.real
    c_xy = cross * 2.0 * m.imag
    d = np.zeros((8, 8))
    for j in range(2):
        ca = 2 * j
        d[ca, ca] = d[ca + 1, ca + 1] = ka[j] * (2.0 * n + 1.0)
    d[0, 2] = d[2, 0] = c_xx
    d[1, 3] = d[3, 1] = -c_xx
    d[0, 3] = d[3, 0] = c_xy
    d[1, 2] = d[2, 1] = c_xy
    return _set_magnon_blocks(d, params, [2.0 * occ + 1.0 for occ in moments.magnon_occupation])


def _set_magnon_blocks(d, params: SystemParams, weights) -> NDArray[np.float64]:
    """Write kappa_mj / kappa_a1 * weights[j] on the diagonal of magnon j's block of ``d``."""
    for j, w in enumerate(weights):
        mg = 4 + 2 * j
        d[mg, mg] = d[mg + 1, mg + 1] = params.kappa_m[j] / params.kappa_a[0] * w
    return d


def _check_finite(*matrices) -> None:
    if not all(np.isfinite(m).all() for m in matrices):
        raise NumericalFailureError("drift or diffusion matrix overflows at these parameters")


def _steady_states(points) -> NDArray[np.float64]:
    """Steady-state covariances of ``points`` from one Lyapunov call, which factorises each
    distinct drift once; one drift is built per distinct set of drift parameters."""
    keys = [(p.kappa_a, p.kappa_m, p.omega_a, p.omega_m, p.omega_drive, p.g) for p in points]
    drifts = {key: build_drift(p) for key, p in dict(zip(keys, points)).items()}
    a, d = np.stack([drifts[key] for key in keys]), np.stack([build_diffusion(p) for p in points])
    _check_finite(a, d)
    return solve_lyapunov(a, d)


def steady_state_cm(params: SystemParams) -> CovarianceMatrix:
    """Steady-state covariance matrix of the four-mode system.

    Mode order: cavity1, cavity2, magnon1, magnon2. Raises
    NumericalFailureError where the drift or diffusion overflows.
    """
    return CovarianceMatrix(_steady_states([params])[0], MODE_LABELS)


def thermal_steady_state(params: SystemParams):
    """Steady-state covariance entries of ``params`` as a function of temperature.

    V(T) = V0 + n1(T) W1 + n2(T) W2 on the fixed drift: V0 solves T = 0, Wj the
    diffusion 2 kappa_mj / kappa_a1 on magnon j's block. Each V(T) is gated against D(T).
    """
    a, d0 = build_drift(params), build_diffusion(params.replace(temperature=0.0))
    dj = [_set_magnon_blocks(np.zeros((8, 8)), params, e) for e in ((2.0, 0.0), (0.0, 2.0))]
    _check_finite(a, d0, *dj)
    # Gated only within V(T): a lone Wj can miss the gate where a direct solve passes.
    v0, w1, w2 = solve_lyapunov(a, np.stack((d0, *dj)), gate=False)

    def covariance(temperature: float) -> NDArray[np.float64]:
        n1, n2 = (thermal_occupation(omega, temperature) for omega in params.omega_m)
        d = _set_magnon_blocks(d0.copy(), params, (2.0 * n1 + 1.0, 2.0 * n2 + 1.0))
        _check_finite(d)
        v = v0 + n1 * w1 + n2 * w2
        check_residual(a, v, d)
        return v

    return covariance


# Modes of the four reported pairs in field order: the cavities, the
# magnons, and each cavity with its own magnon.
_PAIRS = ((0, 1), (2, 3), (0, 2), (1, 3))


@dataclass(frozen=True)
class EntanglementReport:
    """Steady-state bipartite entanglement summary of one parameter point.

    Logarithmic negativities of the four physically interesting
    bipartitions; ``E_mm_over_E_aa`` is NaN where E_aa is zero. ``N_am``
    is the unclamped -ln(2 nu_min) of the (cavity1, magnon1) pair, from
    which ``E_a1m1`` is clamped.
    """

    E_aa: float
    E_mm: float
    E_a1m1: float
    E_a2m2: float
    E_mm_over_E_aa: float
    N_am: float


# The summary columns of a sweep: the report's fields, in order.
OUTPUT_COLUMNS = tuple(field.name for field in fields(EntanglementReport))


def entanglement_columns(points) -> dict[str, NDArray[np.float64]]:
    """Solve for each point's steady state and quantify its entanglement.

    Returns one array per :data:`OUTPUT_COLUMNS` entry, a value per point.
    E_aa: the two cavity modes; E_mm: the two magnon modes;
    E_a1m1 / E_a2m2: each cavity with its own magnon. The four pairs of
    all points go through one closed-form array call (`pair_indicators`).
    No stability test is needed: build_drift gives
    A + A^T = -2 diag(kappa) / kappa_a1.
    """
    if not points:
        return {name: np.empty(0) for name in OUTPUT_COLUMNS}
    indicators = pair_indicators(_steady_states(points), _PAIRS)
    e = np.where(indicators > SEPARABLE_SLACK, indicators, 0.0)  # clamp_negativity, elementwise
    ratio = np.divide(e[:, 1], e[:, 0], out=np.full(len(e), math.nan), where=e[:, 0] > 0.0)
    return dict(zip(OUTPUT_COLUMNS, (*e.T, ratio, indicators[:, 2])))


def entanglement_report(params: SystemParams) -> EntanglementReport:
    """:func:`entanglement_columns` of one point, as a record."""
    return EntanglementReport(*(column.item() for column in entanglement_columns([params]).values()))
