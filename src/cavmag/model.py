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
import numbers
import operator
import sys
from collections.abc import Mapping, Set
from dataclasses import dataclass, fields
from types import SimpleNamespace

import numpy as np
from numpy.typing import NDArray

from .cvgaussian import CovarianceMatrix, _closed_form, clamp_negativity, pair_moments
from .errors import NumericalFailureError, _instance
from .linsys import _scale_diffusions, solve_lyapunov, superposition_gate

HBAR = 1.054571817e-34  # J s, CODATA 2018
KBOLTZ = 1.380649e-23  # J / K, exact SI value
# Squeezing above which 2N + 1 = cosh 2r or 2|M| = sinh 2r exceeds a quarter
# of the largest double, leaving no headroom for sums of D and V entries.
R_MAX = 0.5 * math.acosh(0.25 * sys.float_info.max)

MODE_LABELS = ("cavity1", "cavity2", "magnon1", "magnon2")


def _real(name: str, value) -> float:
    """``value`` as a float, +-inf beyond its range; ValueError unless a real number other than a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, not {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:  # an integer or fraction beyond the float range; callers refuse inf
        return math.inf if value > 0 else -math.inf


@dataclass(frozen=True, slots=True)
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

    def __post_init__(self):  # a float, or a pair of floats as replace() passes on, is kept as it is
        for name, (pair, refused, refusal) in _FIELD_RULES.items():
            value = getattr(self, name)
            if not pair and type(value) is not float:
                object.__setattr__(self, name, value := _real(name, value))
            elif pair and not (type(value) is tuple and len(value) == 2 and type(value[0]) is type(value[1]) is float):
                object.__setattr__(self, name, value := _pair(name, value))
            first, second = value if pair else (value, value)
            if not (refused < first < math.inf and refused < second < math.inf):
                finite = math.isfinite(first) and math.isfinite(second)
                raise ValueError(refusal if finite else f"{name} must be finite")

    @property
    def delta_a(self) -> tuple[float, float]:
        return tuple(w - w_drive for w, w_drive in zip(self.omega_a, self.omega_drive))

    @property
    def delta_m(self) -> tuple[float, float]:
        return tuple(w - w_drive for w, w_drive in zip(self.omega_m, self.omega_drive))

    def replace(self, **changes) -> "SystemParams":
        """A new instance with ``changes``, through the constructor; TypeError for a name that is not a field."""
        values = tuple(map(changes.pop, _FIELD_RULES, _field_values(self)))  # changes keeps names of no field
        return SystemParams(*values, **changes)


# The input contract of SystemParams, walked in field order: whether a field holds a pair, the largest value
# it refuses besides non-finite ones (-5e-324 is the largest negative float), and that refusal's message.
_FIELD_RULES = {
    "omega_a": (True, 0.0, "omega_a must be strictly positive"),
    "omega_m": (True, 0.0, "omega_m must be strictly positive"),
    "omega_drive": (True, -math.inf, None),
    "kappa_a": (True, 0.0, "kappa_a must be strictly positive"),
    "kappa_m": (True, 0.0, "kappa_m must be strictly positive"),
    "g": (True, -5e-324, "coupling rates must be nonnegative"),
    "r": (False, -5e-324, "squeezing parameter r must be nonnegative"),
    "theta": (False, -math.inf, None),
    "temperature": (False, -5e-324, "temperature must be nonnegative"),
}
_field_values = operator.attrgetter(*_FIELD_RULES)


def _pair(name: str, value, member=_real) -> tuple:
    """``value``'s two members through ``member``; ValueError unless an ordered iterable of two (a set has no order)."""
    if isinstance(value, (str, bytes, Set, Mapping)) or not np.iterable(value):  # a 0-d array is not iterable
        raise ValueError(f"{name} must hold two numbers, not {type(value).__name__}")
    if len(value := tuple(member(name, x) for x in value)) != 2:
        raise ValueError(f"{name} must hold exactly two values")
    return value


def _floats(fields) -> tuple:
    """The 15 floats of a SystemParams or a :class:`_Fields` record in field order, pairs unpacked."""
    return sum((value if type(value) is tuple else (value,) for value in _field_values(fields)), ())


class _Fields(SimpleNamespace):
    """The fields of SystemParams at a batch of points, each float a number or an array broadcasting to ``shape``,
    a pair a tuple of two, so ``sweep.PARAMETER_PATHS`` rows read ``p.kappa_a[0]`` and call ``p.replace(...)`` on a
    record as on a SystemParams. An array keeps its shape: in a grid, a value one axis sets varies along it only."""

    @classmethod
    def point(cls, params: SystemParams) -> "_Fields":
        """The record of one point, its floats as they are: NumPy takes a number as an array of shape ()."""
        return cls(shape=(1,), **dict(zip(_FIELD_RULES, _field_values(_instance("params", params, SystemParams)))))

    def replace(self, **changes) -> "_Fields":
        """A new record with ``changes`` (numbers or arrays) broadcast against this one. Its first point in row-major
        order where a changed float breaks ``_FIELD_RULES`` raises what that point's SystemParams raises."""
        values, bad = vars(self).copy(), False
        for name, value in changes.items():
            pair, refused, _ = _FIELD_RULES[name]
            values[name] = value = _pair(name, value, lambda _, x: np.asarray(x)) if pair else np.asarray(value)
            for x in value if pair else (value,):
                bad = bad | ~((refused < x) & (x < math.inf))
        fields = _Fields(**{**values, "shape": np.broadcast_shapes(self.shape, np.shape(bad))})
        if np.any(bad):  # the same comparisons refuse the first bad point's SystemParams
            i, cell = np.broadcast_to(bad, fields.shape).argmax(), lambda x: np.broadcast_to(x, fields.shape).flat[i]
            SystemParams(*(tuple(map(cell, x)) if type(x) is tuple else cell(x) for x in _field_values(fields)))
        return fields


# Matched resonant operating point: 10 GHz modes driven on resonance,
# cavity linewidth 2*pi*5 MHz, magnon linewidth a fifth of that, both
# couplings at five cavity linewidths, unit squeezing, zero temperature.
_OMEGA, _KAPPA = (2.0 * math.pi * 10e9,) * 2, 2.0 * math.pi * 5e6
BASELINE = SystemParams(
    omega_a=_OMEGA, omega_m=_OMEGA, omega_drive=_OMEGA,
    kappa_a=(_KAPPA, _KAPPA), kappa_m=(_KAPPA / 5.0, _KAPPA / 5.0), g=(5.0 * _KAPPA, 5.0 * _KAPPA),
    r=1.0, theta=0.0, temperature=0.0,
)


@dataclass(frozen=True)
class NoiseMoments:
    """Second moments of the input noise: N and M (complex) of the two-mode squeezed drive
    hitting the cavity ports, and the thermal occupation of each magnon bath."""

    mean_occupation: float
    correlation: complex
    magnon_occupation: tuple[float, float]


def thermal_occupation(omega: float, temperature: float) -> float:
    """Bose-Einstein occupation of a mode at angular frequency ``omega`` > 0; 0.0 at T = 0."""
    omega = omega if type(omega) is float else _real("omega", omega)
    temperature = temperature if type(temperature) is float else _real("temperature", temperature)
    if not (math.isfinite(omega) and omega > 0):
        raise ValueError("omega must be positive and finite")
    if not math.isfinite(temperature) or temperature < 0:
        raise ValueError("temperature must be nonnegative and finite")
    if temperature == 0.0:
        return 0.0
    # divide by temperature last: KBOLTZ * temperature underflows for subnormal temperatures;
    # where HBAR * omega underflows instead, divide omega by the temperature first
    x = (HBAR * omega / KBOLTZ) / temperature or (HBAR / KBOLTZ) * (omega / temperature)
    if x > 700.0:
        # exp would overflow; the occupation is far below double precision
        return 0.0
    return 1.0 / math.expm1(x) if x else math.inf  # beyond float range: callers' finiteness checks refuse it


def _drive_moments(r: float, theta: float) -> tuple[float, float, float]:
    """N = sinh(r)^2 and the real and imaginary parts of M = e^{i theta} sinh(r) cosh(r) of the squeezed
    drive, which saturate |M|^2 = N (N + 1). Raises NumericalFailureError for r above :data:`R_MAX`."""
    if r > R_MAX:
        raise NumericalFailureError(f"drive moments overflow at squeezing r = {r:.6g}")
    sh, ch = math.sinh(r), math.cosh(r)
    m = complex(math.cos(theta), math.sin(theta)) * sh * ch
    return sh * sh, m.real, m.imag


def noise_moments(params: SystemParams) -> NoiseMoments:
    """The drive's moments (:func:`_drive_moments`) and each magnon bath's occupation."""
    n, re_m, im_m = _drive_moments(_instance("params", params, SystemParams).r, params.theta)
    occupations = tuple(thermal_occupation(omega, params.temperature) for omega in params.omega_m)
    return NoiseMoments(n, complex(re_m, im_m), occupations)


def _layouts() -> tuple[NDArray[np.intp], NDArray[np.intp]]:
    """The 8x8 drift and diffusion layouts: the column of each entry in its value matrix.

    Drift columns: v = (ka, km, g, da, dm)_j / kappa_a1 for j = 1, 2, then 0, then -v. Each 2x2
    diagonal block is -kappa + detuning rotation; the beamsplitter coupling enters as +g
    on the X-row/y-column, -g on the Y-row/x-column and back.
    Diffusion columns: ka_j (2N + 1), km_j (2 N_mj + 1), c_xx, c_xy, 0, -c_xx, with
    (c_xx, c_xy) = sqrt(ka1 ka2) (2 Re M, 2 Im M): at theta = 0 the cavities' X-X
    correlation is +sinh(2r) and Y-Y -sinh(2r). The vacuum fixed point is V = I/2.
    """
    a, d = np.full((8, 8), 10, dtype=np.intp), np.full((8, 8), 6, dtype=np.intp)
    # Both diagonals read (ka1, ka2, km1, km2) at columns 0-3, each twice: -kappa in the drift, kappa (2n + 1) in D.
    np.fill_diagonal(d, np.arange(8) // 2)
    np.fill_diagonal(a, d.diagonal() + 11)
    for j in range(2):
        g, da, dm = range(j + 4, 10, 2)
        ca, mg = 2 * j, 4 + 2 * j  # cavity and magnon block offsets
        a[ca, ca + 1], a[ca + 1, ca] = da, da + 11
        a[mg, mg + 1], a[mg + 1, mg] = dm, dm + 11
        a[ca, mg + 1] = a[mg, ca + 1] = g
        a[ca + 1, mg] = a[mg + 1, ca] = g + 11
    d[0, 2] = d[2, 0] = 4
    d[1, 3] = d[3, 1] = 7
    d[0, 3] = d[3, 0] = d[1, 2] = d[2, 1] = 5
    return a, d


_DRIFT_LAYOUT, _DIFFUSION_LAYOUT = _layouts()


# The noise moments at each point of their broadcast arguments, in row-major order, with sinh, cosh and expm1 of
# ``math`` (numpy's differ in the last bit): on a grid, once per value of the per-axis arrays, not per cell.
_DRIVE, _BATH = np.frompyfunc(_drive_moments, 2, 3), np.frompyfunc(thermal_occupation, 2, 1)

# The six members D_b of every diffusion, D = sum_b c_b D_b, as noise rows of :func:`_diffusions`: half the unit rows
# of the vacuum, N, Re M, Im M, n1 and n2, with D_N added to the Re M and Im M rows. So each is PSD (a cavity block
# [[2 ka1 I, C], [C^T, 2 ka2 I]] has C^T C = 4 ka1 ka2 I), and no entry exceeds a rate, so none overflows.
_MEMBERS = np.eye(8)[[4, 0, 5, 6, 2, 3]] / 2
_WEIGHTS = 4.0 * _MEMBERS.T  # a cell's c = noise row @ _WEIGHTS = 2 (1, N - Re M - Im M, Re M, Im M, n1, n2)
_MEMBERS[1:4, :2], _WEIGHTS[5:7, 1] = 0.5, -2.0
_FOLDED = _WEIGHTS[:, [0, 4, 5]]  # the search's 2 (1, n1, n2): on half its D at T = 0 and on _MEMBERS[4:]


def _diffusions(v, noise):
    """The diffusions of rates ``v`` (:func:`_layouts`' drift columns) at noise rows (N, N, n1, n2, vacuum, Re M, Im M,
    0), broadcast: one ``take`` of :func:`_diagonal`, c_xx, c_xy, 0 and -c_xx."""
    c = np.sqrt(v[..., 1:2]) * 2.0 * noise[..., 5:]  # (c_xx, c_xy, 0): v = rates / kappa_a1 has v[0] = 1
    return np.concatenate((_diagonal(v, noise), c, -c[..., :1]), -1).take(_DIFFUSION_LAYOUT, -1)


def _diagonal(v, noise):
    """The distinct diagonal entries of :func:`_diffusions`: their max is each D's largest |entry| (every D is PSD)."""
    return v[..., :4] * (2.0 * noise[..., :4] + noise[..., 4:5])


def _stacks(fields: _Fields):
    """Drift and diffusion stacks of ``fields``, normalized by each kappa_a1: the diffusions at the record's shape,
    the drifts at the broadcast shape of the fields they depend on, one ``take`` each from a value matrix with a column
    per distinct entry (:func:`_layouts`); and each drift's rates v and each cell's noise row, which :func:`_diffusions`
    and :func:`_diagonal` take. The first r above :data:`R_MAX` raises; overflows give inf."""
    (wa1, wa2), (wm1, wm2), (wd1, wd2) = fields.omega_a, fields.omega_m, fields.omega_drive
    noise = np.zeros(fields.shape + (8,))
    with np.errstate(over="ignore", invalid="ignore"):
        # Columns: (kappa_a, kappa_m, g, delta_a, delta_m) for j = 1, 2, then 0.
        rates = (*fields.kappa_a, *fields.kappa_m, *fields.g, wa1 - wd1, wa2 - wd2, wm1 - wd1, wm2 - wd2, 0.0)
        f = np.empty(np.broadcast_shapes(*{x.shape for x in rates if hasattr(x, "shape")}) + (11,))
        n, re_m, im_m = _DRIVE(fields.r, fields.theta)
        n1, n2 = (_BATH(omega, fields.temperature) for omega in fields.omega_m)
        for column, x in enumerate(rates):
            f[..., column] = x
        for column, x in enumerate((n, n, n1, n2, 1.0, re_m, im_m)):
            noise[..., column] = x
        v = f / f[..., :1]
        return np.concatenate((v, -v), -1).take(_DRIFT_LAYOUT, -1), _diffusions(v, noise), (v, noise)


def build_drift(params: SystemParams) -> NDArray[np.float64]:
    """Drift matrix of the linearized dynamics, normalized by kappa_a1 (see :func:`_layouts`)."""
    return _stacks(_Fields.point(params))[0]


def build_diffusion(params: SystemParams) -> NDArray[np.float64]:
    """Diffusion matrix of the input noise, normalized by kappa_a1 (see :func:`_layouts`)."""
    return _stacks(_Fields.point(params))[1][0]


def _check_finite(*matrices) -> None:
    if not all(np.isfinite(m).all() for m in matrices):
        raise NumericalFailureError("drift or diffusion matrix overflows at these parameters")


def _steady_states(fields: _Fields) -> NDArray[np.float64]:
    """Steady-state covariances of the points of ``fields``, (k, 8, 8): one stacked build, one Lyapunov call."""
    a, d, _ = _stacks(fields)
    _check_finite(a, d)
    return solve_lyapunov(a, d).reshape(-1, 8, 8)


def steady_state_cm(params: SystemParams) -> CovarianceMatrix:
    """Steady-state covariance matrix of the four modes cavity1, cavity2, magnon1, magnon2.
    Raises NumericalFailureError where the drift or diffusion overflows."""
    return CovarianceMatrix(_steady_states(_Fields.point(params))[0], MODE_LABELS)


def _superposed(a, members, pairs):
    """``moments(c, peak)``: the moments of mode ``pairs`` of V(c) = sum_b c_b V_b at rows c (..., b), c . q (..., 10,
    pairs), V_b solving A V_b + V_b A^T + D_b = 0 for ``members`` D_b (..., b, 8, 8) on drifts ``a`` that broadcast to
    them. One Lyapunov call solves them all, and no V(c) is formed: each row is gated by :func:`superposition_gate`
    against its D(c)'s largest |entry| ``peak`` (...), as a lone member can miss the gate where V(c) passes it."""
    v = solve_lyapunov(a, members, gate=False)
    gate, q = superposition_gate(a, v, members), pair_moments(v, pairs)

    def moments(c, peak) -> NDArray[np.float64]:
        gate(c, peak)
        return np.einsum("...b,...bij->...ij", c, q)

    return moments


def thermal_pair_moments(params: SystemParams, pairs):
    """Steady-state moments of mode ``pairs`` (:func:`pair_moments`), (k, 10, pairs) for k temperatures: V(T) = V0 +
    n1(T) W1 + n2(T) W2, each temperature's noise row weighed (:data:`_FOLDED`) and gated as a grid cell's is."""
    a, _, (v, noise) = _stacks(_Fields.point(params))
    _check_finite(a)  # the members are finite with the rates
    noise[:, 2:4] = 0.0  # the point's noise row at T = 0
    superposed = _superposed(a, _diffusions(v[..., None, :], np.vstack((noise / 2.0, _MEMBERS[4:]))), pairs)

    def moments(temperatures) -> NDArray[np.float64]:
        rows = noise.repeat(len(temperatures), 0)  # (0, 8) for no temperatures
        rows.T[2:4] = [[thermal_occupation(omega, t) for t in temperatures] for omega in params.omega_m]
        with np.errstate(over="ignore", invalid="ignore"):  # 2 n overflows for an occupation above 8.9e307
            peak = _diagonal(v, rows).max(-1)
        _check_finite(peak)  # then no weight overflows either
        return superposed(rows.dot(_FOLDED), peak)  # ndarray.dot: half the call overhead of @ on a few rows

    return moments


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


def _columns(fields: _Fields) -> dict[str, NDArray[np.float64]]:
    """One array per :data:`OUTPUT_COLUMNS` entry of the points of ``fields``, in row-major order, from one Lyapunov
    call and one closed-form call on the pair moments of their steady states: where a drift serves more cells than it
    has :data:`_MEMBERS`, each cell's weights on them and peak (:func:`_superposed`), after each D's checks;
    elsewhere each cell's direct solve. No stability test: every drift has A + A^T = -2 diag(kappa) / kappa_a1."""
    a, d, (v, noise) = _stacks(fields)
    _check_finite(a, d)
    if d.size <= len(_MEMBERS) * a.size:
        q = pair_moments(solve_lyapunov(a, d), _PAIRS)
    else:
        _scale_diffusions(d)  # before any member is solved
        q = _superposed(a[..., None, :, :], _diffusions(v[..., None, :], _MEMBERS), _PAIRS)(
            noise @ _WEIGHTS, _diagonal(v, noise).max(-1))
    indicators = _closed_form(q.reshape(-1, 10, len(_PAIRS)))
    e = clamp_negativity(indicators)
    ratio = np.divide(e[:, 1], e[:, 0], out=np.full(len(e), math.nan), where=e[:, 0] > 0.0)
    return dict(zip(OUTPUT_COLUMNS, (*e.T, ratio, indicators[:, 2])))


def entanglement_report(params: SystemParams) -> EntanglementReport:
    """:func:`_columns` of one point, as a record."""
    return EntanglementReport(*(column.item() for column in _columns(_Fields.point(params)).values()))
