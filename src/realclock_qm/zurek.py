"""Zurek's spin-bath measurement model, exactly solvable.

One two-state system couples to N two-state environment atoms through
sigma_z (x) sigma_z^k with strengths g_k; free energies all vanish. The
reduced 2x2 state keeps its populations and multiplies its off-diagonal
element by the coherence factor

    z(t) = prod_k [cos(2 g_k t) + i (|alpha_k|^2 - |beta_k|^2) sin(2 g_k t)],

a multiperiodic function that returns arbitrarily close to 1 at large
times (recurrence of coherence). Evolving with a real clock multiplies
z by prod_k exp(-(2 g_k)^2 T_P^(4/3) t^(2/3)), which kills the recurrences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clock_accuracy import decoherence_exponent
from .core import DensityMatrix
from .errors import (
    InvalidCoherenceError,
    ResourceLimitError,
    UndefinedCoherenceError,
    ValidationError,
)

NORMALIZATION_TOL = 1e-12
BRUTE_FORCE_MAX_ATOMS = 14


@dataclass(frozen=True, eq=False)
class SpinBath:
    """Couplings and initial amplitudes of the system plus N environment atoms."""

    couplings: np.ndarray
    alphas: np.ndarray
    betas: np.ndarray
    a: complex
    b: complex

    def __post_init__(self):
        g = np.array(self.couplings, dtype=float)
        al = np.array(self.alphas, dtype=complex)
        be = np.array(self.betas, dtype=complex)
        if g.ndim != 1 or g.size < 1:
            raise ValidationError("need at least one environment atom")
        if not np.all(np.isfinite(g)):
            raise ValidationError(f"couplings must be finite, got {g}")
        if al.shape != g.shape or be.shape != g.shape:
            raise ValidationError("couplings and amplitude arrays must have equal length")
        norms = np.abs(al) ** 2 + np.abs(be) ** 2
        worst = int(np.argmax(np.abs(norms - 1.0)))
        if not abs(norms[worst] - 1.0) <= NORMALIZATION_TOL:  # NaN fails too
            raise ValidationError(
                f"atom {worst} amplitudes are not normalized: |alpha|^2+|beta|^2 = "
                f"{norms[worst]:.15g}"
            )
        sys_norm = abs(self.a) ** 2 + abs(self.b) ** 2
        if not abs(sys_norm - 1.0) <= NORMALIZATION_TOL:
            raise ValidationError(
                f"system amplitudes are not normalized: |a|^2+|b|^2 = {sys_norm:.15g}"
            )
        for arr in (g, al, be):
            arr.setflags(write=False)
        object.__setattr__(self, "couplings", g)
        object.__setattr__(self, "alphas", al)
        object.__setattr__(self, "betas", be)
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "b", complex(self.b))

    @property
    def n_atoms(self) -> int:
        return self.couplings.shape[0]


@dataclass(frozen=True)
class ReducedState:
    """Populations and coherence of the reduced two-level state."""

    population_plus: float
    population_minus: float
    coherence: complex

    def __post_init__(self):
        if abs(self.population_plus + self.population_minus - 1.0) > 1e-10:
            raise ValidationError("populations must sum to 1")
        if abs(self.coherence) > 1.0 + 1e-10:
            raise ValidationError(f"|z| must not exceed 1, got {abs(self.coherence):.12g}")


def random_bath(
    n_atoms: int,
    coupling_range: tuple[float, float],
    rng: np.random.Generator,
) -> SpinBath:
    """Bath with uniform couplings and amplitudes uniform on the unit sphere."""
    if n_atoms < 1:
        raise ValidationError("need at least one environment atom")
    lo, hi = coupling_range
    if not lo <= hi:
        raise ValidationError(f"invalid coupling range [{lo}, {hi}]")
    g = rng.uniform(lo, hi, size=n_atoms)

    def unit_pair(size):
        raw = rng.normal(size=(size, 4))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        return raw[:, 0] + 1j * raw[:, 1], raw[:, 2] + 1j * raw[:, 3]

    alphas, betas = unit_pair(n_atoms)
    (a,), (b,) = unit_pair(1)
    return SpinBath(couplings=g, alphas=alphas, betas=betas, a=complex(a), b=complex(b))


def z_ideal(bath: SpinBath, t):
    """Coherence factor from the closed-form product; |z| <= 1 always.

    ``t`` may be a scalar or an array of times.
    """
    t_arr = np.asarray(t, dtype=float)
    phase = 2.0 * np.multiply.outer(t_arr, bath.couplings)
    weight = (np.abs(bath.alphas) ** 2 - np.abs(bath.betas) ** 2)
    factors = np.cos(phase) + 1j * weight * np.sin(phase)
    out = np.prod(factors, axis=-1)
    return complex(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def realclock_damping(bath: SpinBath, t, t_planck: float):
    """Factor prod_k exp(-(2 g_k)^2 T_P^(4/3) t^(2/3)) by which a real clock
    multiplies z; ``t`` may be a scalar or an array of times."""
    sum_sq = float(np.sum((2.0 * bath.couplings) ** 2))
    return np.exp(-sum_sq * decoherence_exponent(1.0, np.asarray(t, dtype=float), t_planck))


def z_realclock(bath: SpinBath, t, t_planck: float):
    """Coherence factor under real-clock evolution: z_ideal times
    realclock_damping."""
    out = z_ideal(bath, t) * realclock_damping(bath, t, t_planck)
    return complex(out) if np.ndim(t) == 0 else out


def brute_force_z(bath: SpinBath, t: float) -> complex:
    """Coherence factor from the assembled full state vector.

    Each environment factor evolves by a phase exp(+/- i g_k t) conditioned
    on the system spin; the 2 x 2^N state is reduced over all atoms and the
    off-diagonal coefficient divided by a*conj(b). Exact (no matrix
    exponentials), but the state dimension 2^(N+1) caps N.
    """
    if bath.n_atoms > BRUTE_FORCE_MAX_ATOMS:
        raise ResourceLimitError(
            f"brute force supports at most {BRUTE_FORCE_MAX_ATOMS} atoms, "
            f"got {bath.n_atoms}"
        )
    ab_conj = bath.a * np.conj(bath.b)
    if abs(ab_conj) == 0:
        raise UndefinedCoherenceError(
            "coherence factor is undefined when a*conj(b) = 0"
        )
    env_plus = np.array([1.0 + 0.0j])
    env_minus = np.array([1.0 + 0.0j])
    for g, al, be in zip(bath.couplings, bath.alphas, bath.betas):
        up = np.exp(1j * g * t)
        env_plus = np.multiply.outer(env_plus, [al * up, be / up]).ravel()
        env_minus = np.multiply.outer(env_minus, [al / up, be * up]).ravel()
    psi = np.vstack([bath.a * env_plus, bath.b * env_minus])
    reduced = psi @ psi.conj().T  # partial trace over all atoms
    return complex(reduced[0, 1] / ab_conj)


def reduced_density(bath: SpinBath, z: complex) -> tuple[ReducedState, DensityMatrix]:
    """Reduced 2x2 state for a given coherence factor.

    rho = |a|^2 |+><+| + |b|^2 |-><-| + z a b* |+><-| + conj. transpose;
    positive whenever |z| <= 1.
    """
    if abs(z) > 1.0 + 1e-10:
        raise InvalidCoherenceError(
            f"|z| = {abs(z):.12g} > 1 would break positivity of the reduced state"
        )
    pop_plus = abs(bath.a) ** 2
    pop_minus = abs(bath.b) ** 2
    off = z * bath.a * np.conj(bath.b)
    matrix = np.array([[pop_plus, off], [np.conj(off), pop_minus]])
    state = ReducedState(population_plus=pop_plus, population_minus=pop_minus, coherence=complex(z))
    return state, DensityMatrix(matrix)


@dataclass(frozen=True)
class RecurrenceScan:
    """Sampled |z|, its suffix supremum, and refined threshold exceedances."""

    times: np.ndarray
    abs_z: np.ndarray
    running_sup: np.ndarray
    exceedances: tuple[tuple[float, float], ...]


def _golden_max(f, lo: np.ndarray, hi: np.ndarray,
                xtol: float = 1e-6) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section maximization on every bracket [lo[i], hi[i]] at once.

    ``f`` maps an array of points to an array of values. The brackets move
    in lockstep, and each stops once it is no wider than the absolute x
    tolerance ``xtol``; every bracket takes the steps a scalar search
    would. Each iteration makes one call to ``f``, on the brackets still
    open. Returns the final bracket midpoints and their values.
    """
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a = np.array(lo, dtype=float)
    b = np.array(hi, dtype=float)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    active = b - a > xtol
    while active.any():
        left = fc > fd  # the maximum lies in [a, d], else in [c, b]
        go_left, go_right = active & left, active & ~left
        b[go_left], d[go_left], fd[go_left] = d[go_left], c[go_left], fc[go_left]
        a[go_right], c[go_right], fc[go_right] = c[go_right], d[go_right], fd[go_right]
        c[go_left] = b[go_left] - invphi * (b[go_left] - a[go_left])
        d[go_right] = a[go_right] + invphi * (b[go_right] - a[go_right])
        value = f(np.where(left, c, d)[active])
        fc[go_left] = value[left[active]]
        fd[go_right] = value[~left[active]]
        active = b - a > xtol
    x = 0.5 * (a + b)
    return x, f(x)


def recurrence_scan(
    bath: SpinBath,
    mode: str,
    horizon: float,
    n_samples: int,
    threshold: float,
    t_planck: float | None = None,
    z_grid: np.ndarray | None = None,
) -> RecurrenceScan:
    """Scan |z| on [0, horizon] for returns of coherence above a threshold.

    Grid local maxima above the threshold are refined together, by one
    batched golden-section search over the brackets [t_{i-1}, t_{i+1}]
    around them (absolute time tolerance 1e-6); refined peaks closer than
    1e-5 are merged into the higher one. ``running_sup[i]`` is the
    supremum of the sampled |z| over [times[i], horizon]. ``mode`` is
    "ideal" or "realclock" (the latter needs t_planck). ``z_grid`` may
    hold z_ideal already evaluated on the scan grid
    ``linspace(0, horizon, n_samples)``, so that scans of both modes share
    one evaluation.
    """
    if mode not in ("ideal", "realclock"):
        raise ValidationError(f"mode must be 'ideal' or 'realclock', got {mode!r}")
    if mode == "realclock" and (t_planck is None or t_planck <= 0):
        raise ValidationError("realclock mode needs a positive t_planck")
    if n_samples < 1000:
        raise ValidationError(f"need at least 1000 samples, got {n_samples}")
    if threshold <= 0:
        raise ValidationError(f"threshold must be positive, got {threshold}")
    if horizon <= 0:
        raise ValidationError(f"horizon must be positive, got {horizon}")

    if mode == "ideal":
        zfun = lambda t: np.abs(z_ideal(bath, t))  # noqa: E731
    else:
        zfun = lambda t: np.abs(z_realclock(bath, t, t_planck))  # noqa: E731

    times = np.linspace(0.0, horizon, n_samples)
    if z_grid is None:
        z_grid = z_ideal(bath, times)
    elif np.shape(z_grid) != times.shape:
        raise ValidationError(
            f"z_grid has shape {np.shape(z_grid)}, the scan grid {times.shape}"
        )
    if mode == "realclock":
        z_grid = z_grid * realclock_damping(bath, times, t_planck)
    abs_z = np.abs(z_grid)
    running_sup = np.maximum.accumulate(abs_z[::-1])[::-1]

    # a recurrence is a *return* of coherence: the t = 0 sample is the
    # reference value, never an exceedance
    padded = np.concatenate([[np.inf], abs_z, [-np.inf]])
    is_max = (padded[1:-1] >= padded[:-2]) & (padded[1:-1] >= padded[2:])
    peaks = np.flatnonzero(is_max & (abs_z > threshold))
    t_peaks, values = _golden_max(zfun, times[np.maximum(peaks - 1, 0)],
                                  times[np.minimum(peaks + 1, n_samples - 1)])
    exceedances = [(t_peak, value) for t_peak, value in zip(t_peaks.tolist(), values.tolist())
                   if value > threshold]
    deduped: list[tuple[float, float]] = []
    for t_peak, value in sorted(exceedances):
        if deduped and abs(t_peak - deduped[-1][0]) < 1e-5:
            if value > deduped[-1][1]:
                deduped[-1] = (t_peak, value)
        else:
            deduped.append((t_peak, value))
    return RecurrenceScan(
        times=times,
        abs_z=abs_z,
        running_sup=running_sup,
        exceedances=tuple(deduped),
    )
