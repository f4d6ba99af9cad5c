"""Density-matrix evolution in real-clock time.

Three routes are implemented and cross-checked against each other:

* smear_densities  -- mixture of sharply evolved states weighted by the
                      clock-reading density (the defining integral).
* evolve_master    -- differential form: d(rho)/dT = -i[H, rho]
                      - sigma(T) [H, [H, rho]], as one factor per output
                      time on rho_nm in the energy eigenbasis: the closed
                      form for ideal and fundamental-limit clocks, RK4's
                      stability polynomial for expansion clocks, over
                      steps no longer than the given step. A trajectory
                      is its times and one validated (n+1, d, d) stack of
                      states: one sigma call per trajectory, two GEMMs per
                      basis change, one stacked validation, and no
                      per-state object.
* analytic_offdiagonal / fundamental_decay_factor -- closed forms for the
                      off-diagonal elements, used as oracles.

The smearing and conditional-probability routes integrate over ideal time
on the quadrature grid of an EvolutionConfig; the master equation takes
only its step. The conditional-probability operations realize relational
measurement: "probability that O is in a window given the clock reads T in
a window", evaluated as a ratio of ideal-time integrals over a finite grid
whose adequacy is checked by doubling it. Their trace curves Tr(X rho(t)) come
from the state's rank factors (_trace_curves): one (T x d)(d x d) amplitude
GEMM per rank factor and distinct operator, O(T d^2), however many windows
of that operator are queried, plus one real product for all of them. A
diagonal operator under a Hamiltonian whose eigenvectors are plane waves
(the wavepacket clock's reading operator) costs instead one T x d batched
inverse FFT per rank factor, O(T d log d). A pure state (the wavepacket
clock, any state given as a vector) costs one GEMM or FFT per operator; a
full-rank mixed state of dimension d, such as a system state given as a
matrix, costs d.

Decompositions are paid for once and only when unknown. An operator built
from its spectrum (HermitianOperator.from_spectrum: the wavepacket clock's
Hamiltonian, whose plane waves and energies k^2/2m are known, and its
diagonal reading operator) and a state built from a vector
(DensityMatrix.from_pure) cost no eigh, and such an operator builds its
dense matrix only on request, which no relational route makes. Any other
operator costs one eigh the first time it is decomposed, which it then
keeps; any other state costs one eigh per _trace_curves call for its rank
factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clock_accuracy import decoherence_exponent
from .clocks import (
    ClockModel,
    ExpansionClock,
    FundamentalLimitClock,
    GaussianClock,
    IdealClock,
    pdf,
    sigma,
)
from .core import (
    DensityMatrix,
    EnergyDecomposition,
    HermitianOperator,
    Projector,
    _require_density_stack,
    commutator,
    eigendecompose,
    require_finite,
    require_same_dim,
    unitary_evolve,
)
from .errors import (
    ClockFoldingError,
    DegenerateStateError,
    GridConvergenceError,
    InsufficientGridError,
    IntegrationFailureError,
    NonCommutingObservableError,
    UnsupportedClockKindError,
    ValidationError,
)


@dataclass(frozen=True)
class EvolutionConfig:
    """The ideal-time quadrature grid of the smearing and relational routes."""

    t_min: float
    t_max: float
    n_points: int
    quad_tol: float = 1e-8

    def __post_init__(self):
        require_finite(t_min=self.t_min, t_max=self.t_max, quad_tol=self.quad_tol)
        if self.n_points < 3:
            raise ValidationError(f"need at least 3 grid points, got {self.n_points}")
        if not self.t_min < self.t_max:
            raise ValidationError(f"grid requires t_min < t_max, got [{self.t_min}, {self.t_max}]")
        if self.quad_tol <= 0:
            raise ValidationError(f"quad_tol must be positive, got {self.quad_tol}")

    def grid(self) -> np.ndarray:
        """Uniform grid with an odd number of points (even Simpson intervals)."""
        n = self.n_points if self.n_points % 2 == 1 else self.n_points + 1
        return np.linspace(self.t_min, self.t_max, n)


@dataclass(frozen=True)
class ConditionalQuery:
    """One relational question: observable window given a clock-reading window."""

    observable: HermitianOperator
    o_center: float
    o_halfwidth: float
    t_center: float
    t_halfwidth: float
    clock_operator: HermitianOperator | None = None

    def __post_init__(self):
        require_finite(o_center=self.o_center, o_halfwidth=self.o_halfwidth,
                       t_center=self.t_center, t_halfwidth=self.t_halfwidth)
        if self.o_halfwidth <= 0 or self.t_halfwidth <= 0:
            raise ValidationError("query halfwidths must be positive")


def _simpson_weights(t: np.ndarray) -> np.ndarray:
    """Composite Simpson weights on a uniform grid, so that sum(w * f(t)) is
    the integral; the same rule as scipy.integrate.simpson.

    An odd count gets dx/3 [1, 4, 2, ..., 4, 1]. An even count gets Simpson
    on the first N - 1 points plus Cartwright's correction
    dx [-1/12, 2/3, 5/12] on the last three; N = 2 is the trapezoid rule.
    """
    n = len(t)
    dx = (t[-1] - t[0]) / (n - 1)
    if n == 2:
        return np.array([0.5 * dx, 0.5 * dx])
    m = n if n % 2 == 1 else n - 1
    w = np.zeros(n)
    w[:m:2] = 2.0
    w[1:m:2] = 4.0
    w[0] = w[m - 1] = 1.0
    w *= dx / 3.0
    if m < n:
        w[-3:] += dx * np.array([-1.0 / 12.0, 2.0 / 3.0, 5.0 / 12.0])
    return w


def _phase_table(decomp: EnergyDecomposition, t: np.ndarray, columns=None,
                 coeffs=None) -> np.ndarray:
    """exp(-i omega_n t) for every time of the uniform grid t; shape (len(t), dim).

    ``columns`` lists the eigenvalue index of each table column (default:
    all, in order), and ``coeffs``, if given, multiplies each column.
    With t_j = t_0 + j dt and j = p B + q for a block length B = ceil(sqrt(T)),
    the table is the outer product of the block offsets exp(-i omega (t_0 + p B dt))
    and the in-block steps exp(-i omega q dt): about 2 sqrt(T) dim complex
    exponentials instead of T dim. A grid that is not uniform is rejected,
    since its phases would be taken at the wrong times.
    """
    w = decomp.eigenvalues if columns is None else decomp.eigenvalues[columns]
    n = len(t)
    block = math.isqrt(n - 1) + 1
    dt = (t[-1] - t[0]) / (n - 1)
    if np.max(np.abs(np.diff(t) - dt)) > 1e-9 * abs(dt):
        raise ValidationError("the phase table needs a uniform grid")
    offsets = np.exp(-1j * np.outer(t[0] + np.arange(0, n, block) * dt, w))
    if coeffs is not None:
        offsets *= coeffs
    steps = np.exp(-1j * np.outer(np.arange(block) * dt, w))
    return (offsets[:, None, :] * steps[None, :, :]).reshape(-1, len(w))[:n]


def _dft_amplitudes(decomp: EnergyDecomposition, t: np.ndarray, c: np.ndarray) -> np.ndarray:
    """V (e^{-i omega t} * c) over the grid, for a decomp whose eigenvectors
    are inverse-DFT columns (its dft_order): the phase table is laid out in
    FFT column order with c multiplied in, then inverse-transformed in place,
    one batched ifft of T rows of length d."""
    columns = np.argsort(decomp.dft_order)  # the eigenvalue index of each FFT column
    table = _phase_table(decomp, t, columns, c[columns])
    return np.fft.ifft(table, norm="ortho", out=table)


def _trace_curves(
    rho: DensityMatrix,
    decomp: EnergyDecomposition,
    t: np.ndarray,
    requests: list[tuple[HermitianOperator, tuple[float, float] | None]],
) -> list[np.ndarray]:
    """Tr(X rho(t)) over the grid for each request, with rho evolving under decomp.

    A request (O, None) asks for X = O; a request (O, (center, halfwidth))
    asks for X = the projector onto O's eigenvalues selected by
    EnergyDecomposition.window, the rule of EnergyDecomposition.projector.
    With rho = sum_k lam_k phi_k phi_k^dagger (DensityMatrix.rank_factors),
    H = V diag(omega) V^dagger and O = U diag(o) U^dagger,

        Tr(X rho(t)) = sum_k lam_k sum_j f(o_j) |A_k(t)_j|^2,
        A_k(t) = U^dagger V (e^{-i omega t} * V^dagger phi_k),

    with f(o) = o for O itself and the window's 0/1 mask for a projector.
    Each distinct operator is decomposed once, and all its curves take one
    real (T x d)(d x n) product. Its amplitudes take one (T x d)(d x d) GEMM
    per rank factor, O(T d^2); but a diagonal operator (U = I, such as the
    wavepacket clock's reading operator) under plane waves (decomp.dft_order)
    takes one T x d batched inverse FFT per rank factor, O(T d log d), and no
    phase table in the energy order. The route follows from the structure
    the two decompositions recorded at construction.
    """
    lam, phi = rho.rank_factors()
    coeffs = decomp.eigenvectors.conj().T @ phi
    phases = None
    groups: dict[int, list[int]] = {}
    for i, (operator, _) in enumerate(requests):
        groups.setdefault(id(operator), []).append(i)
    curves = {}
    for members in groups.values():
        dec_o = eigendecompose(requests[members[0]][0])
        o = dec_o.eigenvalues
        f = np.column_stack([o if window is None else dec_o.window(*window)
                             for _, window in (requests[i] for i in members)]).astype(float)
        if dec_o.diagonal and decomp.dft_order is not None:
            amplitudes = (_dft_amplitudes(decomp, t, c_k) for c_k in coeffs.T)
        else:
            if phases is None:
                phases = _phase_table(decomp, t)
            basis = (dec_o.eigenvectors.conj().T @ decomp.eigenvectors).T  # (U^dagger V)^T
            amplitudes = (phases @ (c_k[:, None] * basis) for c_k in coeffs.T)
        weight = None
        for lam_k, amp in zip(lam, amplitudes):
            sq = amp.real ** 2  # |amp|^2 in place: peak memory stays at the old route's
            sq += amp.imag ** 2
            sq *= lam_k
            weight = sq if weight is None else weight + sq
        curves.update(zip(members, (weight @ f).T))
    return [curves[i] for i in range(len(requests))]


def _smearing_kernel(phases: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """K_nm = sum_t weights_t e^{-i omega_n t} e^{+i omega_m t}, as one GEMM."""
    return (phases * weights[:, None]).T @ phases.conj()


# ---------------------------------------------------------------------------
# Smearing route
# ---------------------------------------------------------------------------


def smear_densities(
    rho_sys: DensityMatrix,
    hamiltonian: HermitianOperator,
    clock: ClockModel,
    readings: list[float],
    cfg: EvolutionConfig,
) -> list[DensityMatrix]:
    """State at each clock reading T: integral of U(t) rho U(t)^dagger P_t(T) dt.

    The quadrature grid must both cover the support of P_.(T) and resolve
    the density; for every reading the computed total weight is compared
    against 1 and a half-resolution Simpson check bounds the discretization
    error. Each output is divided by its computed weight, which enforces the
    trace identity Tr(rho(T)) = Tr(rho_sys) exactly. The readings share one
    eigendecomposition of H, one phase table and one (Q x T) weight array;
    each reading costs two (d x T)(T x d) kernel GEMMs.
    """
    require_same_dim(rho_sys, hamiltonian, "Hamiltonian")
    if isinstance(clock, IdealClock):
        return [unitary_evolve(rho_sys, hamiltonian, reading) for reading in readings]
    if not isinstance(clock, GaussianClock):
        raise UnsupportedClockKindError(
            f"smearing needs a pointwise clock density, not {type(clock).__name__}"
        )
    t = cfg.grid()
    weights = np.array([pdf(clock, reading, t) for reading in readings], dtype=float)
    simpson_w = _simpson_weights(t)
    masses = weights @ simpson_w
    for mass in masses:
        if abs(mass - 1.0) > cfg.quad_tol:
            raise InsufficientGridError(
                f"grid [{cfg.t_min}, {cfg.t_max}] captures clock weight {mass:.12g} "
                f"instead of 1 (tol {cfg.quad_tol:.1e}); widen or refine it"
            )
    dec = eigendecompose(hamiltonian)
    rho_eig = dec.to_eig(rho_sys.matrix)
    phases = _phase_table(dec, t)
    coarse_w = _simpson_weights(t[::2])
    states = []
    for weight, mass in zip(weights, masses):
        # rho~(T)_nm = rho~_nm * integral of P_t(T) e^{-i omega_nm t} dt
        fine = _smearing_kernel(phases, simpson_w * weight)
        coarse = _smearing_kernel(phases[::2], coarse_w * weight[::2])
        # Richardson estimate: Simpson at full against half resolution
        if float(np.max(np.abs(rho_eig * (fine - coarse)))) / 15.0 > cfg.quad_tol:
            raise InsufficientGridError(
                "grid too coarse for the requested quadrature tolerance; refine it"
            )
        states.append(DensityMatrix(dec.from_eig(rho_eig * fine / mass)))
    return states


def smear_density(
    rho_sys: DensityMatrix,
    hamiltonian: HermitianOperator,
    clock: ClockModel,
    reading: float,
    cfg: EvolutionConfig,
) -> DensityMatrix:
    """One reading of smear_densities."""
    return smear_densities(rho_sys, hamiltonian, clock, [reading], cfg)[0]


# ---------------------------------------------------------------------------
# Master-equation route
# ---------------------------------------------------------------------------


def _master_rhs(rho: np.ndarray, h_mat: np.ndarray, sig: float) -> np.ndarray:
    """-i [H, rho] - sig [H, [H, rho]]; both terms share the commutator."""
    c = h_mat @ rho - rho @ h_mat
    out = -1j * c
    if sig != 0.0:
        out -= sig * (h_mat @ c - c @ h_mat)
    return out


def _rk4_step(rho: np.ndarray, h_mat: np.ndarray, sig: float, h: float) -> np.ndarray:
    k1 = _master_rhs(rho, h_mat, sig)
    k2 = _master_rhs(rho + 0.5 * h * k1, h_mat, sig)
    k3 = _master_rhs(rho + 0.5 * h * k2, h_mat, sig)
    k4 = _master_rhs(rho + h * k3, h_mat, sig)
    out = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    out = 0.5 * (out + out.conj().T)
    return out / np.real(np.trace(out))


def _require_stable_step(h: float, sig: float, energies: np.ndarray) -> None:
    """Reject a step outside RK4's stability margin, h(|H|^2 sigma + |H|) < 0.1;
    the comparison is negated so that a NaN stiffness fails it too."""
    norm = float(np.max(np.abs(energies)))
    stiffness = h * (norm * norm * sig + norm)
    if not stiffness < 0.1:
        raise ValidationError(
            f"step too large for this Hamiltonian/width-rate: "
            f"h*(|H|^2 sigma + |H|) = {stiffness:.3g} >= 0.1"
        )


def master_step(
    rho: DensityMatrix,
    hamiltonian: HermitianOperator,
    sigma_value: float,
    h: float,
) -> DensityMatrix:
    """One RK4 step of d(rho)/dT = -i[H, rho] - sigma [H, [H, rho]].

    The double-commutator sign is fixed by the closed-form solution
    rho_nm(T) = rho_nm(0) e^{-i omega_nm T} e^{-sigma omega_nm^2 T}: with
    this sign off-diagonals decay for sigma >= 0 and the generator is of
    Lindblad form with the single operator D = H. Trace is renormalized
    and Hermiticity re-symmetrized each step (both are roundoff-level).
    This matrix-form step is the independent oracle for evolve_master's
    energy-basis RK4.
    """
    require_same_dim(rho, hamiltonian, "Hamiltonian")
    if not sigma_value >= 0:
        raise ValidationError(f"sigma must be nonnegative, got {sigma_value}")
    if not h > 0:
        raise ValidationError(f"step must be positive, got {h}")
    _require_stable_step(h, sigma_value, np.linalg.eigvalsh(hamiltonian.matrix))
    try:
        return DensityMatrix(_rk4_step(rho.matrix, hamiltonian.matrix, sigma_value, h))
    except ValidationError as exc:
        raise IntegrationFailureError(
            f"step produced an invalid state ({exc}); try a smaller step"
        ) from exc


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A master-equation trajectory: ``times`` (n+1,) and the validated
    ``states`` (n+1, d, d), both read-only arrays."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        self.times.setflags(write=False)
        self.states.setflags(write=False)


def evolve_master(
    rho0: DensityMatrix,
    hamiltonian: HermitianOperator,
    clock: ClockModel,
    t_final: float,
    step: float,
) -> Trajectory:
    """Trajectory of the modified evolution from T = 0 to T = t_final, with
    an output after each of the fewest equal steps no longer than ``step``.

    Every clock multiplies rho_nm in the energy eigenbasis by one factor per
    output time: exp(-i omega_nm T - omega_nm^2 Sigma(T)) for the ideal
    (Sigma = 0) and fundamental-limit (Sigma = T_P^(4/3) T^(2/3)) clocks,
    whose pointwise sigma is ill-conditioned near the horizon, and classical
    RK4 for expansion clocks (_rk4_factors, one sigma call for all steps).

    Cost model: the factors, both basis changes and the validation are
    whole-stack operations, and the outputs are one (n+1, d, d) array,
    validated once by _require_density_stack; no DensityMatrix is built.
    Row 0 is rho0's matrix.
    """
    require_finite(t_final=t_final, step=step)
    if t_final < 0:
        raise ValidationError(f"t_final must be nonnegative, got {t_final}")
    if step <= 0:
        raise ValidationError(f"step must be positive, got {step}")
    require_same_dim(rho0, hamiltonian, "Hamiltonian")
    if t_final == 0:
        return Trajectory(np.zeros(1), rho0.matrix[None])

    n_steps = max(1, math.ceil(t_final / step - 1e-12))
    h = t_final / n_steps
    times = np.arange(n_steps + 1) * h
    times[-1] = t_final

    dec = eigendecompose(hamiltonian)
    if isinstance(clock, IdealClock):
        factors = dec.kernel(times)
    elif isinstance(clock, FundamentalLimitClock):
        if t_final >= clock.t_max:
            raise ValidationError(
                f"t_final={t_final} must stay below the clock horizon t_max={clock.t_max}"
            )
        factors = dec.kernel(times, decoherence_exponent(1.0, times, clock.t_planck))
    elif isinstance(clock, ExpansionClock):
        factors = _rk4_factors(clock, dec, times[:-1], h)
    else:
        raise UnsupportedClockKindError(
            f"master evolution supports ideal, expansion and fundamental-limit "
            f"clocks, not {type(clock).__name__}"
        )
    states = dec.from_eig(dec.to_eig(rho0.matrix) * factors)
    states[0] = rho0.matrix
    try:
        _require_density_stack(states[1:])
    except ValidationError as exc:
        raise IntegrationFailureError(
            f"output at T = {times[1 + exc.index]} is an invalid state ({exc}); try a smaller step"
        ) from exc
    return Trajectory(times, states)


def _rk4_factors(clock: ExpansionClock, dec: EnergyDecomposition, starts: np.ndarray,
                 h: float) -> np.ndarray:
    """Running product, from 1 at T = 0, of RK4 steps in the energy eigenbasis.

    With sigma frozen at the step midpoint, one step multiplies rho_nm by
    the stability polynomial R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 at
    z = h(-i omega_nm - sigma omega_nm^2). R = 1 on the diagonal and
    R(z_mn) = conj(R(z_nm)): trace and Hermiticity hold.
    """
    sig = sigma(clock, np.asarray(starts) + 0.5 * h)
    _require_stable_step(h, float(sig.max()), dec.eigenvalues)
    b = dec.bohr_frequencies
    z = h * (-1j * b - sig[:, None, None] * (b * b))
    r = 1.0 + z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0)))
    return np.concatenate([np.ones((1,) + b.shape), np.cumprod(r, axis=0)])


def analytic_offdiagonal(rho0_nm: complex, omega_nm: float, sig: float, t: float) -> complex:
    """Closed form rho_nm(T) = rho_nm(0) e^{-i omega_nm T} e^{-sigma omega_nm^2 T}."""
    if sig < 0:
        raise ValidationError(f"sigma must be nonnegative, got {sig}")
    if t < 0:
        raise ValidationError(f"time must be nonnegative, got {t}")
    return rho0_nm * np.exp(-1j * omega_nm * t) * math.exp(-sig * omega_nm * omega_nm * t)


def fundamental_decay_factor(omega_nm: float, t: float, t_planck: float) -> float:
    """Suppression exp(-omega_nm^2 * T_P^(4/3) * T^(2/3)) of an off-diagonal
    element under the best physically achievable clock."""
    return math.exp(-decoherence_exponent(omega_nm, t, t_planck))


# ---------------------------------------------------------------------------
# Probabilities
# ---------------------------------------------------------------------------


def ordinary_probability(rho: DensityMatrix, window: Projector) -> float:
    """Tr(P rho) / Tr(rho): probability of the projected outcome."""
    require_same_dim(rho, window, "projector")
    tr = float(np.real(np.trace(rho.matrix)))
    if tr <= 0:
        raise DegenerateStateError("state has nonpositive trace")
    value = float(np.real(np.trace(window.matrix @ rho.matrix))) / tr
    return 0.0 if -1e-12 < value < 0.0 else value


def _doubled_grid(cfg: EvolutionConfig) -> tuple[np.ndarray, slice]:
    """Grid of twice the span at the same spacing, and the slice of it that
    holds the base grid's nodes (they line up because the base count is odd)."""
    n = len(cfg.grid())
    center = 0.5 * (cfg.t_min + cfg.t_max)
    half = cfg.t_max - cfg.t_min  # doubled span, same spacing
    start = (n - 1) // 2
    return np.linspace(center - half, center + half, 2 * n - 1), slice(start, start + n)


def _conditional_ratio(
    weight: np.ndarray, p_sys: np.ndarray, simpson_w: np.ndarray, label: str
) -> float:
    denominator = float(simpson_w @ weight)
    if denominator <= 0 or not math.isfinite(denominator):
        raise GridConvergenceError(
            f"clock never reads the requested window on the {label} grid"
        )
    numerator = float(simpson_w @ (p_sys * weight))
    return numerator / denominator


def _relational_ratios(
    weights: list[np.ndarray],
    rho_sys: DensityMatrix,
    h_sys: HermitianOperator,
    queries: list[ConditionalQuery],
    t: np.ndarray,
    base: slice,
    cfg: EvolutionConfig,
) -> list[float]:
    """Ratio of ideal-time integrals per query, given each query's clock
    weight on the doubled grid; accepted only if the base grid agrees."""
    p_sys_curves = _trace_curves(rho_sys, eigendecompose(h_sys), t, [
        (q.observable, (q.o_center, q.o_halfwidth)) for q in queries])
    w_base, w_wide = _simpson_weights(t[base]), _simpson_weights(t)
    results = []
    for weight, p_sys in zip(weights, p_sys_curves):
        narrow = _conditional_ratio(weight[base], p_sys[base], w_base, "base")
        wide = _conditional_ratio(weight, p_sys, w_wide, "doubled")
        if abs(wide - narrow) >= cfg.quad_tol * max(1.0, abs(wide)):
            raise GridConvergenceError(
                f"result moved by {abs(wide - narrow):.3e} when the grid was doubled "
                f"(tol {cfg.quad_tol:.1e}); the ideal-time integral has not converged"
            )
        results.append(wide)
    return results


def conditional_probabilities(
    rho_cl: DensityMatrix,
    rho_sys: DensityMatrix,
    h_cl: HermitianOperator,
    h_sys: HermitianOperator,
    queries: list[ConditionalQuery],
    cfg: EvolutionConfig,
) -> list[float]:
    """Probability that the observable is in its window given the clock
    (a genuine quantum subsystem) reads within its window, for each query.

    Clock and system are independent subsystems, so the defining ratio of
    ideal-time integrals factorizes into
    integral[ Tr(P_O rho_sys(t)) * Tr(P_T rho_cl(t)) ] /
    integral[ Tr(P_T rho_cl(t)) ].
    The infinite ideal-time range is replaced by the configured grid; the
    grid is then doubled (same spacing) and the result accepted only if it
    moves by less than quad_tol. The clock expectation must be strictly
    increasing over both grids (a clock must not read the same value twice).
    Every trace curve is computed once, on the doubled grid, from the
    states' rank factors (_trace_curves): the clock's reader and all its
    reading windows share one amplitude GEMM per rank factor of rho_cl.
    """
    require_same_dim(rho_cl, h_cl, "clock Hamiltonian")
    for query in queries:
        if query.clock_operator is None:
            raise ValidationError("quantum route needs query.clock_operator")
        require_same_dim(rho_cl, query.clock_operator, "clock operator")
        _require_narrow_reading_window(query, cfg)
    _require_system_dims(rho_sys, h_sys, queries)
    t, base = _doubled_grid(cfg)
    readers = list({id(q.clock_operator): q.clock_operator for q in queries}.values())
    curves = _trace_curves(rho_cl, eigendecompose(h_cl), t, [(op, None) for op in readers] + [
        (q.clock_operator, (q.t_center, q.t_halfwidth)) for q in queries])
    for readings in curves[: len(readers)]:
        for label, span in (("base", base), ("doubled", slice(None))):
            if np.any(np.diff(readings[span]) <= 0):
                raise ClockFoldingError(
                    "clock expectation value is not strictly increasing over the "
                    f"{label} grid; shrink the grid to the clock's monotone range"
                )
    return _relational_ratios(curves[len(readers):], rho_sys, h_sys, queries, t, base, cfg)


def conditional_probability(
    rho_cl: DensityMatrix,
    rho_sys: DensityMatrix,
    h_cl: HermitianOperator,
    h_sys: HermitianOperator,
    query: ConditionalQuery,
    cfg: EvolutionConfig,
) -> float:
    """One query of conditional_probabilities."""
    return conditional_probabilities(rho_cl, rho_sys, h_cl, h_sys, [query], cfg)[0]


def _require_system_dims(rho_sys: DensityMatrix, h_sys: HermitianOperator,
                         queries: list[ConditionalQuery]) -> None:
    require_same_dim(rho_sys, h_sys, "system Hamiltonian")
    for query in queries:
        require_same_dim(rho_sys, query.observable, "observable")


def _require_narrow_reading_window(query: ConditionalQuery, cfg: EvolutionConfig) -> None:
    if query.t_halfwidth >= 0.01 * (cfg.t_max - cfg.t_min):
        raise ValidationError(
            f"clock window halfwidth {query.t_halfwidth} must be below 1% of "
            f"the grid span {cfg.t_max - cfg.t_min}"
        )


def conditional_probabilities_analytic(
    clock: GaussianClock,
    rho_sys: DensityMatrix,
    h_sys: HermitianOperator,
    queries: list[ConditionalQuery],
    cfg: EvolutionConfig,
) -> list[float]:
    """Same relational probabilities with the clock replaced by its analytic
    reading density: the clock-projector trace becomes pdf(clock, T, t),
    whose window width cancels between numerator and denominator."""
    for query in queries:
        _require_narrow_reading_window(query, cfg)
    _require_system_dims(rho_sys, h_sys, queries)
    t, base = _doubled_grid(cfg)
    weights = [np.asarray(pdf(clock, q.t_center, t), dtype=float) for q in queries]
    return _relational_ratios(weights, rho_sys, h_sys, queries, t, base, cfg)


def conditional_probability_analytic(
    clock: GaussianClock,
    rho_sys: DensityMatrix,
    h_sys: HermitianOperator,
    query: ConditionalQuery,
    cfg: EvolutionConfig,
) -> float:
    """One query of conditional_probabilities_analytic."""
    return conditional_probabilities_analytic(clock, rho_sys, h_sys, [query], cfg)[0]


# ---------------------------------------------------------------------------
# Conserved observables
# ---------------------------------------------------------------------------

COMMUTATOR_TOL = 1e-10
CONSERVATION_TOL = 1e-8


@dataclass(frozen=True)
class ConservationReport:
    """Trajectory of Tr(C rho(T)) for an observable commuting with H."""

    samples: tuple[tuple[float, float], ...]
    spread: float
    conserved: bool


def despagnat_conservation(
    observable: HermitianOperator,
    hamiltonian: HermitianOperator,
    rho0: DensityMatrix,
    clock: ClockModel,
    t_final: float,
    step: float,
) -> ConservationReport:
    """Track Tr(C rho(T)) along the modified evolution.

    Quantities commuting with H are conserved even though the evolution is
    not unitary; that is what makes them usable as consistency probes. A
    non-commuting observable is rejected with the measured commutator norm.
    """
    comm_norm = float(np.max(np.abs(commutator(observable.matrix, hamiltonian.matrix))))
    if comm_norm > COMMUTATOR_TOL:
        raise NonCommutingObservableError(
            f"observable does not commute with H: max |[C, H]| = {comm_norm:.3e} "
            f"(tol {COMMUTATOR_TOL:.1e})",
            commutator_norm=comm_norm,
        )
    trajectory = evolve_master(rho0, hamiltonian, clock, t_final, step)
    values = np.einsum("ij,kji->k", observable.matrix, trajectory.states).real
    samples = tuple(zip(trajectory.times.tolist(), values.tolist()))
    spread = float(values.max() - values.min())
    return ConservationReport(samples=samples, spread=spread, conserved=spread <= CONSERVATION_TOL)


# ---------------------------------------------------------------------------
# Discretized quantum clock (free-particle wavepacket)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WavepacketClock:
    """A genuine quantum clock: free particle on a periodic position grid.

    The reading operator is position relative to the packet's start, so the
    expected reading is velocity * t with Gaussian fluctuations of width
    sigma_x(t). ``gaussian_model`` is the matched analytic clock (width from
    the exact free-packet solution, rate the velocity) for cross-checks.
    Valid while the packet stays away from the periodic wrap. ``positions``
    is a read-only array, so the readings cannot drift from the reading
    operator's eigenvalues.
    """

    rho: DensityMatrix
    hamiltonian: HermitianOperator
    reading_operator: HermitianOperator
    gaussian_model: GaussianClock
    positions: np.ndarray
    grid_spacing: float
    velocity: float
    x0: float

    def __post_init__(self):
        self.positions.setflags(write=False)

    def reading_values(self) -> np.ndarray:
        return self.positions - self.x0


def make_wavepacket_clock(
    n: int = 256,
    length: float = 70.0,
    mass: float = 40.0,
    sigma0: float = 2.0,
    x0: float = 25.5,
    velocity: float = 0.25,
) -> WavepacketClock:
    """Build the discretized free-particle clock.

    The momentum kick mass*velocity plus a few momentum widths must stay
    inside the grid's momentum zone pi*n/length, and the packet must not
    spread appreciably over the query horizon; the defaults satisfy both.
    The Hamiltonian is built from its known spectrum (the plane waves, with
    energies k^2/2m ascending, recorded as inverse-DFT columns) and the
    reading operator from its diagonal, so eigendecompose returns both
    without an eigh, neither builds its dense matrix unless it is read, and
    the reading operator's trace curves take the batched inverse-FFT route
    of _trace_curves.
    """
    require_finite(length=length, mass=mass, sigma0=sigma0, x0=x0, velocity=velocity)
    if n < 2 or length <= 0 or mass <= 0 or sigma0 <= 0 or velocity <= 0:
        raise ValidationError("wavepacket clock parameters must be positive")
    dx = length / n
    x = np.arange(n) * dx
    p0 = mass * velocity
    p_zone = math.pi / dx
    if p0 + 4.0 / (2.0 * sigma0) > p_zone:
        raise ValidationError(
            f"momentum kick {p0:.3g} (+tails) exceeds the grid momentum zone {p_zone:.3g}; "
            "increase n or reduce mass*velocity"
        )
    k_index = np.fft.fftfreq(n, d=dx) * 2.0 * math.pi  # momentum eigenvalues
    energies = k_index**2 / (2.0 * mass)
    order = np.argsort(energies, kind="stable")  # +k and -k share a level
    plane_waves = np.exp(1j * np.outer(x, k_index[order])) / math.sqrt(n)
    h_cl = HermitianOperator.from_spectrum(
        EnergyDecomposition(energies[order], plane_waves, dft_order=order))

    psi = np.exp(1j * p0 * x) * np.exp(-((x - x0) ** 2) / (4.0 * sigma0**2))
    rho = DensityMatrix.from_pure(psi)

    spread_scale = 2.0 * mass * sigma0**2

    def width(reading: float) -> float:
        ideal_t = reading / velocity
        return sigma0 * math.sqrt(1.0 + (ideal_t / spread_scale) ** 2)

    return WavepacketClock(
        rho=rho,
        hamiltonian=h_cl,
        reading_operator=HermitianOperator.from_spectrum(
            EnergyDecomposition(x - x0, np.eye(n))),
        gaussian_model=GaussianClock(width=width, rate=velocity),
        positions=x,
        grid_spacing=dx,
        velocity=velocity,
        x0=x0,
    )
