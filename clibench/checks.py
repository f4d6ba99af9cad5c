"""Output checks computed apart from the program.

Every expected value is rebuilt here with numpy alone, in the energy
eigenbasis of the generated Hamiltonian, from the parameters the benchmark
generated; nothing is compared with stored output of an earlier run and
nothing from ``realclock_qm`` is imported. A check raises ``CheckFailed``
naming the first quantity that is off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

EPS = np.finfo(float).eps


class CheckFailed(Exception):
    """An output value disagrees with its independent computation."""


@dataclass
class Output:
    """A parsed CLI CSV: the main table plus any extra ``# table:`` sections."""

    columns: list[str]
    data: np.ndarray
    tables: dict[str, tuple[list[str], list[list[str]]]] = field(default_factory=dict)

    def col(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise CheckFailed(f"column {name!r} missing from the output")
        return self.data[:, self.columns.index(name)]


def parse_csv(text: str) -> Output:
    sections = text.split("\n\n")
    lines = [line for line in sections[0].splitlines() if not line.startswith("#")]
    columns = lines[0].split(",")
    body = lines[1:]
    if not body:
        raise CheckFailed("output has no data rows")
    cells = ",".join(body).split(",")
    if len(cells) != len(body) * len(columns):
        raise CheckFailed("ragged rows in the output")
    data = np.array(cells, dtype=float).reshape(len(body), len(columns))
    tables = {}
    for section in sections[1:]:
        sec_lines = section.strip("\n").splitlines()
        name = sec_lines[0].removeprefix("# table: ")
        tables[name] = (sec_lines[1].split(","), [row.split(",") for row in sec_lines[2:]])
    return Output(columns=columns, data=data, tables=tables)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(name: str, got, want, tol: float) -> None:
    worst = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    _require(worst <= tol, f"{name}: off by {worst:.3e} (tol {tol:.1e})")


def _pure(psi: np.ndarray) -> np.ndarray:
    v = np.asarray(psi, dtype=complex) / np.linalg.norm(psi)
    return np.outer(v, v.conj())


def _eig(h: np.ndarray):
    """Energies, eigenvectors and the Bohr-frequency matrix w_n - w_m."""
    w, v = np.linalg.eigh(h)
    return w, v, w[:, None] - w[None, :]


def _rho_columns(out: Output, dim: int) -> np.ndarray:
    """Stack of density matrices, one per row, read by column name."""
    rho = np.empty((out.data.shape[0], dim, dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            rho[:, i, j] = out.col(f"re_rho_{i}_{j}") + 1j * out.col(f"im_rho_{i}_{j}")
    return rho


# ---------------------------------------------------------------------------
# trajectory
# ---------------------------------------------------------------------------


def rk4_tolerance(step: float, t_final: float, max_rate: float) -> float:
    """Error budget of an RK4 trajectory of rho_nm' = lambda rho_nm.

    Each step misses exp(h lambda) by about |h lambda|^5 / 120, so the
    truncation error after T / h steps is T h^4 |lambda|^5 / 120; the
    per-step trace renormalization and re-symmetrization add a few
    roundoffs per step. Both terms get a factor 10 of headroom.
    """
    n_steps = math.ceil(t_final / step - 1e-12)
    truncation = t_final * step**4 * max_rate**5 / 120.0
    return 10.0 * (truncation + 4.0 * n_steps * EPS)


def check_evolve(out: Output, *, h, psi, sigma, step, t_final) -> None:
    """rho_nm(T) = rho_nm(0) e^{-i w_nm T} e^{-sigma w_nm^2 T}; energy
    conserved; purity at most 1 and non-increasing."""
    dim = h.shape[0]
    w, v, bohr = _eig(h)
    n_steps = math.ceil(t_final / step - 1e-12)
    times = np.arange(n_steps + 1) * (t_final / n_steps)
    times[-1] = t_final
    _require(out.data.shape[0] == n_steps + 1,
             f"expected {n_steps + 1} trajectory rows, got {out.data.shape[0]}")
    _close("t", out.col("t"), times, 1e-12 * t_final)

    rho0 = _pure(psi)
    rho0_eig = v.conj().T @ rho0 @ v
    kernel = np.exp(-(1j * bohr + sigma * bohr**2)[None, :, :] * times[:, None, None])
    expected = v[None] @ (rho0_eig[None] * kernel) @ v.conj().T[None]
    max_rate = float(np.max(np.abs(1j * bohr + sigma * bohr**2)))
    _close("rho", _rho_columns(out, dim), expected, rk4_tolerance(step, t_final, max_rate))

    energy0 = float(np.real(np.trace(h @ rho0)))
    _close("energy", out.col("energy"), energy0, 1e-10 * max(1.0, abs(energy0)))
    purity = out.col("purity")
    _require(float(np.max(purity)) <= 1.0 + 1e-12, f"purity {np.max(purity):.17g} exceeds 1")
    rise = float(np.max(np.diff(purity), initial=0.0))
    _require(rise <= 1e-12, f"purity increases by {rise:.3e} between rows")


def check_sweep(out: Output, *, omegas, psi, t_planck, t_final) -> None:
    """Each summary row against exp(-w^2 T_P^(4/3) T^(2/3)) at its w."""
    _close("axis_value", out.col("axis_value"), omegas, 1e-12 * float(np.max(np.abs(omegas))))
    ratio = np.exp(-(omegas**2) * t_planck ** (4.0 / 3.0) * t_final ** (2.0 / 3.0))
    rho0 = _pure(psi)
    _close("final_offdiag_ratio", out.col("final_offdiag_ratio"), ratio, 1e-10)
    _close("final_abs_rho01", out.col("final_abs_rho01"), abs(rho0[0, 1]) * ratio, 1e-10)
    purity = rho0[0, 0].real ** 2 + rho0[1, 1].real ** 2 + 2.0 * (abs(rho0[0, 1]) * ratio) ** 2
    _close("final_purity", out.col("final_purity"), purity, 1e-10)


# ---------------------------------------------------------------------------
# relational
# ---------------------------------------------------------------------------


def _smeared_probability(h, psi, projector, shift, damping_width) -> float:
    """Tr(P rho_bar) with rho_bar_nm = rho_nm e^{-i w_nm shift}
    e^{-w_nm^2 damping_width^2 / 2}: the state averaged over a Gaussian
    ideal-time distribution of mean ``shift`` (characteristic function)."""
    _, v, bohr = _eig(h)
    rho_eig = v.conj().T @ _pure(psi) @ v
    kernel = np.exp(-1j * bohr * shift - 0.5 * (bohr * damping_width) ** 2)
    rho_bar = v @ (rho_eig * kernel) @ v.conj().T
    return float(np.real(np.trace(projector @ rho_bar)))


def _window_projector(basis, levels, center, halfwidth) -> np.ndarray:
    cols = basis[:, np.abs(levels - center) <= halfwidth]
    return cols @ cols.conj().T


def _check_probabilities(out: Output, readings) -> tuple[np.ndarray, np.ndarray]:
    _require(out.data.shape[0] == len(readings),
             f"expected {len(readings)} query rows, got {out.data.shape[0]}")
    _close("t_center", out.col("t_center"), readings, 1e-12 * float(np.max(np.abs(readings))))
    prob, smeared = out.col("probability"), out.col("smeared_probability")
    for name, values in (("probability", prob), ("smeared_probability", smeared)):
        _require(bool(np.all((values >= 0.0) & (values <= 1.0))),
                 f"{name} outside [0, 1]: {values.tolist()}")
    return prob, smeared


def check_condprob_wavepacket(out: Output, *, h, psi, obs, o_center, o_halfwidth, readings,
                              wavepacket) -> None:
    """Quantum-clock probability within criterion 5's 1e-3 of the smeared
    one; the smeared one against the matched Gaussian clock's closed form.

    The packet's reading density at ideal time t is Gaussian in t with mean
    T / v and width w(T) / v, w(T) = sigma0 sqrt(1 + (T / v / (2 m sigma0^2))^2).
    """
    prob, smeared = _check_probabilities(out, readings)
    _close("probability - smeared_probability", prob, smeared, 1e-3)
    levels, basis = np.linalg.eigh(obs)
    projector = _window_projector(basis, levels, o_center, o_halfwidth)
    v, sigma0 = wavepacket["velocity"], wavepacket["sigma0"]
    spread_scale = 2.0 * wavepacket["mass"] * sigma0**2
    expected = [
        _smeared_probability(h, psi, projector, r / v,
                             sigma0 * math.sqrt(1.0 + (r / v / spread_scale) ** 2) / v)
        for r in readings
    ]
    _close("smeared_probability", smeared, expected, 2e-5)


def check_condprob_analytic(out: Output, *, h, psi, basis, levels, centers, readings,
                            width) -> None:
    """Both columns equal Tr(P_O rho_bar(T)), rho_bar damped by the Gaussian
    characteristic function e^{-w_nm^2 width^2 / 2}."""
    prob, smeared = _check_probabilities(out, readings)
    expected = [
        _smeared_probability(h, psi, _window_projector(basis, levels, c, 0.5), r, width)
        for c, r in zip(centers, readings)
    ]
    _close("probability", prob, expected, 1e-9)
    _close("smeared_probability", smeared, expected, 1e-9)


# ---------------------------------------------------------------------------
# spin_bath
# ---------------------------------------------------------------------------


def _z_product(couplings, alphas, betas, t) -> np.ndarray:
    weight = np.abs(alphas) ** 2 - np.abs(betas) ** 2
    phase = 2.0 * np.multiply.outer(np.asarray(t, dtype=float), couplings)
    return np.prod(np.cos(phase) + 1j * weight * np.sin(phase), axis=-1)


def _envelope(couplings, t_planck, t) -> np.ndarray:
    rate = float(np.sum((2.0 * couplings) ** 2)) * t_planck ** (4.0 / 3.0)
    return np.exp(-rate * np.asarray(t, dtype=float) ** (2.0 / 3.0))


def check_zurek(out: Output, *, couplings, alphas, betas, horizon, n_samples, t_planck,
                recurrence_peaks, threshold) -> None:
    """z_ideal equals the product formula, |z| <= 1, z_realclock = z_ideal
    times exp(-sum (2 g_k)^2 T_P^(4/3) t^(2/3)); with a recurrence table,
    the ideal exceedances are exactly the full recurrences and no
    real-clock exceedance rises above the envelope."""
    times = np.linspace(0.0, horizon, n_samples)
    _require(out.data.shape[0] == n_samples,
             f"expected {n_samples} rows, got {out.data.shape[0]}")
    _close("t", out.col("t"), times, 1e-12 * horizon)
    z = _z_product(couplings, alphas, betas, times)
    z_real = z * _envelope(couplings, t_planck, times)
    for label, want in (("ideal", z), ("realclock", z_real)):
        got_abs = out.col(f"abs_z_{label}")
        _require(float(np.max(got_abs)) <= 1.0 + 1e-12, f"|z_{label}| exceeds 1")
        _close(f"re_z_{label}", out.col(f"re_z_{label}"), want.real, 1e-12)
        _close(f"im_z_{label}", out.col(f"im_z_{label}"), want.imag, 1e-12)
        _close(f"abs_z_{label}", got_abs, np.abs(want), 1e-12)

    if recurrence_peaks is None:
        _require(not out.tables, f"unexpected tables {sorted(out.tables)}")
        return
    _require("exceedances" in out.tables, "recurrence table missing")
    columns, rows = out.tables["exceedances"]
    _require(columns == ["mode", "t", "abs_z"], f"recurrence columns {columns}")
    by_mode = {"ideal": [], "realclock": []}
    for mode, t, value in rows:
        by_mode[mode].append((float(t), float(value)))

    ideal = np.array(sorted(by_mode["ideal"])).reshape(-1, 2)
    _require(len(ideal) == len(recurrence_peaks),
             f"expected {len(recurrence_peaks)} ideal recurrences, got {len(ideal)}")
    _close("ideal recurrence times", ideal[:, 0], recurrence_peaks, 1e-5)
    _require(float(np.min(ideal[:, 1])) >= 1.0 - 1e-9,
             f"ideal recurrence |z| {np.min(ideal[:, 1]):.12g} is not 1")
    _close("ideal recurrence |z|", ideal[:, 1],
           np.abs(_z_product(couplings, alphas, betas, ideal[:, 0])), 1e-12)

    for t, value in by_mode["realclock"]:
        envelope = float(_envelope(couplings, t_planck, t))
        _require(threshold < value <= envelope + 1e-12,
                 f"real-clock exceedance {value:.12g} at t={t} above envelope {envelope:.12g}")
        _close("real-clock exceedance |z|", value,
               abs(complex(_z_product(couplings, alphas, betas, t))) * envelope, 1e-12)
