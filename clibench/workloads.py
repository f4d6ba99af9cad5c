"""Seeded inputs for the three benchmark workloads.

Every workload is a fixed list of CLI invocations ("operations"). The seed
changes the values in the generated configs (frequencies, couplings,
states, clock readings) but never the amount of work: step counts, grid
sizes, dimensions, sample counts and the number of recurrences in a
horizon are constants, so runs with different seeds time the same work.

Each operation carries the independent reference data its check needs; the
program only ever sees the JSON config written for it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``realclock-qm <command> --config <name>.json``."""

    name: str
    command: str
    config: dict
    check: Callable[[checks.Output], None]


def _pairs(values) -> list:
    """Complex numbers as the [re, im] pairs of the config format."""
    return [[float(z.real), float(z.imag)] for z in np.asarray(values, dtype=complex).ravel()]


def _matrix(m: np.ndarray) -> list:
    return [_pairs(row) for row in m]


def _random_hermitian(rng, dim: int, norm: float) -> np.ndarray:
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = 0.5 * (raw + raw.conj().T)
    return h * (norm / np.max(np.abs(np.linalg.eigvalsh(h))))


def _random_vector(rng, dim: int) -> np.ndarray:
    return rng.normal(size=dim) + 1j * rng.normal(size=dim)


def _rng(seed: int, workload: str, part: int) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, workload)), part])


# ---------------------------------------------------------------------------
# trajectory: RK4 steps, DensityMatrix validation, wide CSV rows
# ---------------------------------------------------------------------------

QUBIT_STEP = 1e-3
QUBIT_T_FINAL = 10.0  # criterion 1's 10k-step run
D16_DIM = 16
D16_STEP = 2e-3
D16_T_FINAL = 0.6
SWEEP_N = 8
SWEEP_STEP = 1e-2
SWEEP_T_FINAL = 8.0
SWEEP_T_MAX = 20.0


def trajectory(seed: int) -> list[Op]:
    rng = _rng(seed, "trajectory", 0)
    omega = float(rng.uniform(0.8, 1.2))
    sigma = float(rng.uniform(0.2, 0.3))
    psi = _random_vector(rng, 2)
    qubit = Op(
        name="evolve_qubit",
        command="evolve",
        config={
            "command": "evolve",
            "system": {"preset": "qubit", "omega": omega},
            "initial_state": {"vector": _pairs(psi)},
            "clock": {"kind": "expansion", "sigma": sigma},
            "evolution": {"step": QUBIT_STEP, "t_final": QUBIT_T_FINAL},
        },
        check=functools.partial(
            checks.check_evolve, h=np.diag([0.0, omega]).astype(complex), psi=psi,
            sigma=sigma, step=QUBIT_STEP, t_final=QUBIT_T_FINAL,
        ),
    )

    rng = _rng(seed, "trajectory", 1)
    h16 = _random_hermitian(rng, D16_DIM, norm=2.0)
    psi16 = _random_vector(rng, D16_DIM)
    sigma16 = float(rng.uniform(0.02, 0.05))
    wide = Op(
        name="evolve_d16",
        command="evolve",
        config={
            "command": "evolve",
            "system": {"hamiltonian": _matrix(h16)},
            "initial_state": {"vector": _pairs(psi16)},
            "clock": {"kind": "expansion", "sigma": sigma16},
            "evolution": {"step": D16_STEP, "t_final": D16_T_FINAL},
        },
        check=functools.partial(
            checks.check_evolve, h=h16, psi=psi16, sigma=sigma16,
            step=D16_STEP, t_final=D16_T_FINAL,
        ),
    )

    rng = _rng(seed, "trajectory", 2)
    omega_min = float(rng.uniform(0.5, 1.5))
    omega_max = omega_min + 8.0
    t_planck = float(rng.uniform(0.005, 0.015))
    psi_sweep = _random_vector(rng, 2)
    sweep = Op(
        name="sweep_omega",
        command="sweep",
        config={
            "command": "sweep",
            "sweep": {"key": "system.omega", "min": omega_min, "max": omega_max, "n": SWEEP_N},
            "run": {
                "command": "evolve",
                "system": {"preset": "qubit", "omega": 1.0},
                "initial_state": {"vector": _pairs(psi_sweep)},
                "clock": {"kind": "fundamental", "t_planck": t_planck, "t_max": SWEEP_T_MAX},
                "evolution": {"step": SWEEP_STEP, "t_final": SWEEP_T_FINAL},
            },
        },
        check=functools.partial(
            checks.check_sweep, omegas=np.linspace(omega_min, omega_max, SWEEP_N),
            psi=psi_sweep, t_planck=t_planck, t_final=SWEEP_T_FINAL,
        ),
    )
    return [qubit, wide, sweep]


# ---------------------------------------------------------------------------
# relational: trace curves, 256-dim eigendecompositions, smearing stack
# ---------------------------------------------------------------------------

# The wavepacket clock's parameters are written out (they are the program's
# defaults) so that the reading sites and the matched Gaussian model used by
# the check are fixed by the benchmark, not read back from the program.
WAVEPACKET = {"n": 256, "length": 70.0, "mass": 40.0, "sigma0": 2.0, "x0": 25.5,
              "velocity": 0.25}
# Sample grid of configs/condprob_wavepacket.json. With quad_tol 1e-5 the
# grid-doubling check passes for the position sites 112..136 (readings
# 5.125..11.6875) and no others; sites are drawn one away from both ends.
WAVEPACKET_GRID = {"t_min": -17.5, "t_max": 81.9, "n_points": 3001}
WAVEPACKET_QUAD_TOL = 1e-5
WAVEPACKET_SITES = range(113, 136)
WAVEPACKET_QUERIES = 3

ANALYTIC_DIM = 32
ANALYTIC_QUERIES = 5
ANALYTIC_GRID = {"t_min": -6.0, "t_max": 14.0, "n_points": 4001}


def relational(seed: int) -> list[Op]:
    # The system, state and observable are those of the sample config; only
    # the readings are drawn. For other qubit systems the quantum-clock and
    # smeared probabilities can differ by more than criterion 5's 1e-3.
    rng = _rng(seed, "relational", 0)
    omega = 0.15
    psi = np.ones(2, dtype=complex)
    obs = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    o_center, o_halfwidth = 1.0, 0.5
    dx = WAVEPACKET["length"] / WAVEPACKET["n"]
    sites = np.sort(rng.choice(np.asarray(WAVEPACKET_SITES), WAVEPACKET_QUERIES, replace=False))
    readings = sites * dx - WAVEPACKET["x0"]
    wavepacket = Op(
        name="condprob_wavepacket",
        command="condprob",
        config={
            "command": "condprob",
            "system": {"preset": "qubit", "omega": omega},
            "initial_state": {"vector": _pairs(psi)},
            "evolution": {"grid": WAVEPACKET_GRID, "quad_tol": WAVEPACKET_QUAD_TOL},
            "condprob": {
                "mode": "wavepacket",
                "observable": _matrix(obs),
                "wavepacket": WAVEPACKET,
                "queries": [
                    {"o_center": o_center, "o_halfwidth": o_halfwidth,
                     "t_center": float(r), "t_halfwidth": 0.45 * dx}
                    for r in readings
                ],
            },
        },
        check=functools.partial(
            checks.check_condprob_wavepacket, h=np.diag([0.0, omega]).astype(complex), psi=psi,
            obs=obs, o_center=o_center, o_halfwidth=o_halfwidth, readings=readings,
            wavepacket=WAVEPACKET,
        ),
    )

    rng = _rng(seed, "relational", 1)
    h32 = _random_hermitian(rng, ANALYTIC_DIM, norm=3.0)
    psi32 = _random_vector(rng, ANALYTIC_DIM)
    # observable with integer levels, so window edges at +-0.5 sit in gaps
    levels = rng.integers(-2, 3, size=ANALYTIC_DIM).astype(float)
    basis, _ = np.linalg.qr(_random_vector(rng, ANALYTIC_DIM * ANALYTIC_DIM).reshape(
        ANALYTIC_DIM, ANALYTIC_DIM))
    obs32 = (basis * levels) @ basis.conj().T
    obs32 = 0.5 * (obs32 + obs32.conj().T)
    width = float(rng.uniform(0.5, 1.0))
    readings32 = np.sort(rng.uniform(2.0, 6.0, size=ANALYTIC_QUERIES))
    centers = rng.integers(-1, 2, size=ANALYTIC_QUERIES).astype(float)
    analytic = Op(
        name="condprob_analytic",
        command="condprob",
        config={
            "command": "condprob",
            "system": {"hamiltonian": _matrix(h32)},
            "initial_state": {"vector": _pairs(psi32)},
            "clock": {"kind": "gaussian", "width": width},
            "evolution": {"grid": ANALYTIC_GRID},
            "condprob": {
                "mode": "analytic",
                "observable": _matrix(obs32),
                "queries": [
                    {"o_center": float(c), "o_halfwidth": 0.5, "t_center": float(r),
                     "t_halfwidth": 0.01}
                    for c, r in zip(centers, readings32)
                ],
            },
        },
        check=functools.partial(
            checks.check_condprob_analytic, h=h32, psi=psi32, basis=basis, levels=levels,
            centers=centers, readings=readings32, width=width,
        ),
    )
    return [wavepacket, analytic]


# ---------------------------------------------------------------------------
# spin_bath: product formula, state-vector oracle, recurrence refinement
# ---------------------------------------------------------------------------

COMMENSURATE_ATOMS = 6
COMMENSURATE_PEAKS = 120  # full recurrences at m * pi / (2 g0), m = 1..120
COMMENSURATE_SAMPLES = 20001
COMMENSURATE_SCAN_SAMPLES = 40001
RECURRENCE_THRESHOLD = 0.9
RANDOM_ATOMS = 14
RANDOM_HORIZON = 200.0
RANDOM_SAMPLES = 60001


def spin_bath(seed: int) -> list[Op]:
    rng = _rng(seed, "spin_bath", 0)
    g0 = float(rng.uniform(0.25, 0.35))
    couplings = g0 * np.arange(1, COMMENSURATE_ATOMS + 1)
    # equal weights |alpha|^2 = |beta|^2 with seeded phases: |z| = prod |cos(2 g_k t)|
    alphas = np.exp(1j * rng.uniform(0, 2 * math.pi, COMMENSURATE_ATOMS)) / math.sqrt(2.0)
    betas = np.exp(1j * rng.uniform(0, 2 * math.pi, COMMENSURATE_ATOMS)) / math.sqrt(2.0)
    system = _random_vector(rng, 2)
    system /= np.linalg.norm(system)
    horizon = (COMMENSURATE_PEAKS + 0.5) * math.pi / (2.0 * g0)
    t_planck = float(rng.uniform(0.03, 0.07))
    commensurate = Op(
        name="zurek_commensurate",
        command="zurek",
        config={
            "command": "zurek",
            "zurek": {
                "couplings": couplings.tolist(),
                "alphas": _pairs(alphas),
                "betas": _pairs(betas),
                "system_amplitudes": _pairs(system),
                "horizon": horizon,
                "n_samples": COMMENSURATE_SAMPLES,
                "t_planck": t_planck,
                "verify_brute_force": True,
                "recurrence": {"threshold": RECURRENCE_THRESHOLD,
                               "modes": ["ideal", "realclock"],
                               "n_samples": COMMENSURATE_SCAN_SAMPLES},
            },
        },
        check=functools.partial(
            checks.check_zurek, couplings=couplings, alphas=alphas, betas=betas,
            horizon=horizon, n_samples=COMMENSURATE_SAMPLES, t_planck=t_planck,
            recurrence_peaks=[m * math.pi / (2.0 * g0)
                              for m in range(1, COMMENSURATE_PEAKS + 1)],
            threshold=RECURRENCE_THRESHOLD,
        ),
    )

    rng = _rng(seed, "spin_bath", 1)
    couplings_r = rng.uniform(0.1, 1.0, RANDOM_ATOMS)
    raw = rng.normal(size=(RANDOM_ATOMS + 1, 4))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    alphas_r = raw[:-1, 0] + 1j * raw[:-1, 1]
    betas_r = raw[:-1, 2] + 1j * raw[:-1, 3]
    system_r = np.array([raw[-1, 0] + 1j * raw[-1, 1], raw[-1, 2] + 1j * raw[-1, 3]])
    t_planck_r = float(rng.uniform(0.005, 0.02))
    random = Op(
        name="zurek_random",
        command="zurek",
        config={
            "command": "zurek",
            "zurek": {
                "couplings": couplings_r.tolist(),
                "alphas": _pairs(alphas_r),
                "betas": _pairs(betas_r),
                "system_amplitudes": _pairs(system_r),
                "horizon": RANDOM_HORIZON,
                "n_samples": RANDOM_SAMPLES,
                "t_planck": t_planck_r,
                "verify_brute_force": True,
            },
        },
        check=functools.partial(
            checks.check_zurek, couplings=couplings_r, alphas=alphas_r, betas=betas_r,
            horizon=RANDOM_HORIZON, n_samples=RANDOM_SAMPLES, t_planck=t_planck_r,
            recurrence_peaks=None, threshold=None,
        ),
    )
    return [commensurate, random]


WORKLOADS = {
    "trajectory": trajectory,
    "relational": relational,
    "spin_bath": spin_bath,
}
