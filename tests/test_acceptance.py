"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Criteria with runtime budgets time the relevant computation and
include the measured duration in the report line.
"""

import json
import math
import os
import time

import mpmath
import numpy as np
import pytest

from realclock_qm import (
    ConditionalQuery,
    DensityMatrix,
    EvolutionConfig,
    FundamentalLimitClock,
    GaussianClock,
    HermitianOperator,
    analytic_offdiagonal,
    build_projector,
    conditional_probability,
    conditional_probability_analytic,
    constant_width_growth,
    decoherence_exponent,
    despagnat_conservation,
    eigendecompose,
    evolve_master,
    fundamental_decay_factor,
    half_coherence_time,
    make_wavepacket_clock,
    ng_vandam_limit,
    ordinary_probability,
    random_bath,
    recurrence_scan,
    salecker_wigner_error,
    smear_density,
    brute_force_z,
    z_ideal,
)
from realclock_qm.clocks import ExpansionClock
from realclock_qm.cli import main as cli_main
from helpers import plus_state, qubit_hamiltonian, random_density, random_hermitian


def report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[{status}] criterion {number:2d}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description} {suffix}"


@pytest.fixture(scope="module")
def decay_trajectory():
    """Criterion 1 trajectory: qubit omega=1, sigma=0.25, h=1e-3 to T=10."""
    start = time.perf_counter()
    traj = evolve_master(plus_state(), qubit_hamiltonian(1.0),
                         constant_width_growth(0.25), 10.0, 1e-3)
    return traj, time.perf_counter() - start


@pytest.fixture(scope="module")
def fundamental_trajectory():
    """Criterion 2 trajectory: qubit omega=2, T_P=1e-2 to T=8."""
    clock = FundamentalLimitClock(t_planck=1e-2, t_max=20.0)
    start = time.perf_counter()
    traj = evolve_master(plus_state(), qubit_hamiltonian(2.0), clock, 8.0, 1e-2)
    return traj, time.perf_counter() - start


def test_criterion_01_analytic_decay(decay_trajectory):
    traj, elapsed = decay_trajectory
    worst = 0.0
    for t, m in zip(traj.times, traj.states):
        expected_01 = analytic_offdiagonal(0.5, -1.0, 0.25, t)  # Bohr frequency of (0,1)
        expected_10 = analytic_offdiagonal(0.5, 1.0, 0.25, t)
        worst = max(worst, abs(m[0, 1] - expected_01), abs(m[1, 0] - expected_10))
    ok = worst <= 1e-8 and elapsed < 1.0
    report(1, "constant-sigma decay matches the closed form at every sample",
           ok, f"max dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_fundamental_limit_decay(fundamental_trajectory):
    traj, elapsed = fundamental_trajectory
    ratio = abs(traj.states[-1, 0, 1]) / abs(traj.states[0, 0, 1])
    with mpmath.workdps(40):
        oracle = float(mpmath.exp(
            -4 * mpmath.mpf("0.01") ** mpmath.mpf("4/3") * mpmath.mpf(8) ** mpmath.mpf("2/3")
        ))
    ok = abs(ratio - oracle) <= 1e-10 and elapsed < 1.0
    report(2, "fundamental-limit endpoint ratio matches exp(-w^2 T_P^(4/3) T^(2/3))",
           ok, f"dev {abs(ratio - oracle):.2e}, {elapsed:.2f}s")


def _check_state_invariants(traj, hamiltonian):
    dec = eigendecompose(hamiltonian)
    v = dec.eigenvectors
    diag0 = np.real(np.diag(v.conj().T @ traj.states[0] @ v))
    prev_purity = None
    worst = {"trace": 0.0, "herm": 0.0, "eig": 0.0, "purity": 0.0, "diag": 0.0}
    for m in traj.states:
        worst["trace"] = max(worst["trace"], abs(np.trace(m).real - 1.0), abs(np.trace(m).imag))
        worst["herm"] = max(worst["herm"], float(np.max(np.abs(m - m.conj().T))))
        worst["eig"] = max(worst["eig"], max(0.0, -float(np.linalg.eigvalsh(m)[0])))
        purity = DensityMatrix(m).purity()
        if prev_purity is not None:
            worst["purity"] = max(worst["purity"], purity - prev_purity)
        prev_purity = purity
        diag = np.real(np.diag(v.conj().T @ m @ v))
        worst["diag"] = max(worst["diag"], float(np.max(np.abs(diag - diag0))))
    return worst


def test_criterion_03_state_invariants(decay_trajectory, fundamental_trajectory):
    start = time.perf_counter()
    rng = np.random.default_rng(314159)
    cases = [
        (decay_trajectory[0], qubit_hamiltonian(1.0)),
        (fundamental_trajectory[0], qubit_hamiltonian(2.0)),
    ]
    for _ in range(20):
        dim = int(rng.integers(2, 7))
        h = random_hermitian(rng, dim, norm=1.5)
        rho = random_density(rng, dim)
        base = float(rng.uniform(0.0, 0.25))
        depth = float(rng.uniform(0.0, 0.5 - base))
        freq = float(rng.uniform(0.5, 3.0))
        clock = ExpansionClock(
            b=lambda T, p=base, q=depth, nu=freq: p * T + 0.5 * q * (T - math.sin(nu * T) / nu),
            b_rate=lambda T, p=base, q=depth, nu=freq: p + 0.5 * q * (1 - math.cos(nu * T)),
        )
        cases.append((evolve_master(rho, h, clock, 2.0, 1e-2), h))

    worst = {"trace": 0.0, "herm": 0.0, "eig": 0.0, "purity": 0.0, "diag": 0.0}
    for traj, h in cases:
        w = _check_state_invariants(traj, h)
        for key in worst:
            worst[key] = max(worst[key], w[key])
    elapsed = time.perf_counter() - start
    ok = (worst["trace"] <= 1e-8 and worst["herm"] <= 1e-10 and worst["eig"] <= 1e-8
          and worst["purity"] <= 1e-9 and worst["diag"] <= 1e-9 and elapsed < 30.0)
    report(3, "trace/Hermiticity/positivity/purity/diagonal invariants on 22 trajectories",
           ok, f"trace {worst['trace']:.1e} herm {worst['herm']:.1e} eig {worst['eig']:.1e} "
               f"purity {worst['purity']:.1e} diag {worst['diag']:.1e}, {elapsed:.1f}s")


def test_criterion_04_conserved_observables():
    rng = np.random.default_rng(271828)
    worst = 0.0
    for _ in range(20):
        h = random_hermitian(rng, 4, norm=1.2)
        rho = random_density(rng, 4)
        coeffs = rng.normal(size=4)
        m = h.matrix
        c = (coeffs[0] * np.eye(4) + coeffs[1] * m
             + coeffs[2] * m @ m + coeffs[3] * m @ m @ m)
        rep = despagnat_conservation(HermitianOperator(c), h, rho,
                                     constant_width_growth(0.3), 5.0, 1e-2)
        worst = max(worst, rep.spread)
    ok = worst <= 1e-8
    report(4, "observables commuting with H are conserved along the evolution",
           ok, f"max fluctuation {worst:.2e}")


def test_criterion_05_conditional_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(42)

    # analytic-mode clock: both routes must agree to quadrature precision
    worst_analytic = 0.0
    for _ in range(10):
        omega = float(rng.uniform(0.5, 2.0))
        width = float(rng.uniform(0.4, 1.2))
        reading = float(rng.uniform(1.0, 4.0))
        h_sys = random_hermitian(rng, 2, norm=omega)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        rho = DensityMatrix.from_pure(v)
        obs = random_hermitian(rng, 2, norm=1.0)
        evals = np.linalg.eigvalsh(obs.matrix)
        query = ConditionalQuery(observable=obs, o_center=float(evals[1]),
                                 o_halfwidth=0.4 * float(evals[1] - evals[0]),
                                 t_center=reading, t_halfwidth=1e-3)
        cfg = EvolutionConfig(t_min=reading - 8 * width,
                              t_max=reading + 8 * width, n_points=1601)
        clock = GaussianClock(width=width)
        p_cond = conditional_probability_analytic(clock, rho, h_sys, query, cfg)
        smeared = smear_density(rho, h_sys, clock, reading, cfg)
        window = build_projector(obs, query.o_center, query.o_halfwidth)
        worst_analytic = max(worst_analytic, abs(p_cond - ordinary_probability(smeared, window)))

    # discretized free-particle wavepacket clock vs its matched Gaussian model
    packet = make_wavepacket_clock()
    readings = packet.reading_values()
    valid = np.flatnonzero((readings >= 5.0) & (readings <= 12.0))
    worst_quantum = 0.0
    for _ in range(10):
        omega = float(rng.uniform(0.08, 0.22))
        h_sys = random_hermitian(rng, 2, norm=omega)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        rho = DensityMatrix.from_pure(v)
        obs = random_hermitian(rng, 2, norm=1.0)
        evals = np.linalg.eigvalsh(obs.matrix)
        o_center = float(evals[rng.integers(0, 2)])
        o_halfwidth = 0.1 * float(evals[1] - evals[0])
        site = int(rng.choice(valid))
        reading = float(readings[site])
        w_t = packet.gaussian_model.width_at(reading) / packet.velocity
        t_star = reading / packet.velocity
        cfg = EvolutionConfig(t_min=t_star - 6.2 * w_t,
                              t_max=t_star + 6.2 * w_t, n_points=3001)
        query = ConditionalQuery(observable=obs, o_center=o_center,
                                 o_halfwidth=o_halfwidth, t_center=reading,
                                 t_halfwidth=0.45 * packet.grid_spacing,
                                 clock_operator=packet.reading_operator)
        p_quantum = conditional_probability(packet.rho, rho, packet.hamiltonian,
                                            h_sys, query, cfg)
        smeared = smear_density(rho, h_sys, packet.gaussian_model, reading, cfg)
        window = build_projector(obs, o_center, o_halfwidth)
        worst_quantum = max(worst_quantum, abs(p_quantum - ordinary_probability(smeared, window)))

    elapsed = time.perf_counter() - start
    ok = worst_analytic <= 1e-6 and worst_quantum <= 1e-3 and elapsed < 60.0
    report(5, "relational probability equals ordinary probability of the smeared state",
           ok, f"analytic {worst_analytic:.2e}, wavepacket {worst_quantum:.2e}, {elapsed:.1f}s")


def test_criterion_06_smearing_characteristic_function():
    worst = 0.0
    for width in (0.1, 0.5, 1.0):
        for omega in (1.0, 3.0):
            reading = 2.0
            cfg = EvolutionConfig(t_min=reading - 8 * width,
                                  t_max=reading + 8 * width, n_points=2001)
            smeared = smear_density(plus_state(), qubit_hamiltonian(omega),
                                    GaussianClock(width=width), reading, cfg)
            suppression = abs(smeared.matrix[0, 1]) / 0.5
            expected = math.exp(-0.5 * omega**2 * width**2)
            worst = max(worst, abs(suppression - expected))
    ok = worst <= 1e-6
    report(6, "Gaussian smearing suppresses |rho01| by exp(-w^2 omega^2 / 2)",
           ok, f"max dev {worst:.2e}")


def test_criterion_07_spin_bath_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(112358)
    worst = 0.0
    for i in range(100):
        bath = random_bath((i % 10) + 1, (0.1, 2.0), rng)
        for t in rng.uniform(0.0, 20.0, size=10):
            worst = max(worst, abs(z_ideal(bath, float(t)) - brute_force_z(bath, float(t))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 60.0
    report(7, "coherence product formula equals the state-vector computation",
           ok, f"max dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_08_recurrence_suppression():
    couplings = np.array([0.3 * k for k in range(1, 7)])
    amp = 1 / math.sqrt(2)
    from realclock_qm import SpinBath

    bath = SpinBath(couplings=couplings,
                    alphas=np.full(6, amp, dtype=complex),
                    betas=np.full(6, amp, dtype=complex),
                    a=amp, b=amp)
    t_star = math.pi / 0.3
    horizon = 3 * t_star
    t_p = 0.05

    ideal = recurrence_scan(bath, "ideal", horizon, 20001, threshold=0.9)
    hits = [v for t, v in ideal.exceedances if abs(t - t_star) < 1e-4]
    recurrence_found = bool(hits) and hits[0] >= 1.0 - 1e-9

    real = recurrence_scan(bath, "realclock", horizon, 20001, threshold=0.9,
                           t_planck=t_p)
    envelope = math.exp(-float(np.sum((2 * couplings) ** 2))
                        * t_p ** (4 / 3) * t_star ** (2 / 3))
    idx = int(np.searchsorted(real.times, t_star))
    suppressed = real.running_sup[idx] <= envelope + 1e-12
    sup_monotone = bool(np.all(np.diff(real.running_sup) <= 0.0))

    ok = recurrence_found and suppressed and sup_monotone
    report(8, "ideal recurrence at pi/g0 is real-clock suppressed below the envelope",
           ok, f"|z(pi/g0)|={hits[0] if hits else float('nan'):.12f}, "
               f"sup {real.running_sup[idx]:.3e} <= env {envelope:.3e}")


def test_criterion_09_stepper_order():
    errors = []
    for h in (4e-3, 2e-3, 1e-3, 5e-4):
        traj = evolve_master(plus_state(), qubit_hamiltonian(5.0),
                             constant_width_growth(0.2), 2.0, h)
        errors.append(max(
            abs(m[1, 0] - analytic_offdiagonal(0.5, 5.0, 0.2, t))
            for t, m in zip(traj.times, traj.states)
        ))
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    ok = all(r >= 12.8 for r in ratios)
    report(9, "halving the step shrinks the closed-form error at fourth order",
           ok, "ratios " + ", ".join(f"{r:.1f}" for r in ratios))


def test_criterion_10_formula_contracts():
    rng = np.random.default_rng(951413)
    third = mpmath.mpf(1) / 3
    worst = 0.0
    with mpmath.workdps(50):
        for _ in range(1000):
            mass = float(rng.uniform(1e-3, 1e3))
            t = float(rng.uniform(1e-3, 1e3))
            t_p = float(rng.uniform(1e-6, 1.0))
            omega = float(rng.uniform(1e-3, 1e2))

            oracle = float(mpmath.sqrt(mpmath.mpf(t) / mpmath.mpf(mass)))
            worst = max(worst, abs(salecker_wigner_error(mass, t) - oracle) / oracle)

            oracle = float(mpmath.mpf(t_p) ** (2 * third) * mpmath.mpf(t) ** third)
            worst = max(worst, abs(ng_vandam_limit(t, t_p) - oracle) / oracle)

            oracle = float(mpmath.mpf(omega) ** 2 * mpmath.mpf(t_p) ** (4 * third)
                           * mpmath.mpf(t) ** (2 * third))
            worst = max(worst, abs(decoherence_exponent(omega, t, t_p) - oracle) / oracle)

            oracle = float((mpmath.log(2) / (mpmath.mpf(omega) ** 2
                                             * mpmath.mpf(t_p) ** (4 * third))) ** mpmath.mpf("1.5"))
            worst = max(worst, abs(half_coherence_time(omega, t_p) - oracle) / oracle)

    identity_exact = all(
        fundamental_decay_factor(w, t, p) == math.exp(-decoherence_exponent(w, t, p))
        for w, t, p in zip(rng.uniform(0, 10, 100), rng.uniform(0, 100, 100),
                           rng.uniform(1e-4, 1, 100))
    )
    ok = worst <= 1e-12 and identity_exact
    report(10, "accuracy-bound formulas match the arbitrary-precision oracle",
           ok, f"worst rel dev {worst:.2e}, exp-identity exact: {identity_exact}")


def test_criterion_11_cli_determinism(tmp_path):
    evolve_doc = {
        "command": "evolve",
        "system": {"preset": "qubit", "omega": 1.0},
        "initial_state": {"preset": "plus"},
        "clock": {"kind": "expansion", "sigma": 0.25},
        "evolution": {"step": 1e-3, "t_final": 1.0},
        "seed": 7,
    }
    sweep_doc = {
        "command": "sweep",
        "sweep": {"key": "system.omega", "min": 1.0, "max": 4.0, "n": 6},
        "run": {
            "command": "evolve",
            "system": {"preset": "qubit", "omega": 1.0},
            "initial_state": {"preset": "plus"},
            "clock": {"kind": "fundamental", "t_planck": 0.01, "t_max": 20.0},
            "evolution": {"step": 0.01, "t_final": 8.0},
        },
        "seed": 7,
    }
    cfg_evolve = tmp_path / "evolve.json"
    cfg_evolve.write_text(json.dumps(evolve_doc))
    cfg_sweep = tmp_path / "sweep.json"
    cfg_sweep.write_text(json.dumps(sweep_doc))
    out = tmp_path / "out.csv"

    assert cli_main(["evolve", "--config", str(cfg_evolve), "--out", str(out)]) == 0
    first = out.read_bytes()
    assert cli_main(["evolve", "--config", str(cfg_evolve), "--out", str(out)]) == 0
    repeat_identical = out.read_bytes() == first

    assert cli_main(["sweep", "--config", str(cfg_sweep), "--out", str(out)]) == 0
    serial = out.read_bytes()
    previous = os.environ.get("REALCLOCK_QM_WORKERS")
    os.environ["REALCLOCK_QM_WORKERS"] = "4"
    try:
        assert cli_main(["sweep", "--config", str(cfg_sweep), "--out", str(out)]) == 0
    finally:
        if previous is None:
            os.environ.pop("REALCLOCK_QM_WORKERS")
        else:
            os.environ["REALCLOCK_QM_WORKERS"] = previous
    pool_identical = out.read_bytes() == serial

    ok = repeat_identical and pool_identical
    report(11, "identical config+seed and any worker-pool size give byte-identical output",
           ok, f"repeat: {repeat_identical}, pools 1 vs 4: {pool_identical}")
