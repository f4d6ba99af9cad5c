import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad, simpson

from realclock_qm import (
    DensityMatrix,
    DimensionMismatchError,
    EvolutionConfig,
    FundamentalLimitClock,
    GaussianClock,
    HermitianOperator,
    IdealClock,
    InsufficientGridError,
    IntegrationFailureError,
    NonCommutingObservableError,
    UnsupportedClockKindError,
    ValidationError,
    analytic_offdiagonal,
    build_projector,
    constant_width_growth,
    despagnat_conservation,
    eigendecompose,
    evolve_master,
    fundamental_decay_factor,
    master_step,
    ordinary_probability,
    smear_densities,
    smear_density,
    unitary_evolve,
)
from realclock_qm.clocks import ExpansionClock, pdf, sigma
from realclock_qm.config import build_clock
from realclock_qm import evolution
from realclock_qm.evolution import _simpson_weights
from helpers import plus_state, qubit_hamiltonian, random_density, random_hermitian

QUBIT = qubit_hamiltonian(1.0)


def default_cfg():
    return EvolutionConfig(t_min=-10.0, t_max=10.0, n_points=1601)


class TestSmearDensity:
    def test_ideal_clock_is_sharp_evolution(self, rng):
        rho = random_density(rng, 3)
        h = random_hermitian(rng, 3)
        smeared = smear_density(rho, h, IdealClock(), 2.3, default_cfg())
        sharp = unitary_evolve(rho, h, 2.3)
        assert np.max(np.abs(smeared.matrix - sharp.matrix)) <= 1e-12

    def test_zero_hamiltonian_leaves_state(self, rng):
        rho = random_density(rng, 2)
        h = HermitianOperator(np.zeros((2, 2)))
        cfg = EvolutionConfig(t_min=-8.0, t_max=12.0, n_points=801)
        smeared = smear_density(rho, h, GaussianClock(width=1.0), 2.0, cfg)
        assert np.max(np.abs(smeared.matrix - rho.matrix)) <= 1e-10

    def test_gaussian_suppression_factor(self):
        # oracle: adaptive quadrature of the phase average under the normal weight
        omega, w, reading = 1.3, 0.7, 1.5
        clock = GaussianClock(width=w)
        cfg = EvolutionConfig(t_min=reading - 9 * w, t_max=reading + 9 * w,
                              n_points=1201)
        smeared = smear_density(plus_state(), qubit_hamiltonian(omega), clock, reading, cfg)

        re, _ = quad(lambda t: math.cos(omega * t) * float(
            np.exp(-0.5 * ((t - reading) / w) ** 2) / (math.sqrt(2 * math.pi) * w)),
            reading - 12 * w, reading + 12 * w, epsabs=1e-13)
        im, _ = quad(lambda t: -math.sin(omega * t) * float(
            np.exp(-0.5 * ((t - reading) / w) ** 2) / (math.sqrt(2 * math.pi) * w)),
            reading - 12 * w, reading + 12 * w, epsabs=1e-13)
        oracle = 0.5 * complex(re, im)  # smeared rho_10 for rho_10(0) = 0.5
        assert smeared.matrix[1, 0] == pytest.approx(oracle, abs=1e-9)
        assert abs(smeared.matrix[1, 0]) / 0.5 == pytest.approx(
            math.exp(-0.5 * omega**2 * w**2), abs=1e-9
        )

    def test_trace_identity(self, rng):
        rho = random_density(rng, 4)
        h = random_hermitian(rng, 4, norm=1.2)
        cfg = EvolutionConfig(t_min=-9.0, t_max=13.0, n_points=1601)
        smeared = smear_density(rho, h, GaussianClock(width=1.1), 2.0, cfg)
        assert np.trace(smeared.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_insufficient_grid_rejected(self):
        clock = GaussianClock(width=1.0)
        cfg = EvolutionConfig(t_min=-1.0, t_max=1.0, n_points=201)
        with pytest.raises(InsufficientGridError):
            smear_density(plus_state(), QUBIT, clock, 3.0, cfg)

    def test_expansion_clock_unsupported(self):
        with pytest.raises(UnsupportedClockKindError):
            smear_density(plus_state(), QUBIT, constant_width_growth(0.1), 1.0, default_cfg())


class TestSmearDensities:
    @pytest.mark.parametrize("clock", [GaussianClock(width=0.9), IdealClock()],
                             ids=["gaussian", "ideal"])
    def test_batch_equals_single_readings(self, clock, rng):
        rho = random_density(rng, 5)
        h = random_hermitian(rng, 5, norm=1.5)
        # the last reading sits near the grid's end: its clock weight is ~1 - 5e-4
        readings = [-1.0, 0.5, 2.0, 2.25, 8.0]
        cfg = EvolutionConfig(t_min=-9.0, t_max=11.0, n_points=2001, quad_tol=1e-3)
        batch = smear_densities(rho, h, clock, readings, cfg)
        assert len(batch) == len(readings)
        for reading, state in zip(readings, batch):
            single = smear_density(rho, h, clock, reading, cfg)
            assert np.max(np.abs(state.matrix - single.matrix)) <= 1e-14

    def test_one_reading_off_the_grid_is_rejected(self):
        cfg = EvolutionConfig(t_min=-8.0, t_max=9.0, n_points=1701)
        clock = GaussianClock(width=1.0)
        assert len(smear_densities(plus_state(), QUBIT, clock, [0.0, 1.0], cfg)) == 2
        with pytest.raises(InsufficientGridError, match="clock weight"):
            smear_densities(plus_state(), QUBIT, clock, [0.0, 7.5, 1.0], cfg)

    def test_coarse_grid_is_rejected_for_any_reading(self):
        # a narrow clock at the second reading is not resolved by the grid
        clock = GaussianClock(width=lambda reading: 1.0 if reading < 1.0 else 0.5)
        cfg = EvolutionConfig(t_min=-6.0, t_max=8.0, n_points=101)
        assert len(smear_densities(plus_state(), QUBIT, clock, [0.0], cfg)) == 1
        with pytest.raises(InsufficientGridError, match="too coarse"):
            smear_densities(plus_state(), QUBIT, clock, [0.0, 2.0], cfg)


@pytest.mark.parametrize("n", list(range(2, 10)) + [1003, 4001])
def test_simpson_weights_match_scipy(n, rng):
    t = np.linspace(-1.3, 2.7, n)
    values = rng.normal(size=n)
    assert _simpson_weights(t) @ values == pytest.approx(simpson(values, x=t), abs=1e-13)


def einsum_stack_smear(rho, h, clock, reading, cfg):
    """The (T, d, d) stack integrated by scipy: the defining integral, term by term."""
    t = cfg.grid()
    weights = pdf(clock, reading, t)
    dec = eigendecompose(h)
    v = dec.eigenvectors
    phases = np.exp(-1j * np.outer(t, dec.eigenvalues))
    stack = np.einsum("tn,nm,tm->tnm", phases, v.conj().T @ rho.matrix @ v, phases.conj())
    smeared = simpson(stack * weights[:, None, None], x=t, axis=0) / simpson(weights, x=t)
    return v @ smeared @ v.conj().T


@pytest.mark.parametrize("n_points", [1003, 1601])
def test_gemm_smearing_matches_einsum_stack(n_points):
    # 1003 points leave an even count (502) for the half-resolution check
    rng = np.random.default_rng(16)
    rho = random_density(rng, 16)
    h = random_hermitian(rng, 16, norm=1.0)
    clock = GaussianClock(width=1.0)
    cfg = EvolutionConfig(t_min=-7.0, t_max=11.0, n_points=n_points)
    smeared = smear_density(rho, h, clock, 2.0, cfg)
    reference = einsum_stack_smear(rho, h, clock, 2.0, cfg)
    assert np.max(np.abs(smeared.matrix - reference)) <= 1e-12


class TestMasterStep:
    def test_sigma_zero_matches_unitary(self):
        h = 1e-2
        stepped = master_step(plus_state(), QUBIT, 0.0, h)
        sharp = unitary_evolve(plus_state(), QUBIT, h)
        assert np.max(np.abs(stepped.matrix - sharp.matrix)) <= 1e-11  # O(h^5)

    def test_zero_hamiltonian_is_stationary(self, rng):
        rho = random_density(rng, 3)
        stepped = master_step(rho, HermitianOperator(np.zeros((3, 3))), 0.3, 1e-2)
        assert np.max(np.abs(stepped.matrix - rho.matrix)) <= 1e-14

    def test_constant_sigma_endpoint(self):
        state = plus_state()
        n, h = 1000, 1e-3
        for _ in range(n):
            state = master_step(state, QUBIT, 0.25, h)
        expected = analytic_offdiagonal(0.5, 1.0, 0.25, 1.0)
        assert abs(state.matrix[1, 0] - expected) <= 1e-8
        # oracle: arbitrary-precision e^{-i} e^{-0.25} / 2
        oracle = mpmath.mpf("0.5") * mpmath.exp(-1j * mpmath.mpf(1)) * mpmath.exp(mpmath.mpf("-0.25"))
        assert abs(state.matrix[1, 0] - complex(oracle)) <= 1e-8

    def test_step_size_precondition(self):
        with pytest.raises(ValidationError, match="step too large"):
            master_step(plus_state(), qubit_hamiltonian(10.0), 0.5, 0.1)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValidationError):
            master_step(plus_state(), QUBIT, -0.1, 1e-3)

    def test_trace_renormalized(self, rng):
        state = random_density(rng, 4)
        h = random_hermitian(rng, 4, norm=1.5)
        for _ in range(50):
            state = master_step(state, h, 0.4, 5e-3)
        assert np.trace(state.matrix).real == pytest.approx(1.0, abs=1e-13)

    def test_generator_is_double_commutator_form(self, rng):
        # independently written Lindblad right-hand side with the single
        # operator D = H, advanced by an independently written RK4 step
        rho = random_density(rng, 3)
        h = random_hermitian(rng, 3, norm=1.0)
        sig, dt = 0.3, 1e-3

        def rhs(r):
            d = h.matrix
            comm = d @ r - r @ d
            return -1j * comm - sig * (d @ comm - comm @ d)

        k1 = rhs(rho.matrix)
        k2 = rhs(rho.matrix + 0.5 * dt * k1)
        k3 = rhs(rho.matrix + 0.5 * dt * k2)
        k4 = rhs(rho.matrix + dt * k3)
        expected = rho.matrix + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        expected = 0.5 * (expected + expected.conj().T)
        expected /= np.trace(expected).real
        stepped = master_step(rho, h, sig, dt)
        assert np.max(np.abs(stepped.matrix - expected)) <= 1e-14

    def test_instantaneous_derivative_matches_generator(self, rng):
        # Richardson-extrapolated derivative of the step vs -i[H,r] - sig[H,[H,r]]
        rho = random_density(rng, 3)
        h = random_hermitian(rng, 3, norm=1.0)
        sig = 0.3
        comm = h.matrix @ rho.matrix - rho.matrix @ h.matrix
        generator = -1j * comm - sig * (h.matrix @ comm - comm @ h.matrix)
        dt = 1e-5
        f1 = (master_step(rho, h, sig, dt).matrix - rho.matrix) / dt
        f2 = (master_step(rho, h, sig, 0.5 * dt).matrix - rho.matrix) / (0.5 * dt)
        derivative = 2.0 * f2 - f1
        assert np.max(np.abs(derivative - generator)) <= 1e-10


class TestEvolveMaster:
    def test_sigma_zero_diagonal_state_constant(self):
        rho = DensityMatrix(np.diag([0.3, 0.7]))
        traj = evolve_master(rho, QUBIT, constant_width_growth(0.0), 2.0, 1e-2)
        for m in traj.states:
            assert np.max(np.abs(m - rho.matrix)) <= 1e-12

    def test_endpoints_present(self):
        traj = evolve_master(plus_state(), QUBIT, constant_width_growth(0.1), 1.5, 1e-2)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == 1.5

    def test_constant_sigma_modulus_decay(self):
        traj = evolve_master(plus_state(), QUBIT, constant_width_growth(0.25), 3.0, 1e-3)
        for T, m in zip(traj.times, traj.states):
            assert abs(abs(m[0, 1]) - 0.5 * math.exp(-0.25 * T)) <= 1e-8

    def test_time_dependent_sigma_against_exponent_integral(self):
        # sigma(T) = 0.1 + 0.1 T: exponent integral is 0.1 T + 0.05 T^2
        clock = ExpansionClock(b=lambda T: 0.1 * T + 0.05 * T * T,
                               b_rate=lambda T: 0.1 + 0.1 * T)
        traj = evolve_master(plus_state(), QUBIT, clock, 2.0, 1e-3)
        T = traj.times[-1]
        expected = 0.5 * math.exp(-(0.1 * T + 0.05 * T * T))
        assert abs(traj.states[-1, 0, 1]) == pytest.approx(expected, abs=1e-7)

    def test_fundamental_limit_endpoint(self):
        clock = FundamentalLimitClock(t_planck=1e-2, t_max=20.0)
        h = qubit_hamiltonian(2.0)
        traj = evolve_master(plus_state(), h, clock, 8.0, 1e-2)
        ratio = abs(traj.states[-1, 0, 1]) / 0.5
        # oracle: arbitrary-precision exp(-4 * (1e-2)^(4/3) * 8^(2/3))
        oracle = float(mpmath.exp(-4 * mpmath.mpf("0.01") ** mpmath.mpf("4/3")
                                  * mpmath.mpf(8) ** mpmath.mpf("2/3")))
        assert abs(ratio - oracle) <= 1e-10

    def test_fundamental_limit_horizon_enforced(self):
        clock = FundamentalLimitClock(t_planck=1e-2, t_max=5.0)
        with pytest.raises(ValidationError, match="horizon"):
            evolve_master(plus_state(), QUBIT, clock, 5.0, 1e-2)

    def test_ideal_clock_runs_unitary(self):
        traj = evolve_master(plus_state(), QUBIT, IdealClock(), 1.0, 1e-3)
        assert abs(traj.states[-1, 0, 1]) == pytest.approx(0.5, abs=1e-10)

    def test_gaussian_clock_unsupported(self):
        with pytest.raises(UnsupportedClockKindError):
            evolve_master(plus_state(), QUBIT, GaussianClock(width=1.0), 1.0, 1e-2)

    def test_diagonal_entries_constant_in_energy_basis(self, rng):
        h = random_hermitian(rng, 4, norm=1.5)
        rho = random_density(rng, 4)
        dec = eigendecompose(h)
        v = dec.eigenvectors
        diag0 = np.real(np.diag(v.conj().T @ rho.matrix @ v))
        traj = evolve_master(rho, h, constant_width_growth(0.3), 2.0, 1e-2)
        for m in traj.states:
            diag = np.real(np.diag(v.conj().T @ m @ v))
            assert np.max(np.abs(diag - diag0)) <= 1e-9

    def test_monotone_decoherence_and_purity(self, rng):
        h = random_hermitian(rng, 3, norm=1.0)
        rho = random_density(rng, 3)
        dec = eigendecompose(h)
        v = dec.eigenvectors
        traj = evolve_master(rho, h, constant_width_growth(0.2), 2.0, 1e-2)
        prev_abs = None
        prev_purity = None
        for m in traj.states:
            eig = np.abs(v.conj().T @ m @ v)
            purity = DensityMatrix(m).purity()
            if prev_abs is not None:
                assert np.all(eig <= prev_abs + 1e-10)
                assert purity <= prev_purity + 1e-9
            prev_abs, prev_purity = eig, purity

    def test_purity_constant_when_unitary(self, rng):
        rho = random_density(rng, 3)
        h = random_hermitian(rng, 3, norm=1.0)
        traj = evolve_master(rho, h, constant_width_growth(0.0), 2.0, 1e-3)
        p0 = rho.purity()
        for m in traj.states:
            assert abs(DensityMatrix(m).purity() - p0) <= 1e-9

    def test_stepper_is_fourth_order(self):
        h_sys = qubit_hamiltonian(5.0)
        errors = []
        for step in (4e-3, 2e-3):
            traj = evolve_master(plus_state(), h_sys, constant_width_growth(0.2), 2.0, step)
            err = max(
                abs(m[1, 0] - analytic_offdiagonal(0.5, 5.0, 0.2, T))
                for T, m in zip(traj.times, traj.states)
            )
            errors.append(err)
        assert errors[0] / errors[1] >= 12.8

    @pytest.mark.parametrize("seed", range(6), ids=[f"symmetric-{s}" for s in range(6)])
    def test_expansion_route_equals_iterated_master_step(self, seed):
        # the energy-basis route against the matrix-form RK4 oracle, with the
        # same midpoint coefficients the route uses
        rng = np.random.default_rng([seed, 0])
        dim = int(rng.integers(2, 7))
        h = random_hermitian(rng, dim, norm=1.5)
        rho = random_density(rng, dim)
        s0, s1 = rng.uniform(0.1, 0.3, size=2)
        clock = ExpansionClock(b=lambda T: s0 * T + 0.5 * s1 * T * T,
                               b_rate=lambda T: s0 + s1 * T)
        traj = evolve_master(rho, h, clock, 1.0, 1e-2)
        assert len(traj.times) == 101
        state = rho
        for t0, t1, stepped in zip(traj.times, traj.times[1:], traj.states[1:]):
            mid = 0.5 * (t0 + t1)
            state = master_step(state, h, sigma(clock, mid), t1 - t0)
            assert np.max(np.abs(stepped - state.matrix)) <= 1e-12

    @pytest.mark.parametrize("clock", [
        constant_width_growth(0.5),
        # stable at first; sigma(T) grows past the limit before t_final
        ExpansionClock(b=lambda T: 0.5 * T * T, b_rate=lambda T: T),
    ], ids=["constant", "late"])
    def test_stiff_expansion_clock_rejected(self, clock):
        with pytest.raises(ValidationError, match="step too large"):
            evolve_master(plus_state(), qubit_hamiltonian(10.0), clock, 2.0, 5e-3)

    def test_ideal_clock_equals_unitary_evolve_at_every_time(self, rng):
        h = random_hermitian(rng, 4, norm=2.0)
        rho = random_density(rng, 4)
        traj = evolve_master(rho, h, IdealClock(), 3.0, 0.05)
        assert len(traj.times) == 61
        for T, m in zip(traj.times, traj.states):
            assert np.max(np.abs(m - unitary_evolve(rho, h, T).matrix)) <= 1e-12

    def test_ideal_clock_accepts_large_steps(self):
        # the closed form has no stability limit, unlike the RK4 route
        traj = evolve_master(plus_state(), qubit_hamiltonian(10.0), IdealClock(), 2.0, 0.5)
        assert traj.times.tolist() == [0.0, 0.5, 1.0, 1.5, 2.0]
        assert traj.states[-1, 1, 0] == pytest.approx(0.5 * np.exp(-20j), abs=1e-12)

    def test_fundamental_route_matches_decay_factor_at_every_sample(self, rng):
        h = random_hermitian(rng, 3, norm=2.0)
        rho = random_density(rng, 3)
        clock = FundamentalLimitClock(t_planck=2e-2, t_max=10.0)
        dec = eigendecompose(h)
        v, bohr = dec.eigenvectors, dec.bohr_frequencies
        rho_eig0 = v.conj().T @ rho.matrix @ v
        traj = evolve_master(rho, h, clock, 6.0, 0.1)
        assert len(traj.times) == 61
        for T, m in zip(traj.times, traj.states):
            rho_eig = v.conj().T @ m @ v
            for n in range(3):
                for m in range(3):
                    expected = (rho_eig0[n, m] * np.exp(-1j * bohr[n, m] * T)
                                * fundamental_decay_factor(bohr[n, m], T, clock.t_planck))
                    assert abs(rho_eig[n, m] - expected) <= 1e-12


class TestTrajectory:
    """evolve_master returns its times and its validated stack of states as
    read-only arrays."""

    def test_arrays_are_read_only(self, rng):
        traj = evolve_master(random_density(rng, 3), random_hermitian(rng, 3, norm=0.5),
                             constant_width_growth(0.2), 0.5, 0.1)
        assert traj.times.shape == (6,) and traj.states.shape == (6, 3, 3)
        assert not traj.times.flags.writeable
        assert not traj.states.flags.writeable
        for m in traj.states:
            DensityMatrix(m)

    def test_first_row_is_the_initial_state(self, rng):
        rho = random_density(rng, 3)
        traj = evolve_master(rho, random_hermitian(rng, 3, norm=1.0), IdealClock(), 1.0, 0.1)
        assert np.array_equal(traj.states[0], rho.matrix)
        assert traj.times[0] == 0.0 and traj.times[-1] == 1.0

    def test_zero_duration_holds_the_initial_state(self, rng):
        rho = random_density(rng, 3)
        traj = evolve_master(rho, random_hermitian(rng, 3, norm=1.0),
                             constant_width_growth(0.2), 0.0, 1e-2)
        assert traj.times.tolist() == [0.0]
        assert traj.states.shape == (1, 3, 3)
        assert np.array_equal(traj.states[0], rho.matrix)
        assert not traj.times.flags.writeable
        assert not traj.states.flags.writeable


def test_trajectory_builds_no_state_and_calls_the_rate_once_per_step(monkeypatch):
    post_init = DensityMatrix.__post_init__
    states, rates = [], []

    def counting_post_init(self):
        states.append(1)
        post_init(self)

    def rate(T):
        rates.append(T)
        return 0.25

    rho0, clock = plus_state(), ExpansionClock(b=lambda T: 0.25 * T, b_rate=rate)
    monkeypatch.setattr(DensityMatrix, "__post_init__", counting_post_init)
    traj = evolve_master(rho0, QUBIT, clock, 10.0, 1e-3)
    assert len(traj.times) == 10_001
    assert len(states) == 0
    assert len(rates) == 10_000


class TestClosedForms:
    def test_diagonal_element_is_constant(self):
        for T in (0.0, 1.0, 10.0):
            assert analytic_offdiagonal(0.7 + 0.1j, 0.0, 0.5, T) == 0.7 + 0.1j

    def test_pure_phase_full_period(self):
        value = analytic_offdiagonal(0.25, 1.0, 0.0, 2 * math.pi)
        assert value == pytest.approx(0.25, abs=1e-12)

    def test_modulus_against_mpmath(self):
        # oracle: arbitrary-precision |e^{-2i} e^{-1}|
        value = analytic_offdiagonal(1.0, 2.0, 0.25, 1.0)
        oracle = complex(mpmath.exp(-2j) * mpmath.exp(-1))
        assert value == pytest.approx(oracle, abs=1e-15)
        assert abs(value) == pytest.approx(0.367879441171442, abs=1e-12)

    def test_decay_factor_trivials(self):
        assert fundamental_decay_factor(0.0, 5.0, 0.1) == 1.0
        assert fundamental_decay_factor(1.0, 1.0, 1.0) == pytest.approx(math.exp(-1.0))

    def test_decay_factor_against_mpmath(self):
        value = fundamental_decay_factor(10.0, 8.0, 0.01)
        oracle = float(mpmath.exp(-100 * mpmath.mpf("0.01") ** mpmath.mpf("4/3")
                                  * mpmath.mpf(8) ** mpmath.mpf("2/3")))
        assert value == pytest.approx(oracle, rel=1e-14)

    @given(st.floats(min_value=-20, max_value=20),
           st.floats(min_value=0, max_value=2),
           st.floats(min_value=0, max_value=50))
    def test_modulus_never_grows(self, omega, sig, t):
        assert abs(analytic_offdiagonal(0.5, omega, sig, t)) <= 0.5 + 1e-12


class TestOrdinaryProbability:
    def test_identity_projector(self, rng):
        rho = random_density(rng, 3)
        p = build_projector(HermitianOperator(np.zeros((3, 3))), 0.0, 1.0)
        assert ordinary_probability(rho, p) == pytest.approx(1.0)

    def test_zero_projector(self, rng):
        rho = random_density(rng, 3)
        p = build_projector(HermitianOperator(np.zeros((3, 3))), 5.0, 1.0)
        assert ordinary_probability(rho, p) == 0.0

    def test_diagonal_readout(self):
        rho = DensityMatrix(np.diag([0.3, 0.7]))
        p = build_projector(HermitianOperator(np.diag([1.0, 0.0])), 1.0, 0.5)
        assert ordinary_probability(rho, p) == pytest.approx(0.3)


class TestConservation:
    def test_hamiltonian_is_conserved(self, rng):
        h = random_hermitian(rng, 4, norm=1.5)
        rho = random_density(rng, 4)
        report = despagnat_conservation(h, h, rho, constant_width_growth(0.3), 2.0, 1e-2)
        assert report.conserved
        assert report.spread <= 1e-9

    def test_identity_gives_trace_conservation(self, rng):
        h = random_hermitian(rng, 3, norm=1.0)
        rho = random_density(rng, 3)
        identity = HermitianOperator(np.eye(3))
        report = despagnat_conservation(identity, h, rho, constant_width_growth(0.3), 2.0,
                                        1e-2)
        assert report.conserved
        assert report.samples[0][1] == pytest.approx(1.0, abs=1e-12)

    def test_polynomial_in_hamiltonian(self, rng):
        h = random_hermitian(rng, 4, norm=1.2)
        rho = random_density(rng, 4)
        coeffs = rng.normal(size=4)
        m = h.matrix
        c = coeffs[0] * np.eye(4) + coeffs[1] * m + coeffs[2] * m @ m + coeffs[3] * m @ m @ m
        observable = HermitianOperator(c)
        report = despagnat_conservation(observable, h, rho, constant_width_growth(0.3), 5.0,
                                        1e-2)
        assert report.conserved
        # cross-check one sample against the bare trajectory
        traj = evolve_master(rho, h, constant_width_growth(0.3), 5.0, 1e-2)
        direct = float(np.real(np.trace(c @ traj.states[-1])))
        assert report.samples[-1][1] == pytest.approx(direct, abs=1e-12)

    def test_samples_match_per_state_trace(self, rng):
        h = random_hermitian(rng, 4, norm=1.2)
        rho = random_density(rng, 4)
        observable = HermitianOperator(h.matrix @ h.matrix - 0.3 * h.matrix)
        report = despagnat_conservation(observable, h, rho, constant_width_growth(0.3), 3.0,
                                        1e-2)
        traj = evolve_master(rho, h, constant_width_growth(0.3), 3.0, 1e-2)
        assert [t for t, _ in report.samples] == traj.times.tolist()
        for (_, value), m in zip(report.samples, traj.states):
            assert isinstance(value, float)
            assert abs(value - np.real(np.trace(observable.matrix @ m))) <= 1e-14

    def test_noncommuting_rejected_with_norm(self, rng):
        h = qubit_hamiltonian(1.0)
        pauli_x = HermitianOperator(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(NonCommutingObservableError) as excinfo:
            despagnat_conservation(pauli_x, h, plus_state(), constant_width_growth(0.1),
                                   1.0, 1e-2)
        assert excinfo.value.commutator_norm == pytest.approx(1.0)


def _growing_factors(clock, dec, starts, h):
    """RK4 factors of a rate that makes coherence grow like e^{T/2} (sigma = -1/2
    on a unit gap), which no clock can set; it breaks positivity of a
    coherent state near T = 1."""
    b = dec.bohr_frequencies
    z = h * (-1j * b + 0.5 * b * b) * np.ones((len(starts), 1, 1))
    r = 1.0 + z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0)))
    return np.concatenate([np.ones((1,) + b.shape), np.cumprod(r, axis=0)])


def test_integration_failure_names_the_step(monkeypatch):
    # a step whose result is not a state is reported as a failed integration
    monkeypatch.setattr(evolution, "_rk4_step", lambda rho, *_: np.diag([1.5, -0.5]))
    with pytest.raises(IntegrationFailureError, match="smaller step"):
        master_step(plus_state(), QUBIT, 0.0, 1e-2)


def test_integration_failure_names_the_first_invalid_output(monkeypatch):
    monkeypatch.setattr(evolution, "_rk4_factors", _growing_factors)
    rho0 = DensityMatrix(np.array([[0.5, 0.3], [0.3, 0.5]]))
    with pytest.raises(IntegrationFailureError, match="smaller step") as excinfo:
        evolve_master(rho0, QUBIT, constant_width_growth(0.0), 2.0, 1e-2)
    # the same outputs, built as evolve_master builds them, checked one by one
    dec = eigendecompose(QUBIT)
    times = [k * 1e-2 for k in range(201)]
    times[-1] = 2.0
    states = dec.from_eig(dec.to_eig(rho0.matrix) * _growing_factors(None, dec, times[:-1], 1e-2))
    for t, m in zip(times[1:], states[1:]):
        try:
            DensityMatrix(m)
        except ValidationError as exc:
            first_t, scalar = t, exc
            break
    else:
        pytest.fail("every output passed one by one")
    assert 0.5 < first_t < 1.5
    message = str(excinfo.value)
    assert message.startswith(f"output at T = {first_t} ")
    assert f"({scalar})" in message


@pytest.mark.parametrize("clock, t_final, step", [
    (constant_width_growth(0.25), 10.0, 1e-3),  # acceptance criterion 1's run
    (FundamentalLimitClock(t_planck=1e-2, t_max=20.0), 8.0, 1e-2),
    (IdealClock(), 1.0, 1e-2),
], ids=["expansion", "fundamental", "ideal"])
def test_trajectory_is_validated_by_one_eigvalsh_call(clock, t_final, step, monkeypatch):
    rho0 = plus_state()
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    traj = evolve_master(rho0, QUBIT, clock, t_final, step)
    n_out = round(t_final / step)
    assert len(traj.times) == n_out + 1
    assert calls == [(n_out, 2, 2)]


@pytest.mark.parametrize("field", ["t_min", "t_max", "quad_tol"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_evolution_config_rejects_non_finite(field, value):
    params = dict(t_min=-1.0, t_max=1.0, n_points=11, quad_tol=1e-8)
    params[field] = value
    with pytest.raises(ValidationError, match=f"{field} must be finite"):
        EvolutionConfig(**params)


@pytest.mark.parametrize("step, message", [
    (float("nan"), "step must be finite"), (float("inf"), "step must be finite"),
    (0.0, "step must be positive"), (-1e-2, "step must be positive"),
], ids=["nan", "inf", "zero", "negative"])
def test_evolve_master_rejects_bad_step(step, message):
    for clock in (IdealClock(), constant_width_growth(0.1)):
        with pytest.raises(ValidationError, match=message):
            evolve_master(plus_state(), QUBIT, clock, 1.0, step)


def test_nan_rate_is_rejected_where_it_is_computed():
    # finite coefficients whose rate overflows to inf - inf at every reading
    clock = build_clock({"kind": "expansion", "b_poly": [0.0, 0.0, 1e308, -1e308]})
    with pytest.raises(ValidationError, match=r"got nan at T=0\.005$") as excinfo:
        evolve_master(plus_state(), QUBIT, clock, 1.0, 1e-2)
    assert not isinstance(excinfo.value, IntegrationFailureError)
    with pytest.raises(ValidationError, match="^sigma must be nonnegative, got nan$"):
        master_step(plus_state(), QUBIT, float("nan"), 1e-3)
    with pytest.raises(ValidationError, match="^step must be positive, got nan$"):
        master_step(plus_state(), QUBIT, 0.1, float("nan"))
    with pytest.raises(ValidationError, match="step too large"):
        evolution._require_stable_step(1e-3, float("nan"), np.array([0.0, 1.0]))


@pytest.mark.parametrize("route", [
    lambda rho, h: smear_density(rho, h, GaussianClock(width=0.5), 1.0, default_cfg()),
    lambda rho, h: master_step(rho, h, 0.1, 1e-3),
    lambda rho, h: evolve_master(rho, h, constant_width_growth(0.1), 1.0, 1e-2),
    lambda rho, h: evolve_master(rho, h, IdealClock(), 1.0, 1e-2),
    lambda rho, h: ordinary_probability(rho, build_projector(h, 0.0, 1.0)),
], ids=["smear_density", "master_step", "evolve_master", "evolve_master_ideal",
        "ordinary_probability"])
def test_dimension_mismatch_rejected(route, rng):
    with pytest.raises(DimensionMismatchError, match="state dimension 2 != .* dimension 3"):
        route(plus_state(), random_hermitian(rng, 3))
