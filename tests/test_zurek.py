import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg import expm

from realclock_qm import (
    DensityMatrix,
    FundamentalLimitClock,
    InvalidCoherenceError,
    ResourceLimitError,
    SpinBath,
    UndefinedCoherenceError,
    ValidationError,
    brute_force_z,
    evolve_master,
    random_bath,
    realclock_damping,
    recurrence_scan,
    reduced_density,
    z_ideal,
    z_realclock,
)
from realclock_qm.clock_accuracy import decoherence_exponent
from realclock_qm.core import HermitianOperator
from realclock_qm.zurek import _golden_max


def make_bath(couplings, weights=None, a=None, b=None):
    """Bath with real amplitudes alpha_k = sqrt((1+w)/2), beta_k = sqrt((1-w)/2)."""
    g = np.asarray(couplings, dtype=float)
    w = np.zeros_like(g) if weights is None else np.asarray(weights, dtype=float)
    alphas = np.sqrt((1.0 + w) / 2.0).astype(complex)
    betas = np.sqrt((1.0 - w) / 2.0).astype(complex)
    if a is None:
        a, b = 1 / math.sqrt(2), 1 / math.sqrt(2)
    return SpinBath(couplings=g, alphas=alphas, betas=betas, a=a, b=b)


def commensurate_bath(n=6, g0=0.3):
    return make_bath([g0 * k for k in range(1, n + 1)])


class TestSpinBath:
    def test_normalization_enforced(self):
        with pytest.raises(ValidationError, match="atom 0"):
            SpinBath(couplings=np.array([1.0]), alphas=np.array([1.0 + 0j]),
                     betas=np.array([0.5 + 0j]), a=1.0, b=0.0)
        with pytest.raises(ValidationError, match="system"):
            SpinBath(couplings=np.array([1.0]), alphas=np.array([1.0 + 0j]),
                     betas=np.array([0.0j]), a=1.0, b=1.0)

    def test_random_bath_is_normalized_and_reproducible(self):
        bath1 = random_bath(5, (0.1, 2.0), np.random.default_rng(7))
        bath2 = random_bath(5, (0.1, 2.0), np.random.default_rng(7))
        assert np.allclose(bath1.couplings, bath2.couplings)
        assert np.allclose(bath1.alphas, bath2.alphas)
        norms = np.abs(bath1.alphas) ** 2 + np.abs(bath1.betas) ** 2
        assert np.max(np.abs(norms - 1.0)) <= 1e-12


class TestZIdeal:
    def test_starts_at_one(self, rng):
        bath = random_bath(4, (0.1, 2.0), rng)
        assert z_ideal(bath, 0.0) == pytest.approx(1.0)

    def test_single_atom_pure_phase(self):
        bath = SpinBath(couplings=np.array([0.7]), alphas=np.array([1.0 + 0j]),
                        betas=np.array([0.0j]), a=0.6, b=0.8)
        for t in (0.3, 1.7, 9.2):
            value = z_ideal(bath, t)
            assert value == pytest.approx(np.exp(2j * 0.7 * t))
            assert abs(value) == pytest.approx(1.0)

    def test_vectorized_matches_scalar(self, rng):
        bath = random_bath(3, (0.2, 1.5), rng)
        times = np.array([0.0, 0.5, 2.5])
        vec = z_ideal(bath, times)
        for t, v in zip(times, vec):
            assert v == pytest.approx(z_ideal(bath, float(t)))

    def test_agrees_with_brute_force(self, rng):
        for _ in range(10):
            bath = random_bath(8, (0.1, 2.0), rng)
            for t in rng.uniform(0.0, 20.0, size=10):
                assert abs(z_ideal(bath, float(t)) - brute_force_z(bath, float(t))) <= 1e-10

    @given(st.floats(min_value=0, max_value=50), st.floats(min_value=-1, max_value=1),
           st.floats(min_value=0, max_value=3))
    def test_single_factor_modulus_bounded(self, t, weight, g):
        bath = make_bath([g], [weight])
        assert abs(z_ideal(bath, t)) <= 1.0 + 1e-12


class TestBruteForce:
    def test_starts_at_one(self, rng):
        bath = random_bath(3, (0.1, 1.0), rng)
        assert brute_force_z(bath, 0.0) == pytest.approx(1.0)

    def test_balanced_single_atom_zero_crossing(self):
        # 4-dimensional state vector: z(t) = cos(2 g t) vanishes at t = pi/2 for g = 1/2
        bath = make_bath([0.5])
        assert abs(brute_force_z(bath, math.pi / 2)) <= 1e-12

    def test_resource_limit(self):
        bath = make_bath(np.linspace(0.1, 1.0, 15))
        with pytest.raises(ResourceLimitError):
            brute_force_z(bath, 1.0)

    def test_undefined_coherence(self):
        bath = make_bath([0.5], a=1.0, b=0.0)
        with pytest.raises(UndefinedCoherenceError):
            brute_force_z(bath, 1.0)

    def test_against_dense_propagator(self, rng):
        # secondary oracle: exponentiate the full coupling Hamiltonian
        # sum_k g_k sigma_z (x) sigma_z^k (phases of the assembled solution
        # correspond to U = exp(+i H t))
        for n in (1, 3, 5):
            bath = random_bath(n, (0.1, 1.5), rng)
            dim = 2 ** (n + 1)
            sz = np.diag([1.0, -1.0])
            h_int = np.zeros((dim, dim))
            for k in range(n):
                ops = [sz] + [np.eye(2)] * n
                ops[k + 1] = bath.couplings[k] * sz
                term = ops[0]
                for op in ops[1:]:
                    term = np.kron(term, op)
                h_int += term
            env = np.array([1.0 + 0j])
            for al, be in zip(bath.alphas, bath.betas):
                env = np.kron(env, [al, be])
            psi0 = np.kron(np.array([1.0, 0.0]), env) * bath.a \
                + np.kron(np.array([0.0, 1.0]), env) * bath.b
            t = float(rng.uniform(0.1, 5.0))
            psi_t = expm(1j * h_int * t) @ psi0
            resh = psi_t.reshape(2, -1)
            reduced = resh @ resh.conj().T
            oracle = reduced[0, 1] / (bath.a * np.conj(bath.b))
            assert abs(brute_force_z(bath, t) - oracle) <= 1e-12
            assert abs(z_ideal(bath, t) - oracle) <= 1e-12


class TestZRealclock:
    def test_starts_at_one(self, rng):
        bath = random_bath(4, (0.1, 1.0), rng)
        assert z_realclock(bath, 0.0, 0.05) == pytest.approx(1.0)

    def test_vanishing_planck_time_limit(self, rng):
        bath = random_bath(4, (0.1, 1.0), rng)
        for t in (0.5, 3.0, 12.0):
            assert z_realclock(bath, t, 1e-12) == pytest.approx(z_ideal(bath, t), abs=1e-10)

    def test_suppression_ratio_against_mpmath(self):
        # oracle: arbitrary-precision sum of per-atom exponents
        bath = make_bath([0.3 * k for k in range(1, 7)])
        t, t_p = 10.0, 0.05
        ratio = abs(z_realclock(bath, t, t_p)) / abs(z_ideal(bath, t))
        with mpmath.workdps(50):
            exponent = sum(
                (2 * mpmath.mpf(k) * mpmath.mpf("0.3")) ** 2 for k in range(1, 7)
            ) * mpmath.mpf("0.05") ** mpmath.mpf("4/3") * mpmath.mpf(10) ** mpmath.mpf("2/3")
            oracle = float(mpmath.exp(-exponent))
        assert ratio == pytest.approx(oracle, rel=1e-12)

    def test_never_exceeds_ideal(self, rng):
        bath = random_bath(5, (0.1, 1.5), rng)
        for t in rng.uniform(0.01, 30.0, size=25):
            real = abs(z_realclock(bath, float(t), 0.05))
            ideal = abs(z_ideal(bath, float(t)))
            assert real < ideal or ideal == 0.0

    def test_envelope_bound(self, rng):
        bath = random_bath(5, (0.2, 1.0), rng)
        t_p = 0.05
        sum_sq = float(np.sum((2 * bath.couplings) ** 2))
        times = np.linspace(0.0, 40.0, 4000)
        values = np.abs(z_realclock(bath, times, t_p))
        envelope = np.exp(-sum_sq * t_p ** (4 / 3) * times ** (2 / 3))
        assert np.all(values <= envelope + 1e-12)
        # supremum beyond any t0 is bounded by the envelope at t0
        suffix_sup = np.maximum.accumulate(values[::-1])[::-1]
        assert np.all(suffix_sup <= envelope + 1e-12)

    def test_negative_time_rejected(self, rng):
        bath = random_bath(2, (0.1, 1.0), rng)
        with pytest.raises(ValidationError):
            z_realclock(bath, -1.0, 0.05)
        with pytest.raises(ValidationError):
            z_realclock(bath, np.array([0.0, 1.0, -1e-9]), 0.05)

    def test_damping_is_product_of_per_atom_decoherence(self, rng):
        bath = random_bath(6, (0.1, 1.5), rng)
        t_p = 0.03
        times = np.linspace(0.0, 25.0, 301)
        per_atom = np.prod([np.exp(-decoherence_exponent(2.0 * g, times, t_p))
                            for g in bath.couplings], axis=0)
        damping = realclock_damping(bath, times, t_p)
        assert np.allclose(damping, per_atom, rtol=1e-12, atol=0.0)
        real = z_realclock(bath, times, t_p)
        assert np.array_equal(real, z_ideal(bath, times) * damping)
        for t, value in zip(times[::50], real[::50]):
            assert z_realclock(bath, float(t), t_p) == value


class TestMasterEquationConsistency:
    def test_single_atom_joint_evolution_matches_product_form(self):
        # evolve the 4-dimensional joint state under the fundamental-limit
        # master equation and reduce: the coherence must reproduce the
        # modified product formula (up to propagator phase convention,
        # which conjugates z)
        g, t_p, t_final = 0.4, 0.05, 6.0
        bath = make_bath([g], [0.3], a=0.6, b=0.8)
        sz = np.diag([1.0, -1.0])
        h_int = HermitianOperator(g * np.kron(sz, sz))
        env = np.array([bath.alphas[0], bath.betas[0]])
        psi0 = np.concatenate([bath.a * env, bath.b * env])
        rho0 = DensityMatrix.from_pure(psi0)
        clock = FundamentalLimitClock(t_planck=t_p, t_max=100.0)
        traj = evolve_master(rho0, h_int, clock, t_final, 0.05)
        stride = len(traj.times) // 6
        for t_sample, state in zip(traj.times[::stride], traj.states[::stride]):
            block = state[:2, 2:]  # <+ e| rho |- e'>
            coherence = np.trace(block) / (bath.a * np.conj(bath.b))
            expected = np.conj(z_realclock(bath, t_sample, t_p))
            assert abs(coherence - expected) <= 1e-10


class TestReducedDensity:
    def test_full_coherence_is_pure(self):
        bath = make_bath([1.0], a=0.6, b=0.8)
        rho = reduced_density(bath, 1.0)
        assert rho.purity() == pytest.approx(1.0, abs=1e-12)
        projector = DensityMatrix.from_pure([0.6, 0.8])
        assert np.max(np.abs(rho.matrix - projector.matrix)) <= 1e-12

    def test_zero_coherence_is_proper_mixture(self):
        bath = make_bath([1.0], a=0.6, b=0.8)
        rho = reduced_density(bath, 0.0)
        assert np.allclose(rho.matrix, np.diag([0.36, 0.64]))

    def test_half_coherence_eigenvalues(self):
        # oracle: 2x2 eigenvalues computed directly
        bath = make_bath([1.0])
        rho = reduced_density(bath, 0.5)
        eig = np.linalg.eigvalsh(rho.matrix)
        assert np.allclose(eig, [0.25, 0.75])

    def test_populations_independent_of_coherence(self):
        bath = make_bath([1.0], a=0.6, b=0.8)
        for z in (1.0, 0.5, 0.1 + 0.2j, 0.0):
            rho = reduced_density(bath, z)
            assert np.diag(rho.matrix).real == pytest.approx([0.36, 0.64])
            assert rho.matrix[0, 1] == pytest.approx(z * 0.6 * 0.8)

    def test_excess_coherence_rejected(self):
        bath = make_bath([1.0])
        with pytest.raises(InvalidCoherenceError):
            reduced_density(bath, 1.2)


def _scalar_golden_max(f, lo, hi, xtol=1e-6):
    """One bracket at a time: the textbook golden-section search."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    steps = 0
    while b - a > xtol:
        steps += 1
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x), steps


class TestGoldenMax:
    def test_batched_matches_scalar_search(self, rng):
        bath = commensurate_bath()
        calls = []

        def batched_f(t):
            calls.append(np.shape(t))
            return np.abs(z_ideal(bath, t))

        lo = rng.uniform(0.0, 40.0, size=200)
        # widths from already closed (below xtol) to brackets holding many peaks
        widths = np.concatenate([rng.uniform(1e-7, 1e-6, 5), rng.uniform(1e-4, 0.05, 150),
                                 rng.uniform(0.5, 5.0, 45)])
        hi = lo + widths
        x, value = _golden_max(batched_f, lo, hi)
        reference = [_scalar_golden_max(lambda s: abs(z_ideal(bath, s)), float(l), float(h))
                     for l, h in zip(lo, hi)]
        ref_x = np.array([r[0] for r in reference])
        ref_value = np.array([r[1] for r in reference])
        assert np.max(np.abs(x - ref_x)) <= 1e-9
        assert np.max(np.abs(value - ref_value)) <= 1e-9
        # one call per iteration, as many iterations as the longest scalar search
        assert len(calls) == 3 + max(r[2] for r in reference)

    def test_no_brackets(self):
        x, value = _golden_max(lambda t: np.abs(z_ideal(commensurate_bath(), t)),
                               np.array([]), np.array([]))
        assert x.shape == value.shape == (0,)


class TestRecurrenceScan:
    def test_commensurate_recurrence_found(self):
        bath = commensurate_bath()
        t_star = math.pi / 0.3
        scan = recurrence_scan(bath, "ideal", horizon=3 * t_star, n_samples=20001,
                               threshold=0.9)
        hits = [t for t, v in scan.exceedances if abs(t - t_star) < 1e-4]
        assert hits, "expected a refined recurrence at pi/g0"
        value = dict(scan.exceedances)[hits[0]]
        assert value >= 1.0 - 1e-9

    def test_realclock_recurrence_suppressed(self):
        bath = commensurate_bath()
        t_star = math.pi / 0.3
        t_p = 0.05
        scan = recurrence_scan(bath, "realclock", horizon=3 * t_star, n_samples=20001,
                               threshold=0.5, t_planck=t_p)
        assert scan.exceedances == ()
        sum_sq = float(np.sum((2 * bath.couplings) ** 2))
        envelope = math.exp(-sum_sq * t_p ** (4 / 3) * t_star ** (2 / 3))
        idx = int(np.searchsorted(scan.times, t_star))
        assert scan.running_sup[idx] <= envelope + 1e-12

    def test_impossible_threshold_gives_empty_list(self, rng):
        bath = random_bath(4, (0.1, 1.0), rng)
        scan = recurrence_scan(bath, "ideal", horizon=20.0, n_samples=2000, threshold=1.1)
        assert scan.exceedances == ()

    def test_running_sup_is_non_increasing(self, rng):
        bath = random_bath(4, (0.1, 1.0), rng)
        scan = recurrence_scan(bath, "ideal", horizon=25.0, n_samples=3000, threshold=0.8)
        assert np.all(np.diff(scan.running_sup) <= 1e-15)

    @pytest.mark.parametrize("mode", ["ideal", "realclock"])
    def test_shared_grid_gives_the_same_scan(self, mode):
        bath = commensurate_bath()
        horizon, n, t_p = 3 * math.pi / 0.3, 20001, 0.01
        times = np.linspace(0.0, horizon, n)
        z_grid = z_ideal(bath, times)
        own = recurrence_scan(bath, mode, horizon, n, 0.3, t_planck=t_p)
        shared = recurrence_scan(bath, mode, horizon, n, 0.3, t_planck=t_p, z_grid=z_grid)
        assert own.exceedances and shared.exceedances == own.exceedances
        expected = z_grid if mode == "ideal" else z_realclock(bath, times, t_p)
        assert np.array_equal(shared.abs_z, np.abs(expected))
        assert np.array_equal(own.abs_z, np.abs(expected))
        with pytest.raises(ValidationError, match="z_grid"):
            recurrence_scan(bath, mode, horizon, n + 1, 0.3, t_planck=t_p, z_grid=z_grid)

    def test_parameter_validation(self, rng):
        bath = random_bath(2, (0.1, 1.0), rng)
        with pytest.raises(ValidationError):
            recurrence_scan(bath, "ideal", 10.0, 999, 0.5)
        with pytest.raises(ValidationError):
            recurrence_scan(bath, "realclock", 10.0, 1000, 0.5)  # missing t_planck
        with pytest.raises(ValidationError):
            recurrence_scan(bath, "sideways", 10.0, 1000, 0.5)


@pytest.mark.parametrize("field, bad", [
    ("couplings", [1.0, float("nan")]),
    ("couplings", [float("inf")]),
    ("alphas", [complex(float("nan"), 0.0)]),
    ("a", float("nan")),
])
def test_spin_bath_rejects_non_finite(field, bad):
    amp = 1 / math.sqrt(2)
    n = len(bad) if isinstance(bad, list) else 1
    params = dict(couplings=[0.3] * n, alphas=[amp] * n, betas=[amp] * n, a=amp, b=amp)
    params[field] = bad
    with pytest.raises(ValidationError):
        SpinBath(**params)
