import numpy as np
import pytest
from scipy.linalg import expm

from realclock_qm import (
    DensityMatrix,
    EnergyDecomposition,
    HermitianOperator,
    Projector,
    ValidationError,
    DimensionMismatchError,
    build_projector,
    eigendecompose,
    unitary_evolve,
)
from realclock_qm.core import _require_density_stack, _require_hermitian
from helpers import PAULI_X, plus_state, qubit_hamiltonian, random_density, random_hermitian


class TestTypes:
    def test_hermitian_accepts_valid(self):
        op = HermitianOperator(np.array([[1.0, 1j], [-1j, 2.0]]))
        assert op.dim == 2

    def test_hermitian_rejects_and_names_entry(self):
        with pytest.raises(ValidationError, match=r"\(0, 1\)"):
            HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError, match="square"):
            HermitianOperator(np.zeros((2, 3)))

    def test_density_trace_checked(self):
        with pytest.raises(ValidationError, match="trace"):
            DensityMatrix(np.diag([0.6, 0.6]))

    def test_density_positivity_checked(self):
        with pytest.raises(ValidationError, match="negative eigenvalue"):
            DensityMatrix(np.array([[0.5, 0.6], [0.6, 0.5]]))

    def test_density_from_pure_normalizes(self):
        rho = DensityMatrix.from_pure([3.0, 4.0])
        assert rho.matrix[0, 0] == pytest.approx(9 / 25)
        assert rho.purity() == pytest.approx(1.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("amplitudes, index", [
        ([float("nan"), 1.0], 0),
        ([float("inf"), 1.0], 0),
        ([1.0, complex(0.0, float("nan"))], 1),
    ])
    def test_from_pure_rejects_non_finite_amplitude(self, amplitudes, index):
        with pytest.raises(ValidationError, match=f"non-finite amplitude at index {index}"):
            DensityMatrix.from_pure(amplitudes)

    def test_pure_state_rank_factor_is_its_vector(self, rng):
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        rho = DensityMatrix.from_pure(v)
        lam, phi = rho.rank_factors()
        assert lam.tolist() == [1.0]
        assert np.array_equal(phi[:, 0], v / np.linalg.norm(v))
        with pytest.raises(ValueError):
            phi[0, 0] = 0.0
        lam_eigh, phi_eigh = DensityMatrix(rho.matrix).rank_factors()  # the eigh route
        assert lam_eigh.shape == (1,)
        assert np.max(np.abs((phi * lam) @ phi.conj().T
                             - (phi_eigh * lam_eigh) @ phi_eigh.conj().T)) <= 1e-12

    def test_mixed_state_rank_factors_drop_null_space(self, rng):
        vecs, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
        weights = np.array([0.0, 0.0, 0.2, 0.3, 0.5])
        rho = DensityMatrix((vecs * weights) @ vecs.conj().T)
        lam, phi = rho.rank_factors()
        assert np.max(np.abs(lam - weights[2:])) <= 1e-14
        assert np.max(np.abs((phi * lam) @ phi.conj().T - rho.matrix)) <= 1e-14

    def test_projector_idempotence_checked(self):
        with pytest.raises(ValidationError, match="idempotent"):
            Projector(matrix=np.diag([0.5, 0.5]), interval=(0.0, 1.0))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("entry", [float("nan"), float("inf"), complex(1.0, float("nan"))])
    def test_hermitian_rejects_non_finite_entry(self, entry):
        with pytest.raises(ValidationError, match=r"non-finite entry at \(1, 1\)"):
            HermitianOperator(np.array([[1.0, 0.0], [0.0, entry]]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("matrix", [
        [[float("nan"), 0.0], [0.0, 1.0]],
        [[0.5, float("inf")], [float("inf"), 0.5]],
        [[0.5, complex(0.0, float("nan"))], [complex(0.0, float("nan")), 0.5]],
    ])
    def test_density_rejects_non_finite_entry(self, matrix):
        with pytest.raises(ValidationError, match="non-finite"):
            DensityMatrix(np.array(matrix))

    def test_matrices_are_read_only(self):
        op = HermitianOperator(np.diag([1.0, 2.0]))
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0


def _hermitian_defect(m, rng):
    i, j = rng.choice(len(m), size=2, replace=False)
    m[i, j] += 2e-12


def _trace_defect(m, rng):
    i = rng.integers(len(m))
    m[i, i] += 2e-10


def _negative_eigenvalue(m, rng):
    d = len(m)
    v, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    w = rng.uniform(0.1, 1.0, d)
    w[0] = 0.0
    w /= w.sum()
    w[0], w[1] = -2e-9, w[1] + 2e-9
    m[:] = (v * w) @ v.conj().T
    m[:] = 0.5 * (m + m.conj().T)


def _nan_entry(m, rng):
    m[tuple(rng.integers(len(m), size=2))] = np.nan


def _inf_entry(m, rng):
    m[tuple(rng.integers(len(m), size=2))] = np.inf


def _density_stack(rng, n, d):
    return np.array([random_density(rng, d).matrix for _ in range(n)])


def _raised(build, matrix):
    with pytest.raises(ValidationError) as excinfo:
        build(matrix)
    return excinfo.value


class TestDensityStack:
    """_require_density_stack checks a stack in one pass and must accept and
    reject exactly what one DensityMatrix per matrix would."""

    def test_clean_stacks_pass_as_read_only_states(self, rng):
        for d in range(2, 17):
            stack = _density_stack(rng, 7, d)
            before = stack.copy()
            assert _require_density_stack(stack) is None
            assert np.array_equal(stack, before)
            for m in stack:
                state = DensityMatrix(m)
                assert state.dim == d
                assert not state.matrix.flags.writeable
                assert np.array_equal(state.matrix, m)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("plant", [_hermitian_defect, _trace_defect, _negative_eigenvalue,
                                       _nan_entry, _inf_entry],
                             ids=["hermiticity", "trace", "negative_eigenvalue", "nan", "inf"])
    def test_planted_defect_raises_the_scalar_error(self, plant, rng):
        for d in range(2, 17):
            stack = _density_stack(rng, 7, d)
            assert _require_density_stack(stack) is None
            k = int(rng.integers(len(stack)))
            plant(stack[k], rng)
            batched = _raised(_require_density_stack, stack)
            scalar = _raised(DensityMatrix, stack[k])
            assert type(batched) is type(scalar)
            assert str(batched) == str(scalar)
            assert batched.index == k

    @pytest.mark.parametrize("first, second", [
        (_negative_eigenvalue, _hermitian_defect),
        (_hermitian_defect, _negative_eigenvalue),
        (_negative_eigenvalue, _trace_defect),
    ])
    def test_first_failing_matrix_is_reported(self, first, second, rng):
        stack = _density_stack(rng, 9, 3)
        first(stack[3], rng)
        second(stack[6], rng)
        batched = _raised(_require_density_stack, stack)
        assert str(batched) == str(_raised(DensityMatrix, stack[3]))
        assert batched.index == 3


class TestEigendecompose:
    def test_already_diagonal(self):
        dec = eigendecompose(qubit_hamiltonian(1.0))
        assert np.allclose(dec.eigenvalues, [0.0, 1.0])
        assert np.allclose(dec.eigenvectors, np.eye(2))

    def test_pauli_x_spectrum(self):
        dec = eigendecompose(HermitianOperator(PAULI_X))
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0])

    def test_random_reconstruction(self, rng):
        h = random_hermitian(rng, 6, norm=3.0)
        dec = eigendecompose(h)
        recon = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
        assert np.max(np.abs(recon - h.matrix)) <= 1e-10

    def test_bohr_frequency_matrix(self):
        dec = eigendecompose(HermitianOperator(np.diag([0.0, 1.0, 3.0])))
        assert dec.bohr_frequencies[2, 0] == pytest.approx(3.0)
        assert dec.bohr_frequencies[0, 2] == pytest.approx(-3.0)
        assert np.allclose(np.diag(dec.bohr_frequencies), 0.0)

    def test_degenerate_eigenvalues_allowed(self):
        dec = eigendecompose(HermitianOperator(np.diag([1.0, 1.0, 2.0])))
        assert np.allclose(dec.eigenvalues, [1.0, 1.0, 2.0])

    def test_basis_change_round_trip(self, rng):
        h = random_hermitian(rng, 5, norm=2.0)
        dec = eigendecompose(h)
        m = random_density(rng, 5).matrix
        assert np.max(np.abs(dec.from_eig(dec.to_eig(m)) - m)) <= 1e-13
        assert np.max(np.abs(dec.to_eig(dec.from_eig(m)) - m)) <= 1e-13
        assert np.max(np.abs(dec.to_eig(h.matrix) - np.diag(dec.eigenvalues))) <= 1e-12

    def test_basis_change_broadcasts_over_stack(self, rng):
        dec = eigendecompose(random_hermitian(rng, 4, norm=2.0))
        stack = np.array([random_density(rng, 4).matrix for _ in range(3)])
        for to_stack, from_stack, m in zip(dec.to_eig(stack), dec.from_eig(stack), stack):
            assert np.max(np.abs(to_stack - dec.to_eig(m))) <= 1e-14
            assert np.max(np.abs(from_stack - dec.from_eig(m))) <= 1e-14

    @pytest.mark.parametrize("d", [2, 16, 64])
    def test_stacked_basis_change_matches_a_loop(self, d, rng):
        # the stacked route takes two GEMMs over the whole stack
        dec = eigendecompose(random_hermitian(rng, d, norm=2.0))
        v = dec.eigenvectors
        stack = np.array([random_density(rng, d).matrix for _ in range(33)])
        to_stack, from_stack = dec.to_eig(stack), dec.from_eig(stack)
        assert to_stack.shape == from_stack.shape == stack.shape
        for k, m in enumerate(stack):
            assert np.max(np.abs(to_stack[k] - v.conj().T @ m @ v)) <= 1e-14
            assert np.max(np.abs(from_stack[k] - v @ m @ v.conj().T)) <= 1e-14

    def test_kernel_broadcasts_over_times_and_exponents(self):
        dec = eigendecompose(HermitianOperator(np.diag([0.0, 1.0, 3.0])))
        t = np.array([0.0, 0.5, 2.0])
        exponent = np.array([0.0, 0.1, 0.4])
        k = dec.kernel(t, exponent)
        assert k.shape == (3, 3, 3)
        for tk, ek, kk in zip(t, exponent, k):
            b = dec.bohr_frequencies
            assert np.max(np.abs(kk - np.exp(-1j * b * tk) * np.exp(-b * b * ek))) <= 1e-15
        assert abs(k[2, 2, 0] - np.exp(-6j - 9 * 0.4)) <= 1e-15

    def test_projector_matches_build_projector(self, rng):
        a = random_hermitian(rng, 6, norm=2.0)
        dec = eigendecompose(a)
        for center, halfwidth in ((-1.0, 0.5), (0.3, 0.9), (5.0, 0.1)):
            window = dec.projector(center, halfwidth)
            reference = build_projector(a, center, halfwidth)
            assert window.interval == reference.interval
            assert np.max(np.abs(window.matrix - reference.matrix)) <= 1e-14

    def test_window_is_the_projector_selection(self):
        dec = EnergyDecomposition(eigenvalues=np.array([-1.0, 0.5, 0.5, 1.0, 2.5]),
                                  eigenvectors=np.eye(5))
        mask = dec.window(0.75, 0.25)  # both edges sit on eigenvalues
        assert mask.dtype == bool
        assert mask.tolist() == [False, True, True, True, False]
        assert np.array_equal(np.diag(dec.projector(0.75, 0.25).matrix).real, mask)
        with pytest.raises(ValidationError, match="halfwidth"):
            dec.window(0.0, 0.0)
        with pytest.raises(ValidationError, match="finite"):
            dec.window(float("nan"), 0.5)


    def test_repeated_calls_return_the_kept_decomposition(self, rng):
        h = random_hermitian(rng, 5, norm=2.0)
        assert eigendecompose(h) is eigendecompose(h)

    def test_operator_from_spectrum_keeps_its_decomposition(self, rng, monkeypatch):
        v, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
        dec = EnergyDecomposition(eigenvalues=[-1.0, 0.0, 0.0, 2.0, 3.5], eigenvectors=v)
        op = HermitianOperator.from_spectrum(dec)
        assert np.array_equal(op.matrix, op.matrix.conj().T)
        assert np.max(np.abs(op.matrix - (v * dec.eigenvalues) @ v.conj().T)) <= 1e-14

        def no_eigh(*args, **kwargs):
            raise AssertionError("eigh called on an operator with a known spectrum")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        assert eigendecompose(op) is dec

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("eigenvalues, index", [
        ([float("nan"), 1.0], 0),
        ([1.0, float("inf")], 1),
        ([-float("inf"), 0.0], 0),
    ])
    def test_decomposition_rejects_non_finite_eigenvalue(self, eigenvalues, index):
        with pytest.raises(ValidationError, match=f"eigenvalue {index} must be finite"):
            EnergyDecomposition(eigenvalues=eigenvalues, eigenvectors=np.eye(2))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("entry", [float("nan"), float("inf")])
    def test_decomposition_rejects_non_finite_eigenvector(self, entry):
        v = np.eye(2, dtype=complex)
        v[1, 0] = entry
        with pytest.raises(ValidationError, match="not unitary"):
            EnergyDecomposition(eigenvalues=[0.0, 1.0], eigenvectors=v)

    def test_operator_from_spectrum_builds_its_matrix_on_first_read(self, rng):
        v, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
        dec = EnergyDecomposition(eigenvalues=[-1.0, 0.0, 0.0, 2.0, 3.5], eigenvectors=v)
        op = HermitianOperator.from_spectrum(dec)
        assert op.dim == 5 and op._matrix is None  # the dimension needs no matrix
        m = op.matrix
        assert op.matrix is m and not m.flags.writeable
        _require_hermitian(m, "operator")
        assert np.max(np.abs(m - (v * dec.eigenvalues) @ v.conj().T)) <= 1e-13

    def test_decomposition_records_identity_eigenvectors(self, rng):
        assert EnergyDecomposition(eigenvalues=[0.0, 1.0, 2.0], eigenvectors=np.eye(3)).diagonal
        v, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        assert not EnergyDecomposition(eigenvalues=[0.0, 1.0, 2.0], eigenvectors=v).diagonal

    @pytest.mark.parametrize("n", [4, 5])
    def test_dft_order_names_the_inverse_dft_columns(self, n):
        order = np.roll(np.arange(n), 2)
        j = np.arange(n)
        columns = np.exp(2j * np.pi * np.outer(j, order) / n) / np.sqrt(n)
        dec = EnergyDecomposition(eigenvalues=np.arange(n, dtype=float), eigenvectors=columns,
                                  dft_order=order)
        assert np.array_equal(dec.dft_order, order) and not dec.dft_order.flags.writeable
        assert not dec.diagonal
        with pytest.raises(ValidationError, match="inverse-DFT columns"):
            EnergyDecomposition(eigenvalues=np.arange(n, dtype=float), eigenvectors=columns,
                                dft_order=order[::-1])

    @pytest.mark.parametrize("order", [[0, 0, 1], [0, 1, 3], [0.0, 1.0, 2.0]])
    def test_dft_order_must_be_a_permutation(self, order):
        columns = np.fft.ifft(np.eye(3), axis=0, norm="ortho")
        with pytest.raises(ValidationError, match="permutation"):
            EnergyDecomposition(eigenvalues=[0.0, 1.0, 2.0], eigenvectors=columns,
                                dft_order=order)


class TestBuildProjector:
    def test_single_eigenvalue_selected(self):
        p = build_projector(HermitianOperator(np.diag([0.0, 1.0, 2.0])), 1.0, 0.5)
        assert np.allclose(p.matrix, np.diag([0.0, 1.0, 0.0]))

    def test_empty_selection_gives_zero(self):
        p = build_projector(HermitianOperator(np.diag([0.0, 1.0, 2.0])), 10.0, 0.5)
        assert np.allclose(p.matrix, 0.0)
        assert p.rank == 0

    def test_pauli_x_rank_one(self):
        p = build_projector(HermitianOperator(PAULI_X), 1.0, 0.1)
        v = np.array([1.0, 1.0]) / np.sqrt(2)
        assert np.max(np.abs(p.matrix @ p.matrix - p.matrix)) <= 1e-10
        assert np.allclose(p.matrix @ v, v)
        assert p.rank == 1

    def test_degenerate_subspace_fully_included(self):
        p = build_projector(HermitianOperator(np.eye(3)), 1.0, 0.25)
        assert np.allclose(p.matrix, np.eye(3))

    def test_commutes_with_operator(self, rng):
        for _ in range(5):
            a = random_hermitian(rng, 5, norm=2.0)
            center = float(rng.uniform(-2, 2))
            p = build_projector(a, center, 0.7)
            comm = p.matrix @ a.matrix - a.matrix @ p.matrix
            assert np.max(np.abs(comm)) <= 1e-10

    def test_nonpositive_halfwidth_rejected(self):
        with pytest.raises(ValidationError, match="halfwidth"):
            build_projector(HermitianOperator(np.eye(2)), 0.0, 0.0)

    @pytest.mark.parametrize("center, halfwidth", [
        (0.0, float("nan")), (0.0, float("inf")), (float("nan"), 0.5),
    ])
    def test_non_finite_window_rejected(self, center, halfwidth):
        with pytest.raises(ValidationError, match="finite"):
            build_projector(HermitianOperator(np.eye(2)), center, halfwidth)


class TestUnitaryEvolve:
    def test_zero_time_is_identity(self, rng):
        rho = random_density(rng, 4)
        out = unitary_evolve(rho, random_hermitian(rng, 4), 0.0)
        assert np.allclose(out.matrix, rho.matrix, atol=1e-14)

    def test_full_period(self):
        rho = plus_state()
        out = unitary_evolve(rho, qubit_hamiltonian(1.0), 2 * np.pi)
        assert np.max(np.abs(out.matrix - rho.matrix)) <= 1e-12

    def test_phase_against_scaling_squaring_oracle(self, rng):
        # oracle: Pade scaling-and-squaring matrix exponential
        for _ in range(5):
            h = random_hermitian(rng, 4, norm=1.5)
            rho = random_density(rng, 4)
            t = float(rng.uniform(0.1, 5.0))
            u = expm(-1j * h.matrix * t)
            expected = u @ rho.matrix @ u.conj().T
            out = unitary_evolve(rho, h, t)
            assert np.max(np.abs(out.matrix - expected)) <= 1e-12

    def test_qubit_offdiagonal_phase(self):
        omega = 1.7
        out = unitary_evolve(plus_state(), qubit_hamiltonian(omega), 0.9)
        # entry (1, 0) carries Bohr frequency omega_10 = +omega
        assert out.matrix[1, 0] == pytest.approx(0.5 * np.exp(-1j * omega * 0.9))
        assert abs(out.matrix[0, 1]) == pytest.approx(0.5)

    def test_spectrum_preserved_long_evolution(self, rng):
        h = random_hermitian(rng, 5, norm=2.0)
        rho = random_density(rng, 5)
        out = unitary_evolve(rho, h, 50.0)  # |H| * t = 100
        before = np.linalg.eigvalsh(rho.matrix)
        after = np.linalg.eigvalsh(out.matrix)
        assert np.max(np.abs(before - after)) <= 1e-9

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatchError):
            unitary_evolve(random_density(rng, 2), random_hermitian(rng, 3), 1.0)
