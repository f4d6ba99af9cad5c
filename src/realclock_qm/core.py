"""Dense complex linear algebra with physics invariants.

Domain types are thin, immutable wrappers around square complex numpy
arrays. Construction validates the physical invariants (Hermiticity,
unit trace, positivity, idempotence) so downstream code can assume them.
All quantities are dimensionless in natural units (hbar = c = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, ValidationError

TOL_HERMITIAN = 1e-12
TOL_TRACE = 1e-10
TOL_PSD = 1e-9
TOL_IDEMPOTENT = 1e-10
TOL_DECOMPOSITION = 1e-10


def as_square_complex(entries, name: str = "matrix") -> np.ndarray:
    """Coerce to a read-only square complex array, validating the shape."""
    m = np.array(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {m.shape}")
    if m.shape[0] == 0:
        raise ValidationError(f"{name} must have positive dimension")
    m.setflags(write=False)
    return m


def require_finite(**values: float) -> None:
    """Raise ValidationError naming the first keyword whose value is NaN or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value}")


def require_same_dim(rho: "DensityMatrix", operator, name: str) -> None:
    """Raise DimensionMismatchError unless the operator acts on the state's space."""
    dim = operator.dim
    if rho.dim != dim:
        raise DimensionMismatchError(f"state dimension {rho.dim} != {name} dimension {dim}")


def _require_hermitian(m: np.ndarray, name: str, tol: float = TOL_HERMITIAN) -> None:
    with np.errstate(invalid="ignore"):  # inf - inf; reported below as non-finite
        defect = np.abs(m - m.conj().T)
    i, j = np.unravel_index(int(np.argmax(defect)), defect.shape)
    worst = float(defect[i, j])
    # negated so that a NaN defect (from a NaN or infinite entry) also fails
    if not worst <= tol:
        if not math.isfinite(worst):
            raise ValidationError(f"{name} has a non-finite entry at ({i}, {j})")
        raise ValidationError(
            f"{name} is not Hermitian: entry ({i}, {j}) deviates from the "
            f"conjugate of ({j}, {i}) by {worst:.3e} (tol {tol:.1e})"
        )


def _require_density_stack(stack: np.ndarray) -> None:
    """Check an (n, d, d) stack as DensityMatrix checks one matrix, in stacked
    passes; the first failing matrix raises its DensityMatrix error, with its
    position in the stack as ``index``."""
    with np.errstate(invalid="ignore"):  # inf - inf; NaN fails the negated tests
        defect = np.abs(stack - stack.conj().swapaxes(1, 2)).max(axis=(1, 2))
        tr = np.trace(stack, axis1=1, axis2=2)
        tr_ok = (np.abs(tr.imag) <= TOL_TRACE) & (np.abs(tr.real - 1.0) <= TOL_TRACE)
    # argmin over a False-terminated mask: the first failure, else the length
    k = int(np.argmin(np.append((defect <= TOL_HERMITIAN) & tr_ok, False)))
    lo = np.linalg.eigvalsh(stack[:k])[:, 0]  # Hermitian, hence finite, matrices only
    k = int(np.argmin(np.append(lo >= -TOL_PSD, False)))
    if k == len(stack):
        return
    try:
        _require_hermitian(stack[k], "density matrix")
        raise ValidationError(
            f"density matrix has negative eigenvalue {lo[k]:.3e} (tol {TOL_PSD:.1e})"
            if tr_ok[k] else
            f"density matrix trace must be 1, got {tr[k]:.12g} (tol {TOL_TRACE:.1e})"
        )
    except ValidationError as exc:
        exc.index = k
        raise


@dataclass(frozen=True, eq=False, init=False)
class HermitianOperator:
    """A Hermitian matrix: Hamiltonians and observables.

    An operator keeps its spectral decomposition once it is known (built
    from_spectrum, or computed by eigendecompose); it is immutable, so the
    kept decomposition cannot go stale. An operator built from_spectrum
    builds its dense ``matrix`` only when it is first read.
    """

    _matrix: np.ndarray | None
    _decomposition: EnergyDecomposition | None = field(repr=False)

    def __init__(self, matrix):
        m = as_square_complex(matrix, "operator")
        _require_hermitian(m, "operator")
        object.__setattr__(self, "_matrix", m)
        object.__setattr__(self, "_decomposition", None)

    @classmethod
    def from_spectrum(cls, dec: EnergyDecomposition) -> HermitianOperator:
        """The operator (V * omega) V^dagger of a known decomposition, which
        eigendecompose then returns without an eigh. Neither the d x d
        product nor its Hermiticity check is paid until ``matrix`` is read."""
        operator = cls.__new__(cls)
        object.__setattr__(operator, "_matrix", None)
        object.__setattr__(operator, "_decomposition", dec)
        return operator

    @property
    def matrix(self) -> np.ndarray:
        """The read-only dense matrix; for an operator built from_spectrum it
        is (V * omega) V^dagger, built and checked Hermitian on first read."""
        if self._matrix is None:
            v = self._decomposition.eigenvectors
            m = (v * self._decomposition.eigenvalues) @ v.conj().T
            m = as_square_complex(0.5 * (m + m.conj().T), "operator")
            _require_hermitian(m, "operator")
            object.__setattr__(self, "_matrix", m)
        return self._matrix

    @property
    def dim(self) -> int:
        if self._matrix is None:
            return self._decomposition.dim
        return self._matrix.shape[0]


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, positive-semidefinite, unit-trace state."""

    matrix: np.ndarray
    _vector: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        m = as_square_complex(self.matrix, "density matrix")
        _require_density_stack(m[None])
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_pure(cls, amplitudes) -> "DensityMatrix":
        """Projector onto a (normalized) pure state vector; the state keeps
        the vector, read-only, as its one rank factor."""
        v = np.asarray(amplitudes, dtype=complex).reshape(-1)
        bad = np.flatnonzero(~np.isfinite(v))
        if bad.size:
            raise ValidationError(
                f"pure state vector has a non-finite amplitude at index {bad[0]}"
            )
        norm = np.linalg.norm(v)
        if norm == 0:
            raise ValidationError("pure state vector must be nonzero")
        v = v / norm
        state = cls(np.outer(v, v.conj()))
        v.setflags(write=False)
        object.__setattr__(state, "_vector", v)
        return state

    def rank_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """Weights lam and orthonormal columns phi with rho = sum_k lam_k phi_k phi_k^dagger.

        A state built from_pure gives its vector with weight 1 and costs no
        eigh; any other state drops the eigenvalues of magnitude up to
        d eps lam_max.
        """
        if self._vector is not None:
            return np.ones(1), self._vector[:, None]
        lam, phi = np.linalg.eigh(self.matrix)
        keep = np.abs(lam) > self.dim * np.finfo(float).eps * np.max(np.abs(lam))
        return lam[keep], phi[:, keep]

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))


@dataclass(frozen=True, eq=False)
class Projector:
    """Orthogonal projector onto eigenvalues within an interval."""

    matrix: np.ndarray
    interval: tuple[float, float]  # (center, halfwidth)

    def __post_init__(self):
        m = as_square_complex(self.matrix, "projector")
        _require_hermitian(m, "projector")
        defect = float(np.max(np.abs(m @ m - m)))
        if not defect <= TOL_IDEMPOTENT:
            raise ValidationError(
                f"projector is not idempotent: max |P^2 - P| = {defect:.3e} "
                f"(tol {TOL_IDEMPOTENT:.1e})"
            )
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "interval", (float(self.interval[0]), float(self.interval[1])))

    @property
    def rank(self) -> int:
        return int(round(float(np.real(np.trace(self.matrix)))))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _sandwich(left: np.ndarray, m: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left @ m @ right for one (d, d) matrix. For an (n, d, d) stack, two GEMMs
    over the stack laid out as one (d, n d) and one (n d, d) matrix, in place
    of one pair of BLAS calls per matrix; the result is C-contiguous."""
    if m.ndim == 2:
        return left @ m @ right
    n, d, _ = m.shape
    columns = m.transpose(1, 0, 2).reshape(d, n * d)  # [m_0 | m_1 | ...]
    rows = (left @ columns).reshape(d, n, d).transpose(1, 0, 2).reshape(n * d, d)
    return (rows @ right).reshape(n, d, d)


@dataclass(frozen=True, eq=False)
class EnergyDecomposition:
    """Spectral decomposition of a Hamiltonian: H = V diag(omega) V^dagger.

    Two structures of V are recorded for the routes that can use them:
    ``diagonal`` is True when V is the identity (the operator is the
    diagonal matrix of its eigenvalues), and a given ``dft_order`` states
    that column n of V is column dft_order[n] of the unitary inverse-DFT
    matrix, exp(2 pi i j m / d) / sqrt(d); that claim is checked here.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    dft_order: np.ndarray | None = None
    diagonal: bool = field(init=False, repr=False)

    def __post_init__(self):
        w = np.array(self.eigenvalues, dtype=float)
        v = as_square_complex(self.eigenvectors, "eigenvector matrix")
        if w.ndim != 1 or w.shape[0] != v.shape[0]:
            raise ValidationError("eigenvalue count must match eigenvector dimension")
        bad = np.flatnonzero(~np.isfinite(w))
        if bad.size:
            raise ValidationError(f"eigenvalue {bad[0]} must be finite, got {w[bad[0]]}")
        if np.any(np.diff(w) < 0):
            raise ValidationError("eigenvalues must be sorted ascending")
        eye = np.eye(v.shape[0])
        with np.errstate(invalid="ignore"):  # inf * 0; NaN fails the negated test
            unit_defect = float(np.max(np.abs(v.conj().T @ v - eye)))
        if not unit_defect <= TOL_DECOMPOSITION:
            raise ValidationError(
                f"eigenvector matrix is not unitary: defect {unit_defect:.3e}"
            )
        if self.dft_order is not None:
            order = np.array(self.dft_order)
            indices = np.arange(len(w))
            if order.dtype.kind not in "iu" or not np.array_equal(np.sort(order), indices):
                raise ValidationError("dft_order must be a permutation of the column indices")
            dft_defect = float(np.max(np.abs(
                np.fft.ifft(eye[:, order], axis=0, norm="ortho") - v)))
            if not dft_defect <= TOL_DECOMPOSITION:
                raise ValidationError(
                    f"eigenvectors are not the inverse-DFT columns of dft_order: "
                    f"defect {dft_defect:.3e}"
                )
            order.setflags(write=False)
            object.__setattr__(self, "dft_order", order)
        w.setflags(write=False)
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "eigenvectors", v)
        object.__setattr__(self, "diagonal", bool(np.array_equal(v, eye)))

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def bohr_frequencies(self) -> np.ndarray:
        """Matrix of level differences: B[n, m] = omega_n - omega_m."""
        w = self.eigenvalues
        return w[:, None] - w[None, :]

    def to_eig(self, m: np.ndarray) -> np.ndarray:
        """V^dagger m V: a matrix, or an (n, d, d) stack of them, in the energy eigenbasis."""
        v = self.eigenvectors
        return _sandwich(v.conj().T, m, v)

    def from_eig(self, m: np.ndarray) -> np.ndarray:
        """V m V^dagger: back from the energy eigenbasis; inverse of to_eig."""
        v = self.eigenvectors
        return _sandwich(v, m, v.conj().T)

    def kernel(self, t, exponent=0.0) -> np.ndarray:
        """exp(-i B t - B^2 exponent) for the Bohr matrix B.

        This factor multiplies rho_nm in the energy eigenbasis on every exact
        route: exponent 0 is unitary evolution, and a clock whose reading
        width has grown by ``exponent`` adds the decay e^{-w_nm^2 exponent}.
        ``t`` and ``exponent`` broadcast; each array axis of theirs leads the
        (dim, dim) result.
        """
        b = self.bohr_frequencies
        t = np.asarray(t, dtype=float)[..., None, None]
        exponent = np.asarray(exponent, dtype=float)[..., None, None]
        return np.exp(-1j * b * t - b * b * exponent)

    def window(self, center: float, halfwidth: float) -> np.ndarray:
        """Boolean mask of the eigenvalues in [center - hw, center + hw].

        The selection compares eigenvalues only, so within a degenerate
        subspace either every eigenvector is included or none is.
        """
        require_finite(center=center, halfwidth=halfwidth)
        if halfwidth <= 0:
            raise ValidationError(f"halfwidth must be positive, got {halfwidth}")
        return np.abs(self.eigenvalues - center) <= halfwidth

    def projector(self, center: float, halfwidth: float) -> Projector:
        """Projector onto the eigenvectors selected by window(center, halfwidth).

        It is basis independent, because the window takes a degenerate
        subspace whole or not at all. An empty selection yields the zero
        matrix.
        """
        cols = self.eigenvectors[:, self.window(center, halfwidth)]
        return Projector(matrix=cols @ cols.conj().T, interval=(center, halfwidth))


def eigendecompose(operator: HermitianOperator) -> EnergyDecomposition:
    """Spectral decomposition with ascending eigenvalues.

    Degenerate eigenvalues are allowed; the returned eigenvectors span each
    degenerate subspace orthonormally. The operator's kept decomposition is
    returned as it is; otherwise one eigh is run, its reconstruction
    V diag(w) V^dagger is checked against the input to TOL_DECOMPOSITION,
    and the operator keeps the result.
    """
    if operator._decomposition is not None:
        return operator._decomposition
    w, v = np.linalg.eigh(operator.matrix)
    recon = (v * w) @ v.conj().T
    defect = float(np.max(np.abs(recon - operator.matrix)))
    if defect > TOL_DECOMPOSITION:
        raise ValidationError(
            f"eigendecomposition failed to reconstruct the operator: "
            f"defect {defect:.3e} (tol {TOL_DECOMPOSITION:.1e})"
        )
    dec = EnergyDecomposition(eigenvalues=w, eigenvectors=v)
    object.__setattr__(operator, "_decomposition", dec)
    return dec


def build_projector(operator: HermitianOperator, center: float, halfwidth: float) -> Projector:
    """Projector onto the eigenvalue window of one operator; see
    EnergyDecomposition.projector, which serves many windows of one operator."""
    return eigendecompose(operator).projector(center, halfwidth)


def unitary_evolve(rho0: DensityMatrix, hamiltonian: HermitianOperator, t: float) -> DensityMatrix:
    """Evolve rho0 by U(t) = exp(-i H t), so that in the energy eigenbasis
    rho_nm(t) = rho_nm(0) * exp(-i (omega_n - omega_m) t).

    Computed through the eigendecomposition of H (exact for Hermitian H),
    which preserves the spectrum of rho up to roundoff.
    """
    require_same_dim(rho0, hamiltonian, "Hamiltonian")
    dec = eigendecompose(hamiltonian)
    return DensityMatrix(dec.from_eig(dec.to_eig(rho0.matrix) * dec.kernel(t)))


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a
