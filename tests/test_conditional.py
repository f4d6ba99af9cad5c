import numpy as np
import pytest

from realclock_qm import (
    ClockFoldingError,
    ConditionalQuery,
    DensityMatrix,
    DimensionMismatchError,
    EvolutionConfig,
    GaussianClock,
    GridConvergenceError,
    HermitianOperator,
    ValidationError,
    build_projector,
    conditional_probabilities,
    conditional_probabilities_analytic,
    conditional_probability,
    conditional_probability_analytic,
    eigendecompose,
    make_wavepacket_clock,
    ordinary_probability,
    smear_density,
    unitary_evolve,
)
from realclock_qm import evolution
from realclock_qm.core import EnergyDecomposition
from realclock_qm.evolution import _doubled_grid, _phase_table, _trace_curves
from helpers import PAULI_X, plus_state, qubit_hamiltonian, random_hermitian, random_pure

OBS_X = HermitianOperator(PAULI_X)


def analytic_cfg(reading, width, points=1601):
    return EvolutionConfig(step=1e-2, t_min=reading - 8 * width, t_max=reading + 8 * width,
                           n_points=points)


def query_x(reading, t_halfwidth=1e-3, clock_operator=None):
    return ConditionalQuery(observable=OBS_X, o_center=1.0, o_halfwidth=0.5,
                            t_center=reading, t_halfwidth=t_halfwidth,
                            clock_operator=clock_operator)


@pytest.fixture(scope="module")
def packet():
    return make_wavepacket_clock()


class TestAnalyticRoute:
    def test_certain_event(self, rng):
        clock = GaussianClock(width=0.8)
        rho = random_pure(rng, 2)
        # window covering the whole spectrum of the observable
        query = ConditionalQuery(observable=OBS_X, o_center=0.0, o_halfwidth=2.0,
                                 t_center=3.0, t_halfwidth=1e-3)
        p = conditional_probability_analytic(clock, rho, qubit_hamiltonian(1.3), query,
                                             analytic_cfg(3.0, 0.8))
        assert p == pytest.approx(1.0, abs=1e-10)

    def test_frozen_system_matches_ordinary_probability(self, rng):
        # no dynamics: the answer cannot depend on clock quality
        h0 = HermitianOperator(np.zeros((2, 2)))
        rho = DensityMatrix(np.diag([0.25, 0.75]))
        p_window = build_projector(OBS_X, 1.0, 0.5)
        expected = ordinary_probability(rho, p_window)
        for width in (0.2, 1.0, 3.0):
            p = conditional_probability_analytic(
                GaussianClock(width=width), rho, h0, query_x(2.0),
                analytic_cfg(2.0, width),
            )
            assert p == pytest.approx(expected, abs=1e-10)

    def test_equivalence_with_smearing_route(self, rng):
        # the relational probability equals the ordinary probability of the
        # clock-smeared state, computed through independent code paths
        for _ in range(50):
            omega = float(rng.uniform(0.5, 2.0))
            width = float(rng.uniform(0.4, 1.2))
            reading = float(rng.uniform(1.0, 4.0))
            h_sys = random_hermitian(rng, 2, norm=omega)
            rho = random_pure(rng, 2)
            obs = random_hermitian(rng, 2, norm=1.0)
            evals = np.linalg.eigvalsh(obs.matrix)
            query = ConditionalQuery(
                observable=obs, o_center=float(evals[1]),
                o_halfwidth=0.4 * float(evals[1] - evals[0]),
                t_center=reading, t_halfwidth=1e-3,
            )
            cfg = analytic_cfg(reading, width)
            clock = GaussianClock(width=width)
            p_cond = conditional_probability_analytic(clock, rho, h_sys, query, cfg)
            smeared = smear_density(rho, h_sys, clock, reading, cfg)
            window = build_projector(obs, query.o_center, query.o_halfwidth)
            p_ord = ordinary_probability(smeared, window)
            assert abs(p_cond - p_ord) <= cfg.quad_tol

    def test_grid_convergence_error_on_truncated_support(self):
        clock = GaussianClock(width=2.0)
        cfg = EvolutionConfig(step=1e-2, t_min=2.0, t_max=5.0, n_points=301)
        with pytest.raises(GridConvergenceError):
            conditional_probability_analytic(clock, plus_state(), qubit_hamiltonian(1.0),
                                             query_x(3.5), cfg)

    def test_window_never_read_on_base_grid(self):
        # the density underflows to zero on the base grid, not on the doubled one
        clock = GaussianClock(width=0.01)
        cfg = EvolutionConfig(step=1e-2, t_min=0.0, t_max=1.0, n_points=101)
        with pytest.raises(GridConvergenceError, match="base grid"):
            conditional_probability_analytic(clock, plus_state(), qubit_hamiltonian(1.0),
                                             query_x(1.4), cfg)

    def test_batch_equals_single_queries(self, rng):
        clock = GaussianClock(width=0.8)
        rho = random_pure(rng, 2)
        h_sys = qubit_hamiltonian(1.3)
        cfg = analytic_cfg(3.0, 0.8)
        queries = [query_x(r) for r in (2.5, 3.0, 3.5)]
        batch = conditional_probabilities_analytic(clock, rho, h_sys, queries, cfg)
        for query, value in zip(queries, batch):
            single = conditional_probability_analytic(clock, rho, h_sys, query, cfg)
            assert abs(value - single) <= 1e-12

    def test_result_in_unit_interval(self, rng):
        clock = GaussianClock(width=0.7)
        for _ in range(5):
            rho = random_pure(rng, 2)
            p = conditional_probability_analytic(clock, rho, qubit_hamiltonian(1.0),
                                                 query_x(2.0), analytic_cfg(2.0, 0.7))
            assert -1e-8 <= p <= 1.0 + 1e-8


class TestQuantumRoute:
    def _cfg(self, packet, reading, coverage=6.2, points=3001):
        w_t = packet.gaussian_model.width_at(reading) / packet.velocity
        t_star = reading / packet.velocity
        return EvolutionConfig(step=1e-2, t_min=t_star - coverage * w_t,
                               t_max=t_star + coverage * w_t, n_points=points)

    def _site_query(self, packet, target, **kwargs):
        readings = packet.reading_values()
        site = int(np.argmin(np.abs(readings - target)))
        reading = float(readings[site])
        return query_x(reading, t_halfwidth=0.45 * packet.grid_spacing,
                       clock_operator=packet.reading_operator, **kwargs), reading

    def test_certain_event(self, packet):
        query, reading = self._site_query(packet, 8.0)
        query = ConditionalQuery(observable=OBS_X, o_center=0.0, o_halfwidth=2.0,
                                 t_center=reading, t_halfwidth=query.t_halfwidth,
                                 clock_operator=packet.reading_operator)
        p = conditional_probability(packet.rho, plus_state(), packet.hamiltonian,
                                    qubit_hamiltonian(0.15), query,
                                    self._cfg(packet, reading))
        assert p == pytest.approx(1.0, abs=1e-9)

    def test_matches_gaussian_model_smearing(self, packet, rng):
        h_sys = qubit_hamiltonian(0.15)
        rho = plus_state()
        query, reading = self._site_query(packet, 9.0)
        cfg = self._cfg(packet, reading)
        p_quantum = conditional_probability(packet.rho, rho, packet.hamiltonian,
                                            h_sys, query, cfg)
        smeared = smear_density(rho, h_sys, packet.gaussian_model, reading, cfg)
        window = build_projector(OBS_X, 1.0, 0.5)
        p_model = ordinary_probability(smeared, window)
        assert abs(p_quantum - p_model) <= 1e-3

    def test_clock_folding_detected(self, packet):
        # grid reaching past the periodic wrap of the packet
        query, reading = self._site_query(packet, 8.0)
        t_star = reading / packet.velocity
        cfg = EvolutionConfig(step=1e-2, t_min=t_star - 40.0, t_max=t_star + 400.0,
                              n_points=4001)
        with pytest.raises(ClockFoldingError):
            conditional_probability(packet.rho, plus_state(), packet.hamiltonian,
                                    qubit_hamiltonian(0.15), query, cfg)

    def test_batch_equals_single_queries(self, packet):
        h_sys = qubit_hamiltonian(0.15)
        rho = plus_state()
        sites = [self._site_query(packet, target) for target in (8.0, 8.5, 9.0)]
        queries = [query for query, _ in sites]
        cfg = self._cfg(packet, sites[1][1])
        batch = conditional_probabilities(packet.rho, rho, packet.hamiltonian, h_sys,
                                          queries, cfg)
        assert len(batch) == 3
        for query, value in zip(queries, batch):
            single = conditional_probability(packet.rho, rho, packet.hamiltonian, h_sys,
                                             query, cfg)
            assert abs(value - single) <= 1e-12

    def test_batch_decomposes_each_operator_once(self, packet, monkeypatch):
        decomposed = []

        def counting(operator):
            decomposed.append(operator)
            return eigendecompose(operator)

        monkeypatch.setattr(evolution, "eigendecompose", counting)
        sites = [self._site_query(packet, target) for target in (8.0, 8.5, 9.0)]
        conditional_probabilities(packet.rho, plus_state(), packet.hamiltonian,
                                  qubit_hamiltonian(0.15), [q for q, _ in sites],
                                  self._cfg(packet, sites[1][1]))
        assert sum(op is packet.reading_operator for op in decomposed) == 1
        assert sum(op is OBS_X for op in decomposed) == 1
        assert sum(op.dim == 256 for op in decomposed) == 2

    @pytest.mark.parametrize("label, t_lo, t_hi", [
        ("base", -8.0, 432.0),    # the base grid itself crosses the periodic wrap
        ("doubled", -28.0, 92.0),  # only the doubled grid reaches the wrap
    ])
    def test_clock_folding_names_grid(self, packet, label, t_lo, t_hi):
        query, _ = self._site_query(packet, 8.0)
        cfg = EvolutionConfig(step=1e-2, t_min=t_lo, t_max=t_hi, n_points=1201)
        with pytest.raises(ClockFoldingError, match=f"over the {label} grid"):
            conditional_probability(packet.rho, plus_state(), packet.hamiltonian,
                                    qubit_hamiltonian(0.15), query, cfg)

    def test_window_halfwidth_limit_enforced(self, packet):
        query, reading = self._site_query(packet, 8.0)
        wide = ConditionalQuery(observable=OBS_X, o_center=1.0, o_halfwidth=0.5,
                                t_center=reading, t_halfwidth=5.0,
                                clock_operator=packet.reading_operator)
        with pytest.raises(ValidationError, match="1%"):
            conditional_probability(packet.rho, plus_state(), packet.hamiltonian,
                                    qubit_hamiltonian(0.15), wide,
                                    self._cfg(packet, reading))

    def test_missing_clock_operator_rejected(self, packet):
        with pytest.raises(ValidationError, match="clock_operator"):
            conditional_probability(packet.rho, plus_state(), packet.hamiltonian,
                                    qubit_hamiltonian(0.15), query_x(8.0),
                                    self._cfg(packet, 8.0))


@pytest.mark.parametrize("n_points", [3, 4, 101, 1003])
def test_doubled_grid_holds_base_grid(n_points):
    cfg = EvolutionConfig(step=1e-2, t_min=-1.3, t_max=2.9, n_points=n_points)
    t, base = _doubled_grid(cfg)
    assert t[0] == pytest.approx(-3.4) and t[-1] == pytest.approx(5.0)
    assert np.max(np.abs(t[base] - cfg.grid())) <= 1e-12


def test_query_halfwidths_validated():
    with pytest.raises(ValidationError):
        ConditionalQuery(observable=OBS_X, o_center=0.0, o_halfwidth=0.0,
                         t_center=0.0, t_halfwidth=0.1)
    with pytest.raises(ValidationError):
        ConditionalQuery(observable=OBS_X, o_center=0.0, o_halfwidth=0.5,
                         t_center=0.0, t_halfwidth=-0.1)


def test_wavepacket_clock_momentum_zone_guard():
    with pytest.raises(ValidationError, match="momentum"):
        make_wavepacket_clock(n=64, length=70.0, mass=40.0, sigma0=2.0, velocity=0.25)


@pytest.mark.parametrize("field", ["o_center", "o_halfwidth", "t_center", "t_halfwidth"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_query_rejects_non_finite(field, value):
    params = dict(observable=OBS_X, o_center=0.0, o_halfwidth=0.5, t_center=0.0,
                  t_halfwidth=0.1)
    params[field] = value
    with pytest.raises(ValidationError, match=f"{field} must be finite"):
        ConditionalQuery(**params)


# ---------------------------------------------------------------------------
# Trace curves from the state's rank factors
# ---------------------------------------------------------------------------


def contraction_curves(rho, decomp, t, requests):
    """Oracle: per-operator contraction in the energy eigenbasis,
    Tr(X rho(t)) = sum_nm X~[m,n] rho~[n,m] e^{-i(omega_n - omega_m) t},
    one GEMM per operator matrix X (the operator itself or a window projector)."""
    rho_eig = decomp.to_eig(rho.matrix)
    phases = np.exp(-1j * np.outer(t, decomp.eigenvalues))
    curves = []
    for operator, window in requests:
        x = (operator.matrix if window is None
             else eigendecompose(operator).projector(*window).matrix)
        coeff = rho_eig * decomp.to_eig(x).T
        curves.append(np.real(np.einsum("tn,tn->t", phases @ coeff, phases.conj())))
    return curves


def random_state_of_rank(rng, dim, rank):
    vecs = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = (vecs * rng.uniform(0.2, 1.0, size=rank)) @ vecs.conj().T
    return DensityMatrix(rho / np.real(np.trace(rho)))


def degenerate_operator(rng, dim):
    """U diag(levels) U^dagger with integer levels in [-1, 1], so windows of
    halfwidth 0.5 around a level hold whole degenerate subspaces."""
    basis, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    levels = rng.integers(-1, 2, size=dim).astype(float)
    m = (basis * levels) @ basis.conj().T
    return HermitianOperator(0.5 * (m + m.conj().T))


@pytest.mark.parametrize("dim", range(2, 9))
@pytest.mark.parametrize("rank", ["1", "2", "d"])
def test_rank_factor_curves_match_contraction(dim, rank, rng):
    r = {"1": 1, "2": 2, "d": dim}[rank]
    rho = random_state_of_rank(rng, dim, r)
    decomp = eigendecompose(random_hermitian(rng, dim, norm=2.0))
    general = random_hermitian(rng, dim, norm=1.5)
    degenerate = degenerate_operator(rng, dim)
    evals = np.linalg.eigvalsh(general.matrix)
    requests = [
        (general, None),
        (degenerate, None),
        (general, (float(evals[-1]), 0.5 * float(evals[-1] - evals[-2]))),
        (degenerate, (0.0, 0.5)),
        (degenerate, (1.0, 0.5)),
        (general, (0.0, 10.0)),
        (degenerate, (5.0, 0.5)),  # empty window
    ]
    t = np.linspace(-3.0, 7.0, 401)
    curves = _trace_curves(rho, decomp, t, requests)
    for got, want in zip(curves, contraction_curves(rho, decomp, t, requests)):
        assert np.max(np.abs(got - want)) <= 1e-12
    assert np.max(np.abs(curves[5] - 1.0)) <= 1e-12  # window over the whole spectrum
    assert np.max(np.abs(curves[6])) == 0.0


def test_window_curve_is_projector_trace_of_evolved_state(rng):
    dim = 6
    rho = random_state_of_rank(rng, dim, 2)
    h = random_hermitian(rng, dim, norm=2.0)
    obs = degenerate_operator(rng, dim)
    edges = HermitianOperator(np.diag([-1.0, 0.0, 0.0, 1.0, 1.0, 2.0]))  # exact levels
    t = np.linspace(-2.0, 4.0, 31)
    requests = [(obs, w) for w in [(-1.0, 0.5), (0.0, 0.5), (1.0, 0.5), (0.5, 1.0)]]
    requests += [(edges, (0.5, 0.5)), (edges, (1.5, 0.25))]  # levels on and off the edges
    curves = _trace_curves(rho, eigendecompose(h), t, requests)
    for (operator, (center, hw)), curve in zip(requests, curves):
        projector = eigendecompose(operator).projector(center, hw).matrix
        for k in (0, 7, 18, 30):
            state = unitary_evolve(rho, h, float(t[k])).matrix
            assert abs(curve[k] - np.real(np.trace(projector @ state))) <= 1e-12


def test_mixed_clock_state_matches_contraction_route(packet, monkeypatch):
    # a rank-2 clock: the packet mixed with its copy shifted by one site
    shifted = np.roll(np.roll(packet.rho.matrix, 1, axis=0), 1, axis=1)
    rho_cl = DensityMatrix(0.7 * packet.rho.matrix + 0.3 * shifted)
    h_sys = qubit_hamiltonian(0.15)
    route = TestQuantumRoute()
    sites = [route._site_query(packet, target) for target in (8.5, 9.0)]
    queries = [query for query, _ in sites]
    cfg = route._cfg(packet, sites[0][1])

    def run():
        return conditional_probabilities(rho_cl, plus_state(), packet.hamiltonian, h_sys,
                                         queries, cfg)

    factored = run()
    monkeypatch.setattr(evolution, "_trace_curves", contraction_curves)
    for got, want in zip(factored, run()):
        assert abs(got - want) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5, 3001, 6001, 8001])
def test_blocked_phase_table_matches_direct_exponentials(n, rng):
    w = np.sort(rng.uniform(-2.0, 2.0, size=7))
    w[0], w[-1] = -2.0, 2.0
    decomp = EnergyDecomposition(eigenvalues=w, eigenvectors=np.eye(7))
    t = np.linspace(-150.0, 130.0, n)  # |w t| up to 300
    table = _phase_table(decomp, t)
    assert table.shape == (n, 7)
    assert np.max(np.abs(table - np.exp(-1j * np.outer(t, w)))) <= 1e-12


def test_phase_table_rejects_a_non_uniform_grid():
    decomp = EnergyDecomposition(eigenvalues=np.array([-1.0, 2.0]), eigenvectors=np.eye(2))
    t = np.linspace(0.0, 10.0, 101)
    t[50] += 1e-6
    with pytest.raises(ValidationError, match="uniform grid"):
        _phase_table(decomp, t)


# ---------------------------------------------------------------------------
# Dimension checks of the relational routes
# ---------------------------------------------------------------------------

QUBIT_QUERY = dict(o_center=1.0, o_halfwidth=0.5, t_center=2.0, t_halfwidth=1e-3)


@pytest.mark.parametrize("wrong", ["rho_cl", "h_cl", "clock_operator", "rho_sys", "h_sys",
                                   "observable"])
def test_quantum_route_rejects_dimension_mismatch(wrong, rng):
    three = random_hermitian(rng, 3)
    args = dict(rho_cl=plus_state(), rho_sys=plus_state(), h_cl=qubit_hamiltonian(1.0),
                h_sys=qubit_hamiltonian(1.0))
    query = dict(QUBIT_QUERY, observable=OBS_X, clock_operator=HermitianOperator(PAULI_X))
    if wrong in ("rho_cl", "rho_sys"):
        args[wrong] = random_pure(rng, 3)
    elif wrong in args:
        args[wrong] = three
    else:
        query[wrong] = three
    with pytest.raises(DimensionMismatchError, match="dimension"):
        conditional_probabilities(queries=[ConditionalQuery(**query)],
                                  cfg=analytic_cfg(2.0, 0.8), **args)


@pytest.mark.parametrize("wrong", ["rho_sys", "h_sys", "observable"])
def test_analytic_route_rejects_dimension_mismatch(wrong, rng):
    rho_sys, h_sys, observable = plus_state(), qubit_hamiltonian(1.0), OBS_X
    if wrong == "rho_sys":
        rho_sys = random_pure(rng, 3)
    elif wrong == "h_sys":
        h_sys = random_hermitian(rng, 3)
    else:
        observable = random_hermitian(rng, 3)
    query = ConditionalQuery(observable=observable, **QUBIT_QUERY)
    with pytest.raises(DimensionMismatchError, match="dimension"):
        conditional_probabilities_analytic(GaussianClock(width=0.8), rho_sys, h_sys, [query],
                                           analytic_cfg(2.0, 0.8))
