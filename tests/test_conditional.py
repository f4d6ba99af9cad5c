import numpy as np
import pytest

from realclock_qm import (
    ClockFoldingError,
    ConditionalQuery,
    DensityMatrix,
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
)
from realclock_qm import evolution
from realclock_qm.evolution import _doubled_grid
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
