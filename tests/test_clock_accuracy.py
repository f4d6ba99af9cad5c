import math

import mpmath
import pytest
from hypothesis import given, strategies as st

from realclock_qm import (
    ValidationError,
    decoherence_exponent,
    experiment_report,
    fundamental_decay_factor,
    half_coherence_time,
    ng_vandam_limit,
    salecker_wigner_error,
)

positive = st.floats(min_value=1e-6, max_value=1e6)


class TestSaleckerWigner:
    def test_zero_duration(self):
        assert salecker_wigner_error(1.0, 0.0) == 0.0

    def test_unit_substitution(self):
        assert salecker_wigner_error(1.0, 1.0) == 1.0

    def test_arithmetic(self):
        assert salecker_wigner_error(4.0, 9.0) == pytest.approx(1.5)

    def test_invalid_mass(self):
        with pytest.raises(ValidationError):
            salecker_wigner_error(0.0, 1.0)

    @given(positive, positive)
    def test_matches_mpmath(self, mass, t):
        oracle = float(mpmath.sqrt(mpmath.mpf(t) / mpmath.mpf(mass)))
        assert salecker_wigner_error(mass, t) == pytest.approx(oracle, rel=1e-12)


class TestNgVandam:
    def test_zero_duration(self):
        assert ng_vandam_limit(0.0, 1e-3) == 0.0

    def test_fixed_point(self):
        assert ng_vandam_limit(0.5, 0.5) == pytest.approx(0.5)

    def test_derived_value(self):
        # oracle: arbitrary-precision (1e-3)^(2/3) * 8^(1/3)
        oracle = float(mpmath.mpf("1e-3") ** mpmath.mpf("2/3") * mpmath.cbrt(8))
        assert oracle == pytest.approx(0.02, rel=1e-12)
        assert ng_vandam_limit(8.0, 1e-3) == pytest.approx(oracle, rel=1e-12)

    @given(positive, positive, positive)
    def test_monotone_in_both_arguments(self, t, t_p, bump):
        base = ng_vandam_limit(t, t_p)
        assert ng_vandam_limit(t + bump, t_p) >= base
        assert ng_vandam_limit(t, t_p + bump) >= base


class TestDecoherenceExponent:
    def test_zero_frequency(self):
        assert decoherence_exponent(0.0, 5.0, 0.1) == 0.0

    def test_unit_substitution(self):
        assert decoherence_exponent(1.0, 1.0, 1.0) == pytest.approx(1.0)

    def test_shares_implementation_with_decay_factor(self, rng):
        for _ in range(100):
            omega = float(rng.uniform(-10, 10))
            t = float(rng.uniform(0, 100))
            t_p = float(rng.uniform(1e-4, 1.0))
            assert fundamental_decay_factor(omega, t, t_p) == math.exp(
                -decoherence_exponent(omega, t, t_p)
            )

    @given(positive, positive, st.floats(min_value=1e-3, max_value=1e3))
    def test_quadratic_homogeneity_in_frequency(self, omega, t, scale):
        base = decoherence_exponent(omega, t, 0.01)
        scaled = decoherence_exponent(scale * omega, t, 0.01)
        assert scaled == pytest.approx(scale * scale * base, rel=1e-9)

    @given(positive, positive, positive, positive)
    def test_monotone(self, omega, t, t_p, bump):
        base = decoherence_exponent(omega, t, t_p)
        assert decoherence_exponent(omega + bump, t, t_p) >= base
        assert decoherence_exponent(omega, t + bump, t_p) >= base
        assert decoherence_exponent(omega, t, t_p + bump) >= base


class TestHalfCoherenceTime:
    def test_unit_substitution(self):
        # oracle: root of the exponent equation solved at high precision
        with mpmath.workdps(40):
            root = mpmath.findroot(
                lambda t: t ** mpmath.mpf("2/3") - mpmath.log(2), mpmath.mpf("0.5")
            )
            oracle = float(root)
        assert oracle == pytest.approx(0.5770, abs=1e-4)
        assert half_coherence_time(1.0, 1.0) == pytest.approx(oracle, rel=1e-12)

    def test_exponent_reaches_half_life(self, rng):
        for _ in range(50):
            omega = float(rng.uniform(0.1, 10))
            t_p = float(rng.uniform(1e-4, 1.0))
            t_half = half_coherence_time(omega, t_p)
            assert decoherence_exponent(omega, t_half, t_p) == pytest.approx(
                math.log(2), abs=1e-12
            )

    def test_doubling_frequency_divides_by_eight(self):
        assert half_coherence_time(2.0, 0.01) == pytest.approx(
            half_coherence_time(1.0, 0.01) / 8.0, rel=1e-12
        )

    def test_zero_frequency_is_infinite(self):
        assert half_coherence_time(0.0, 1.0) == math.inf


class TestExperimentReport:
    def test_assembles_consistent_fields(self):
        report = experiment_report(2.0, 3.0, 0.01)
        assert report.decay_factor == pytest.approx(math.exp(-report.exponent))
        assert report.ng_vandam_delta == pytest.approx(ng_vandam_limit(3.0, 0.01))
        assert not report.no_decoherence

    def test_zero_frequency_flagged(self):
        report = experiment_report(0.0, 3.0, 0.01)
        assert report.no_decoherence
        assert report.half_coherence_time == math.inf
        assert report.decay_factor == 1.0
