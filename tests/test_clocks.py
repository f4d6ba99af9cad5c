import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from realclock_qm import (
    ClockDomainError,
    ExpansionClock,
    FundamentalLimitClock,
    GaussianClock,
    IdealClock,
    UnsupportedClockKindError,
    ValidationError,
    constant_width_growth,
    integrated_sigma,
    pdf,
    sigma,
)
from realclock_qm.config import build_clock


class TestPdf:
    def test_standard_normal_peak(self):
        clock = GaussianClock(width=1.0)
        assert pdf(clock, 0.0, 0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi))

    def test_normal_tail_value(self):
        clock = GaussianClock(width=1.0)
        assert pdf(clock, 0.0, 3.0) == pytest.approx(math.exp(-4.5) / math.sqrt(2 * math.pi))

    def test_normalized_over_ideal_time(self):
        # oracle: adaptive quadrature of the density over t at fixed reading
        clock = GaussianClock(width=2.0)
        mass, _ = quad(lambda t: pdf(clock, 0.0, t), -20.0, 20.0, epsabs=1e-12)
        assert abs(mass - 1.0) <= 1e-8

    def test_normalized_for_every_reading_on_grid(self):
        clock = GaussianClock(width=lambda T: 0.5 + 0.02 * T * T)
        for reading in (-3.0, 0.0, 1.7, 5.0):
            w = clock.width_at(reading)
            mass, _ = quad(lambda t: pdf(clock, reading, t),
                           reading - 15 * w, reading + 15 * w, epsabs=1e-12)
            assert abs(mass - 1.0) <= 1e-8

    def test_normalized_with_peak_map(self):
        # peak map t -> 0.25 t; its rate is the Jacobian of the density
        clock = GaussianClock(width=0.8, rate=0.25)
        mass, _ = quad(lambda t: float(pdf(clock, 1.0, t)), -80.0, 90.0, epsabs=1e-12)
        assert abs(mass - 1.0) <= 1e-8
        assert pdf(clock, 1.0, 3.0) == pytest.approx(
            0.25 * math.exp(-0.5 * (0.25 / 0.8) ** 2) / (math.sqrt(2 * math.pi) * 0.8))

    def test_decreasing_peak_map_rejected(self):
        for rate in (-1.0, 0.0, float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="rate must be positive and finite"):
                GaussianClock(width=1.0, rate=rate)

    def test_ideal_returns_delta_flag(self):
        # the ideal clock's density is a delta, which pdf does not represent
        with pytest.raises(UnsupportedClockKindError,
                           match="Gaussian clocks, not IdealClock$"):
            pdf(IdealClock(), 1.0, 2.0)

    def test_unsupported_kinds_raise(self):
        for clock in (constant_width_growth(0.1),
                      FundamentalLimitClock(t_planck=1.0, t_max=2.0)):
            with pytest.raises(UnsupportedClockKindError,
                               match=f"Gaussian clocks, not {type(clock).__name__}$"):
                pdf(clock, 0.0, 0.0)

    def test_vectorized_over_t(self):
        clock = GaussianClock(width=1.0)
        values = pdf(clock, 0.0, np.array([0.0, 3.0]))
        assert values[0] == pytest.approx(1.0 / math.sqrt(2 * math.pi))

    def test_nonpositive_width_rejected(self):
        with pytest.raises(ValidationError):
            GaussianClock(width=0.0)
        bad = GaussianClock(width=lambda T: -1.0)
        with pytest.raises(ValidationError):
            pdf(bad, 0.0, 0.0)


class TestSigma:
    def test_fundamental_unit_substitution(self):
        clock = FundamentalLimitClock(t_planck=1.0, t_max=2.0)
        assert sigma(clock, 1.0) == pytest.approx(1.0)

    def test_expansion_constant_rate(self):
        clock = constant_width_growth(0.1)
        for T in (0.0, 1.0, 7.5):
            assert sigma(clock, T) == pytest.approx(0.1)

    def test_fundamental_against_mpmath(self):
        # oracle: arbitrary-precision evaluation of (T_P/(T_max-T))^(1/3)*T_P
        clock = FundamentalLimitClock(t_planck=1e-3, t_max=10.0)
        expected = mpmath.mpf("1e-3") / 8
        expected = float(mpmath.cbrt(expected) * mpmath.mpf("1e-3"))
        assert expected == pytest.approx(5e-5, rel=1e-12)
        assert sigma(clock, 2.0) == pytest.approx(expected, rel=1e-12)

    def test_domain_error_at_horizon(self):
        clock = FundamentalLimitClock(t_planck=1.0, t_max=2.0)
        with pytest.raises(ClockDomainError):
            sigma(clock, 2.0)
        with pytest.raises(ClockDomainError):
            sigma(clock, 3.0)

    def test_unsupported_kind(self):
        with pytest.raises(UnsupportedClockKindError):
            sigma(GaussianClock(width=1.0), 0.0)

    def test_negative_rate_rejected(self):
        clock = ExpansionClock(b=lambda T: -T, b_rate=lambda T: -1.0)
        with pytest.raises(ValidationError, match="nonnegative"):
            sigma(clock, 1.0)


class TestIntegratedSigma:
    def test_linear_b(self):
        assert integrated_sigma(constant_width_growth(0.1), 0.0, 5.0) == pytest.approx(0.5)

    def test_empty_interval(self):
        assert integrated_sigma(constant_width_growth(0.3), 2.0, 2.0) == 0.0
        clock = FundamentalLimitClock(t_planck=1.0, t_max=5.0)
        assert integrated_sigma(clock, 1.0, 1.0) == 0.0

    def test_fundamental_closed_form_vs_quadrature(self):
        # oracle: adaptive quadrature through the integrable endpoint singularity
        clock = FundamentalLimitClock(t_planck=1.0, t_max=1.0)
        numeric, _ = quad(lambda T: (1.0 / (1.0 - T)) ** (1.0 / 3.0), 0.0, 1.0)
        value = integrated_sigma(clock, 0.0, 1.0)
        assert value == pytest.approx(1.5, abs=1e-12)
        assert value == pytest.approx(numeric, abs=1e-8)

    def test_matches_pointwise_quadrature_inside_domain(self):
        clock = FundamentalLimitClock(t_planck=0.3, t_max=4.0)
        numeric, _ = quad(lambda T: sigma(clock, T), 0.5, 3.0, epsabs=1e-12)
        assert integrated_sigma(clock, 0.5, 3.0) == pytest.approx(numeric, abs=1e-9)

    def test_full_horizon_closed_form(self):
        # with t_max equal to the final time the integral is (3/2) T_P^(4/3) T^(2/3)
        t_p, t = 0.02, 7.0
        clock = FundamentalLimitClock(t_planck=t_p, t_max=t)
        assert integrated_sigma(clock, 0.0, t) == pytest.approx(
            1.5 * t_p ** (4.0 / 3.0) * t ** (2.0 / 3.0), rel=1e-14
        )

    def test_domain_errors(self):
        clock = FundamentalLimitClock(t_planck=1.0, t_max=2.0)
        with pytest.raises(ClockDomainError):
            integrated_sigma(clock, 0.0, 3.0)
        with pytest.raises(ValidationError):
            integrated_sigma(clock, 1.0, 0.5)

    @given(
        st.floats(min_value=0.0, max_value=3.0),
        st.floats(min_value=0.0, max_value=3.0),
        st.floats(min_value=0.0, max_value=3.0),
    )
    def test_additivity(self, x, y, z):
        a, b, c = sorted((x, y, z))
        clock = FundamentalLimitClock(t_planck=0.5, t_max=3.5)
        whole = integrated_sigma(clock, a, c)
        split = integrated_sigma(clock, a, b) + integrated_sigma(clock, b, c)
        assert abs(whole - split) <= 1e-10


@pytest.mark.parametrize("clock", [
    ExpansionClock(b=lambda T: 0.1 * T + 0.02 * T**2, b_rate=lambda T: 0.1 + 0.04 * T),
    build_clock({"kind": "expansion", "b_poly": [0.0, 0.3, 0.05, -0.002]}),
    FundamentalLimitClock(t_planck=0.1, t_max=11.0),
], ids=["b_rate", "b_poly", "fundamental"])
def test_sigma_over_an_array_equals_the_scalar_calls(clock, rng):
    readings = np.concatenate([[0.0], rng.uniform(0.0, 10.0, size=200)])
    values = sigma(clock, readings)
    assert isinstance(values, np.ndarray) and values.shape == readings.shape
    scalars = [sigma(clock, float(t)) for t in readings]
    assert all(isinstance(value, float) for value in scalars)
    assert values.tolist() == scalars
    assert sigma(clock, readings.reshape(3, 67)).tolist() == values.reshape(3, 67).tolist()


def test_sigma_over_an_array_names_the_first_negative_rate():
    # rate 0.1 - 0.2 T turns negative after T = 0.5; the first failing
    # midpoint of 0.01 steps is 0.505, not the most negative reading
    clock = build_clock({"kind": "expansion", "b_poly": [0.0, 0.1, -0.1]})
    readings = np.arange(100) * 0.01 + 0.005
    with pytest.raises(ValidationError,
                       match=r"^width-growth rate must be nonnegative, got -1\.000e-03 at T=0\.505$"):
        sigma(clock, readings)


def test_sigma_names_the_first_nan_rate():
    clock = ExpansionClock(b=lambda T: 0.1 * T, b_rate=lambda T: 0.1 if T < 0.01 else math.nan)
    with pytest.raises(ValidationError,
                       match=r"^width-growth rate must be nonnegative, got nan at T=0\.015$"):
        sigma(clock, np.array([0.005, 0.015, 0.025]))
    # b_poly [0, 0, 1e308, -1e308] has finite entries, but its rate overflows to inf - inf
    clock = build_clock({"kind": "expansion", "b_poly": [0.0, 0.0, 1e308, -1e308]})
    with pytest.raises(ValidationError, match=r"got nan at T=0\.005$"):
        sigma(clock, 0.005)


def test_sigma_over_an_array_names_the_first_reading_past_the_horizon():
    clock = FundamentalLimitClock(t_planck=0.1, t_max=2.0)
    with pytest.raises(ClockDomainError,
                       match=r"^sigma\(T\) diverges at the horizon: T=2\.5 >= t_max=2\.0$"):
        sigma(clock, np.array([0.5, 1.5, 2.5, 3.0, 2.0]))


def test_sigma_nonnegative_everywhere(rng):
    clocks = [
        constant_width_growth(0.0),
        constant_width_growth(0.4),
        ExpansionClock(b=lambda T: 0.1 * T + 0.02 * T**2, b_rate=lambda T: 0.1 + 0.04 * T),
        FundamentalLimitClock(t_planck=0.1, t_max=11.0),
    ]
    for clock in clocks:
        for T in rng.uniform(0.0, 10.0, size=20):
            assert sigma(clock, float(T)) >= 0.0


@pytest.mark.parametrize("make", [
    lambda bad: GaussianClock(width=bad),
    lambda bad: GaussianClock(width=lambda T: bad).width_at(1.0),
], ids=["constant", "callable"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_gaussian_width_must_be_finite(make, bad):
    with pytest.raises(ValidationError, match="positive and finite"):
        make(bad)


@pytest.mark.parametrize("field", ["t_planck", "t_max"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_fundamental_limit_clock_rejects_non_finite(field, bad):
    params = dict(t_planck=1e-2, t_max=20.0)
    params[field] = bad
    with pytest.raises(ValidationError, match=f"{field} must be finite"):
        FundamentalLimitClock(**params)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_constant_width_growth_rejects_non_finite(bad):
    with pytest.raises(ValidationError, match="sigma must be finite"):
        constant_width_growth(bad)
