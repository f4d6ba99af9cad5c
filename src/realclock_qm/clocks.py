"""Models of the clock-reading distribution and its width growth.

A clock model describes the probability density P_t(T) that the clock reads
T when the unobservable ideal time is t. Densities are normalized over t at
fixed reading T (that convention is what preserves the trace of the smeared
state). Four kinds are supported:

* IdealClock          -- delta-sharp reading, recovers ordinary evolution;
                         every route handles it before asking for a density.
* GaussianClock       -- normal density in t with reading-dependent width,
                         peaked at rate * t.
* ExpansionClock      -- semiclassical expansion around a delta; only the
                         width-growth rate sigma(T) = db/dT enters evolution.
* FundamentalLimitClock -- width growth at the best accuracy any physical
                         clock can reach, sigma(T) = (T_P/(T_max-T))^(1/3)*T_P.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .core import require_finite
from .errors import ClockDomainError, UnsupportedClockKindError, ValidationError


@dataclass(frozen=True)
class IdealClock:
    """Perfectly sharp clock: reading equals ideal time."""


@dataclass(frozen=True)
class GaussianClock:
    """Normal reading distribution of width w(T), peaked at rate * t.

    ``width`` is either a positive constant or a callable w(T) > 0 giving
    the width in reading units. ``rate`` is the positive, finite speed of
    the peak in reading units per unit of ideal time; it enters the density
    as a Jacobian so that the integral over t stays exactly 1.
    """

    width: Union[float, Callable[[float], float]]
    rate: float = 1.0

    def __post_init__(self):
        if not callable(self.width) and not 0 < float(self.width) < math.inf:
            raise ValidationError(
                f"Gaussian clock width must be positive and finite, got {self.width}"
            )
        if not 0 < float(self.rate) < math.inf:
            raise ValidationError(
                f"Gaussian clock rate must be positive and finite, got {self.rate}"
            )

    def width_at(self, reading: float) -> float:
        w = self.width(reading) if callable(self.width) else float(self.width)
        if not 0 < w < math.inf:
            raise ValidationError(
                f"Gaussian clock width must be positive and finite, got {w} at T={reading}"
            )
        return float(w)


@dataclass(frozen=True)
class ExpansionClock:
    """Narrow distribution described by its delta expansion coefficients.

    ``b`` is the second-order coefficient (extra width, b(T) > 0 away from
    T = 0) and ``b_rate`` its derivative. Both are scalar callables: they
    are called once per reading.
    """

    b: Callable[[float], float]
    b_rate: Callable[[float], float]


@dataclass(frozen=True)
class FundamentalLimitClock:
    """Best physically achievable clock; width must eventually grow.

    ``t_max`` is the caller-chosen horizon entering sigma(T); pointwise
    sigma diverges as T -> t_max (the divergence is integrable).
    """

    t_planck: float
    t_max: float

    def __post_init__(self):
        require_finite(t_planck=self.t_planck, t_max=self.t_max)
        if self.t_planck <= 0:
            raise ValidationError(f"t_planck must be positive, got {self.t_planck}")


ClockModel = Union[IdealClock, GaussianClock, ExpansionClock, FundamentalLimitClock]


def constant_width_growth(sigma: float) -> ExpansionClock:
    """Clock whose reading distribution widens at constant rate sigma."""
    require_finite(sigma=sigma)
    if sigma < 0:
        raise ValidationError(f"width growth rate must be nonnegative, got {sigma}")
    return ExpansionClock(b=lambda T: sigma * T, b_rate=lambda T: sigma)


def pdf(clock: ClockModel, reading: float, t):
    """Probability density P_t(T) of reading T at ideal time t, for a
    Gaussian clock. ``t`` may be a scalar or an array; the reading is
    always a scalar.
    """
    if isinstance(clock, GaussianClock):
        w = clock.width_at(reading)
        z = (reading - clock.rate * np.asarray(t, dtype=float)) / w
        return clock.rate * np.exp(-0.5 * z * z) / (math.sqrt(2 * math.pi) * w)
    raise UnsupportedClockKindError(
        f"pdf() is defined for Gaussian clocks, not {type(clock).__name__}"
    )


def sigma(clock: ClockModel, reading):
    """Width-growth rate sigma(T) of the reading distribution.

    ``reading`` is a scalar, which gives a float, or an array, which gives
    an array of its shape equal element by element to the scalar calls.
    An expansion clock's b_rate is called once per reading, and the
    fundamental-limit formula is evaluated per reading in Python floats;
    the sign check with its clip at 0 and the horizon check each run over
    the whole array and name the first failing reading. Both checks are
    negated comparisons, so a NaN rate or reading fails them too.
    """
    t = np.asarray(reading, dtype=float)
    readings = t.ravel().tolist()
    if isinstance(clock, ExpansionClock):
        rates = [float(clock.b_rate(r)) for r in readings]
        value = np.array(rates, dtype=float)
        bad = np.flatnonzero(~(value >= -1e-8))
        if bad.size:
            raise ValidationError(
                f"width-growth rate must be nonnegative, got {rates[bad[0]]:.3e} "
                f"at T={readings[bad[0]]}"
            )
        value = np.maximum(value, 0.0)
    elif isinstance(clock, FundamentalLimitClock):
        bad = np.flatnonzero(~(t.ravel() < clock.t_max))
        if bad.size:
            raise ClockDomainError(
                f"sigma(T) diverges at the horizon: T={readings[bad[0]]} >= t_max={clock.t_max}"
            )
        t_p, t_max = clock.t_planck, clock.t_max
        value = np.array([(t_p / (t_max - r)) ** (1.0 / 3.0) * t_p for r in readings])
    else:
        raise UnsupportedClockKindError(
            f"sigma() is defined for expansion and fundamental-limit clocks, "
            f"not {type(clock).__name__}"
        )
    return float(value[0]) if t.ndim == 0 else value.reshape(t.shape)


def integrated_sigma(clock: ClockModel, t0: float, t1: float) -> float:
    """Integral of sigma(T) over [t0, t1].

    For the fundamental-limit clock the closed form
    (3/2) * T_P^(4/3) * [(t_max - t0)^(2/3) - (t_max - t1)^(2/3)]
    is used; it stays finite through the integrable endpoint singularity,
    so t1 = t_max is allowed.
    """
    if t1 < t0:
        raise ValidationError(f"interval must satisfy t0 <= t1, got [{t0}, {t1}]")
    if isinstance(clock, ExpansionClock):
        return float(clock.b(t1) - clock.b(t0))
    if isinstance(clock, FundamentalLimitClock):
        if t1 > clock.t_max:
            raise ClockDomainError(
                f"integration endpoint {t1} exceeds t_max={clock.t_max}"
            )
        tp43 = clock.t_planck ** (4.0 / 3.0)
        return 1.5 * tp43 * (
            (clock.t_max - t0) ** (2.0 / 3.0) - (clock.t_max - t1) ** (2.0 / 3.0)
        )
    raise UnsupportedClockKindError(
        f"integrated_sigma() is defined for expansion and fundamental-limit "
        f"clocks, not {type(clock).__name__}"
    )
