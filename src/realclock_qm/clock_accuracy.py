"""Fundamental clock-accuracy bounds and decoherence-magnitude estimates.

All bounds are order-of-magnitude statements; the implied proportionality
constants are taken as 1, and the functions are exact contracts for the
resulting formulas. Natural units (hbar = c = 1): mass is 1/time, and the
caller chooses the scale by picking t_planck (the physical value is about
5.39e-44 s, but nothing here hardcodes it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


def salecker_wigner_error(mass: float, t: float) -> float:
    """Reading error sqrt(t/M) of a mass-M clock from wavepacket spreading."""
    if mass <= 0:
        raise ValidationError(f"mass must be positive, got {mass}")
    if t < 0:
        raise ValidationError(f"duration must be nonnegative, got {t}")
    return math.sqrt(t / mass)


def ng_vandam_limit(t: float, t_planck: float) -> float:
    """Best achievable clock accuracy T_P^(2/3) * T^(1/3) over a duration T."""
    if t_planck <= 0:
        raise ValidationError(f"t_planck must be positive, got {t_planck}")
    if t < 0:
        raise ValidationError(f"duration must be nonnegative, got {t}")
    return t_planck ** (2.0 / 3.0) * t ** (1.0 / 3.0)


def decoherence_exponent(omega: float, t, t_planck: float):
    """Exponent omega^2 * T_P^(4/3) * T^(2/3) suppressing an off-diagonal
    element at Bohr frequency omega after duration T under the best clock.

    ``t`` may be a scalar or a numpy array of durations (the result has
    its shape). evolution.fundamental_decay_factor is exp(-this value).
    """
    if t_planck <= 0:
        raise ValidationError(f"t_planck must be positive, got {t_planck}")
    if np.any(t < 0):
        raise ValidationError(f"duration must be nonnegative, got {np.min(t)}")
    return omega * omega * t_planck ** (4.0 / 3.0) * t ** (2.0 / 3.0)


@dataclass(frozen=True)
class ExperimentReport:
    """Decoherence magnitudes for one (omega, T, T_P) combination.

    ``half_coherence_time`` solves exponent = ln 2; it is infinite (and
    ``no_decoherence`` is set) when omega = 0.
    """

    omega: float
    duration: float
    t_planck: float
    exponent: float
    decay_factor: float
    half_coherence_time: float
    ng_vandam_delta: float
    no_decoherence: bool


def half_coherence_time(omega: float, t_planck: float) -> float:
    """Duration at which the suppression factor reaches 1/2.

    Closed form (ln 2 / (omega^2 * T_P^(4/3)))^(3/2); scales as omega^-3.
    """
    if t_planck <= 0:
        raise ValidationError(f"t_planck must be positive, got {t_planck}")
    if omega == 0:
        return math.inf
    return (math.log(2.0) / (omega * omega * t_planck ** (4.0 / 3.0))) ** 1.5


def experiment_report(omega: float, duration: float, t_planck: float) -> ExperimentReport:
    """Assemble the decoherence figures relevant to an experiment design."""
    if duration < 0:
        raise ValidationError(f"duration must be nonnegative, got {duration}")
    exponent = decoherence_exponent(omega, duration, t_planck)
    return ExperimentReport(
        omega=omega,
        duration=duration,
        t_planck=t_planck,
        exponent=exponent,
        decay_factor=math.exp(-exponent),
        half_coherence_time=half_coherence_time(omega, t_planck),
        ng_vandam_delta=ng_vandam_limit(duration, t_planck),
        no_decoherence=(omega == 0),
    )
