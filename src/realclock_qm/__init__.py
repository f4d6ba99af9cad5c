"""Quantum evolution measured by real, imperfect clocks.

The package evolves density matrices against the reading of a physical
clock rather than ideal time: smeared states, the width-growth master
equation with its closed-form solutions, the spin-bath measurement model
with recurrence suppression, and the fundamental clock-accuracy bounds.
"""

from .clock_accuracy import (
    ExperimentReport,
    decoherence_exponent,
    experiment_report,
    half_coherence_time,
    ng_vandam_limit,
    salecker_wigner_error,
)
from .clocks import (
    DELTA,
    ClockModel,
    DeltaFlag,
    ExpansionClock,
    FundamentalLimitClock,
    GaussianClock,
    IdealClock,
    constant_width_growth,
    integrated_sigma,
    pdf,
    sigma,
)
from .core import (
    DensityMatrix,
    EnergyDecomposition,
    HermitianOperator,
    Projector,
    build_projector,
    eigendecompose,
    unitary_evolve,
)
from .errors import (
    ClockDomainError,
    ClockFoldingError,
    ConfigError,
    DegenerateStateError,
    DimensionMismatchError,
    GridConvergenceError,
    InsufficientGridError,
    IntegrationFailureError,
    InvalidCoherenceError,
    NonCommutingObservableError,
    RealClockQMError,
    ResourceLimitError,
    UndefinedCoherenceError,
    UnsupportedClockKindError,
    ValidationError,
)
from .evolution import (
    ConditionalQuery,
    ConservationReport,
    EvolutionConfig,
    WavepacketClock,
    analytic_offdiagonal,
    conditional_probabilities,
    conditional_probabilities_analytic,
    conditional_probability,
    conditional_probability_analytic,
    despagnat_conservation,
    evolve_master,
    fundamental_decay_factor,
    make_wavepacket_clock,
    master_step,
    ordinary_probability,
    smear_densities,
    smear_density,
)
from .zurek import (
    RecurrenceScan,
    ReducedState,
    SpinBath,
    brute_force_z,
    random_bath,
    realclock_damping,
    recurrence_scan,
    reduced_density,
    z_ideal,
    z_realclock,
)

__version__ = "0.1.0"
