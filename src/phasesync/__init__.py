"""Mean-field coupled-oscillator simulation and synchronization analysis.

Finite-N dynamics, a characteristics-based kinetic solver with entropy
accounting, stationary-state classification, and the self-consistency
machinery for partially synchronized mean-field states.
"""

from .core import (
    R_MIN,
    OrderParameter,
    OscillatorEnsemble,
    UndefinedPhaseError,
    circle_distance,
    field,
    finite_n_rhs,
    mean_phase,
    order_parameter,
    potential_u,
    r_dot_identical,
    r_phi_dot_nonidentical,
    weighted_order_parameter,
    wrap_angle,
    zero_mean_frequencies,
)
from .integrate import (
    NonFiniteStateError,
    SimConfig,
    Trajectory,
    detect_stationarity,
    seeded_ensemble,
    simulate,
    step_rk4,
)
from .classify import (
    ANGLE_TOL,
    CLASS_R_TOL,
    MASS_TOL,
    StationaryClass,
    classify_finite,
    classify_measure,
    three_oscillator_limit,
    three_oscillator_rate,
)
from .kinetic import (
    AtomList,
    DensitySpec,
    PhaseMeasure,
    ProductSpec,
    characteristic_targets,
    discretize,
    entropy_change,
    fourier_moment,
    h_functional,
    kinetic_simulate,
    kinetic_step,
    observable,
)
from .freqdist import Dirac, Discrete, FrequencyDistribution, TruncatedGaussian, Uniform
from .stationary import (
    SelfConsistencyResult,
    StationaryDensity,
    critical_coupling,
    self_consistency_residual,
    self_consistency_roots,
)

__version__ = "0.26.0"
