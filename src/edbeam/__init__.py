"""Spectral Galerkin simulator for extensible beams with nonlocal damping.

The package simulates the modal truncation of a fourth-order hyperbolic
beam equation whose dissipation coefficient depends on a global energy
functional of the state, and verifies the quantitative decay envelopes,
inequalities, and attractor characterizations the three damping families
imply.
"""

__version__ = "0.1.0"

from .energy import (
    EnvelopeParams,
    decay_envelopes,
    envelope_constants,
    fit_exp_rate,
    fit_power_rate,
)
from .errors import BlowUpError, InvalidConfigurationError
from .integrate import (
    IntegratorConfig,
    Trajectory,
    energy_identity_residual,
    integrate,
    integrate_batch,
)
from .laws import (
    AssumptionConstants,
    DoublePower,
    Forcing,
    K1Monomial,
    K2Constant,
    K2ExpDecay,
    K2Rational,
    K3Rational,
    K3ShiftedExp,
    SourceLaw,
    ZeroSource,
    assumption_constants,
    project_source,
)
from .nakao import haraux_check
from .series import SampledSeries
from .spectral import (
    ModalState,
    SpectralModel,
    build_model,
    phase_norm,
    synthesize,
)
from .stationary import (
    StationaryResult,
    el_gradient,
    euler_lagrange_value,
    minimize_functional,
    multi_start,
    stationary_bound_check,
)
