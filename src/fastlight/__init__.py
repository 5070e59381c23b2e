"""Fast-light pulse advancement in an absorbing Raman line, amplified by
polarization post-selection.

The package models a weak probe pulse crossing a far-detuned two-photon
absorption line whose anomalous dispersion advances the pulse peak, and the
polarization-interferometric trick that trades extra advance against the
same end-to-end loss: split the light into unequal H/V weights, pass only H
through the line, and post-select near the dark port of the analyzer.
"""

from .analysis import (
    ArrivalEstimate,
    ScalingPoint,
    centroid,
    crossover,
    fit_gaussian,
    scaling_curve,
    t_atom,
    t_wva,
)
from .atomic_response import (
    C_LIGHT,
    MediumSpec,
    ReducedLine,
    absorption,
    background_susceptibility,
    chi_full,
    chi_lorentzian,
    chi_resonant,
    gamma_effective,
    group_advance,
    group_index,
    kk_check,
    kramers_kronig_residual,
    light_shift,
    power_broadening,
    refractive_index,
    transmission,
)
from .config import (
    GridConfig,
    LineConfig,
    MediumConfig,
    PulseConfig,
    RunConfig,
    default_config,
    load_config,
    parse_config,
    serialize_config,
)
from .errors import (
    ApproximationDomainError,
    ApproximationWarning,
    DegenerateParametersError,
    FastlightError,
    FeasibilityError,
    FitFailureError,
    GridResolutionError,
    GridTooSmallError,
    NumericalDerivativeError,
    NumericalError,
    OptimizerError,
    ParameterError,
    SingularPostSelectionError,
    ZeroEnergyError,
)
from .pulse_engine import (
    Envelope,
    PolarizedPulse,
    TimeGrid,
    default_grid,
    make_gaussian,
    prepare_input,
    propagate_ideal,
    propagate_lorentzian,
    write_envelope_csv,
)
from .weak_value import (
    PostSelectedPulse,
    invert_transmission,
    post_select,
    total_transmission,
    weak_value,
)

__version__ = "0.1.0"
