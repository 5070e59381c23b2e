"""Fast-light pulse advancement in an absorbing Raman line, amplified by
polarization post-selection.

The package models a weak probe pulse crossing a far-detuned two-photon
absorption line whose anomalous dispersion advances the pulse peak, and the
polarization-interferometric trick that trades extra advance against the
same end-to-end loss: split the light into unequal H/V weights, pass only H
through the line, and post-select near the dark port of the analyzer.

The root exports what the acceptance gate and the README round trip use,
the config entry points and the error families; every other public name is
imported from its own module.
"""

from .analysis import centroid, crossover, fit_gaussian, t_atom, t_wva
from .atomic_response import (
    MediumSpec,
    ReducedLine,
    absorption,
    group_advance,
    kk_check,
    transmission,
)
from .config import default_config, load_config, parse_config, serialize_config
from .errors import ApproximationWarning, FitFailureError, NumericalError, ParameterError
from .pulse_engine import (
    default_grid,
    make_gaussian,
    prepare_input,
    propagate_ideal,
    propagate_lorentzian,
)
from .weak_value import post_select, weak_value

__version__ = "0.1.0"
